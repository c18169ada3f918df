(** Out-of-order superscalar model (MIPS R10000).

    A window-based approximation of a 4-issue core: instructions
    dispatch in order (4 per cycle) into a reorder buffer of 32 entries,
    issue out of order when their operands are ready and a function unit
    is free, and retire in order (4 per cycle).

    The load/store queue implements the rule the paper singles out as
    the reason the R10000 profits more from HLI scheduling: {e a load is
    not issued to the memory system until the addresses of all earlier
    stores in the queue are known}.  A conservatively ordered static
    schedule therefore delays address computations of stores — and every
    younger load pays for it; the HLI schedule hoists loads above
    stores, making their issue independent. *)

type t = {
  md : Backend.Machdesc.t;
  lat : int array;  (** per {!Decode} latency class *)
  cache : Cache.t;
  reg_ready : int array;  (** globalized register -> cycle its value is ready *)
  (* the reorder buffer, circular, indexed by seq mod window *)
  rob_complete : int array;  (** cycle the result is available *)
  rob_retire : int array;
  rob_addr : int array;
  mutable rob_stores : int;  (** bit [s] set: slot [s] holds a store *)
  mutable seq : int;  (** instructions dispatched so far *)
  mutable dispatch_cycle : int;
  mutable dispatch_in_cycle : int;
  mutable last_retire : int;
  mutable retired_in_cycle : int;
  units : int array array;
      (** function-unit next-free times per {!Decode} unit class: int
          ALUs, FP units, memory port *)
  mutable cycles : int;
  mutable insns : int;
  mutable lsq_stall_cycles : int;  (** diagnostic: issue delay due to LSQ *)
}

(* at most 32: [rob_stores] is a 32-bit set *)
let window = 32

(** A model for a program of [regs] globalized registers
    ({!Decode.program.total_regs}). *)
let make ?(md = Backend.Machdesc.r10000) ~regs () =
  {
    md;
    lat = Decode.latencies md;
    cache = Cache.r10000 ();
    reg_ready = Array.make (max 1 regs) 0;
    rob_complete = Array.make window 0;
    rob_retire = Array.make window 0;
    rob_addr = Array.make window 0;
    rob_stores = 0;
    seq = 0;
    dispatch_cycle = 0;
    dispatch_in_cycle = 0;
    last_retire = 0;
    retired_in_cycle = 0;
    units = [| Array.make 2 0; Array.make 2 0; Array.make 1 0 |];
    cycles = 0;
    insns = 0;
    lsq_stall_cycles = 0;
  }

(* index of the lowest set bit of a non-zero [m] < 2^32 (de Bruijn) *)
let debruijn =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let[@inline] lowest_bit m =
  debruijn.((((m land -m) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* earliest free slot among k identical units (the first on a tie) *)
let best_unit (units : int array) =
  let best = ref 0 in
  for u = 1 to Array.length units - 1 do
    if units.(u) < units.(!best) then best := u
  done;
  !best

(** Account one executed instruction: [addr] is its effective address
    (loads/stores), [taken] is ignored (no fetch bubbles are modelled),
    [misspec] the speculative loads a store recovered. *)
let step (t : t) (i : Decode.insn) addr (_taken : bool) misspec =
  t.insns <- t.insns + 1;
  let slot = t.seq mod window in
  (* in-order dispatch: 4 per cycle, and the ROB slot must have retired *)
  let oldest_retire = if t.seq >= window then t.rob_retire.(slot) else 0 in
  if t.dispatch_in_cycle >= t.md.Backend.Machdesc.issue_width then begin
    t.dispatch_cycle <- t.dispatch_cycle + 1;
    t.dispatch_in_cycle <- 0
  end;
  if oldest_retire > t.dispatch_cycle then begin
    t.dispatch_cycle <- oldest_retire;
    t.dispatch_in_cycle <- 0
  end;
  let dispatch = t.dispatch_cycle in
  t.dispatch_in_cycle <- t.dispatch_in_cycle + 1;
  (* operands *)
  let rr = t.reg_ready and srcs = i.Decode.srcs in
  let operand_ready = ref dispatch in
  for k = 0 to Array.length srcs - 1 do
    let r = rr.(srcs.(k)) in
    if r > !operand_ready then operand_ready := r
  done;
  let operand_ready = !operand_ready in
  (* LSQ rule: loads wait until all earlier in-flight stores have known
     addresses; if an earlier store writes the same word, wait for its
     completion (forwarding takes one extra cycle). *)
  let lsq_ready =
    if (not i.Decode.is_load) || not t.md.Backend.Machdesc.lsq_blocking then 0
    else begin
      (* the earlier entries are every other slot: while the buffer
         is still filling, the slots above [slot] hold no stores yet *)
      let stores = t.rob_stores land lnot (1 lsl slot) in
      let word = addr land lnot 7 in
      let w = ref 0 and m = ref stores in
      while !m <> 0 do
        let e = lowest_bit !m in
        m := !m land (!m - 1);
        (* stores still in flight (not yet retired) gate the load: the
           R10000 does not issue a load past a store whose independence
           is not yet established, so the load waits until the earlier
           store has executed (or forwarded, same-word case) *)
        if t.rob_retire.(e) > operand_ready then begin
          let complete = t.rob_complete.(e) in
          if complete > !w then w := complete;
          if t.rob_addr.(e) land lnot 7 = word && complete + 1 > !w then
            w := complete + 1
        end
      done;
      !w
    end
  in
  if lsq_ready > operand_ready then
    t.lsq_stall_cycles <- t.lsq_stall_cycles + (lsq_ready - operand_ready);
  let can_issue = if lsq_ready > operand_ready then lsq_ready else operand_ready in
  let units = t.units.(i.Decode.unit_class) in
  let u = best_unit units in
  let issue = if units.(u) > can_issue then units.(u) else can_issue in
  units.(u) <- issue + 1;
  let lat = t.lat.(i.Decode.lat_class) in
  let lat = if i.Decode.mem then lat + Cache.access t.cache addr else lat in
  let complete = issue + lat in
  if i.Decode.gdst >= 0 then rr.(i.Decode.gdst) <- complete;
  (* in-order retirement, issue_width per cycle *)
  let retire = if complete > t.last_retire then complete else t.last_retire in
  let retire =
    if retire = t.last_retire then begin
      t.retired_in_cycle <- t.retired_in_cycle + 1;
      if t.retired_in_cycle >= t.md.Backend.Machdesc.issue_width then begin
        t.retired_in_cycle <- 0;
        retire + 1
      end
      else retire
    end
    else begin
      t.retired_in_cycle <- 1;
      retire
    end
  in
  t.last_retire <- retire;
  (* a store that caught misspeculated loads replays them from the
     issue queue: dispatch restarts after the recovery window *)
  if misspec > 0 then begin
    t.dispatch_cycle <-
      max t.dispatch_cycle (complete + (misspec * t.md.Backend.Machdesc.misspec_penalty));
    t.dispatch_in_cycle <- 0
  end;
  t.rob_complete.(slot) <- complete;
  t.rob_retire.(slot) <- retire;
  t.rob_stores <-
    (if i.Decode.is_store then t.rob_stores lor (1 lsl slot)
     else t.rob_stores land lnot (1 lsl slot));
  t.rob_addr.(slot) <- addr;
  t.seq <- t.seq + 1;
  if retire > t.cycles then t.cycles <- retire

let cycles t = t.cycles
