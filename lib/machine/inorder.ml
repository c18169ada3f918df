(** In-order single-issue pipeline model (MIPS R4600).

    A scoreboard over the dynamic instruction stream: each instruction
    issues at the earliest cycle where (a) the previous instruction has
    issued (single issue), and (b) all its source registers are ready.
    Loads incur the L1 latency plus any cache-miss penalty; taken
    branches cost one bubble.  Because issue is strictly in order, a
    poorly scheduled block serializes on load-use stalls — which is
    exactly the effect HLI-enabled scheduling removes. *)

type t = {
  md : Backend.Machdesc.t;
  lat : int array;  (** per {!Decode} latency class *)
  cache : Cache.t;
  reg_ready : int array;  (** globalized register -> cycle its value is ready *)
  mutable last_issue : int;
  mutable cycles : int;
  mutable insns : int;
}

(** A model for a program of [regs] globalized registers
    ({!Decode.program.total_regs}). *)
let make ?(md = Backend.Machdesc.r4600) ~regs () =
  {
    md;
    lat = Decode.latencies md;
    cache = Cache.r4600 ();
    reg_ready = Array.make (max 1 regs) 0;
    last_issue = 0;
    cycles = 0;
    insns = 0;
  }

(** Account one executed instruction: [addr] is its effective address
    (loads/stores), [taken] whether it redirected control, [misspec]
    the speculative loads a store recovered. *)
let step (t : t) (i : Decode.insn) addr taken misspec =
  t.insns <- t.insns + 1;
  let rr = t.reg_ready and srcs = i.Decode.srcs in
  let issue = ref (t.last_issue + 1) in
  for k = 0 to Array.length srcs - 1 do
    let r = rr.(srcs.(k)) in
    if r > !issue then issue := r
  done;
  let issue = !issue in
  let lat = t.lat.(i.Decode.lat_class) in
  let lat = if i.Decode.mem then lat + Cache.access t.cache addr else lat in
  if i.Decode.gdst >= 0 then rr.(i.Decode.gdst) <- issue + lat;
  (* taken control transfers flush the fetch stage: one bubble *)
  t.last_issue <- (if taken then issue + 1 else issue);
  (* a store that caught a misspeculated load stalls the pipeline for
     the recovery (re-fetch and re-execute the load) *)
  if misspec > 0 then
    t.last_issue <- t.last_issue + (misspec * t.md.Backend.Machdesc.misspec_penalty);
  if issue + lat > t.cycles then t.cycles <- issue + lat

let cycles t = t.cycles
