(** Execution-driven RTL interpreter.

    Runs a program in its pre-decoded form ({!Decode}) against a
    byte-addressed memory paged on first write, stepping a timing model
    ({!Inorder}, {!Ooo}) on every executed instruction — the models
    consume the dynamic stream on the fly, so no trace is materialized.  Dynamic facts (the
    effective address, whether control was redirected, the speculative
    loads a store recovered) reach the model as arguments.

    Nothing is allocated per executed instruction.  Registers live in two
    unboxed stacks, [int array] and [float array], one window of
    [vreg_count] slots per activation; call arguments and return values
    are staged in both conversions, so a callee reads an argument in the
    class of the register it lands in.  Only the printing builtins, the
    rare growth of a stack and the first store to a memory page
    allocate.

    Memory layout: see {!Decode}.  Each activation gets a frame below the
    previous one (stack grows down, and must stay above the globals),
    with its 128-byte outgoing-argument area directly below the frame
    base, shared with the callee's incoming-argument view. *)

open Decode

exception Runtime_error = Decode.Runtime_error

exception Out_of_fuel

type result = {
  ret : int;
  output : string;
  dyn_count : int;  (** executed instructions *)
  misspec : int;  (** misspeculation recoveries performed *)
}

(** The timing model an execution steps. *)
type timing = Functional | In_order of Inorder.t | Out_of_order of Ooo.t

type state = {
  prog : Decode.program;
  pages : Bytes.t array;  (** the address space, [page_size] bytes a page *)
  scratch : Bytes.t;  (** 8 bytes: staging for page-straddling accesses *)
  out : Buffer.t;
  mutable rand_state : int;
  limit : int;  (** instructions that may execute; [max_int]: unlimited *)
  mutable executed : int;
  mutable misspec : int;  (** misspeculation recoveries across the run *)
  mutable timing : timing;
  (* register windows: an activation owns [base, base + nregs) *)
  mutable ri : int array;
  mutable rf : float array;
  mutable rtop : int;
  (* staged call arguments: an activation's are [abase, abase + nargs) *)
  mutable ai : int array;
  mutable af : float array;
  mutable atop : int;
  (* the last return value, in both conversions *)
  mutable ret_i : int;
  ret_f : float array;  (** one slot, so the float stays unboxed *)
  (* in-flight speculative loads: destination register, the load's
     index in its function's code, and its captured effective address;
     an activation's are [spec_lo, spec_top) *)
  mutable spec_reg : int array;
  mutable spec_pc : int array;
  mutable spec_addr : int array;
  mutable spec_top : int;
}

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* The [mem_size] address space is a table of [page_size]-byte pages.
   Every page starts as the shared [zero_page], which is never written;
   the first store to a page gives it a buffer of its own, so a run
   pays only for the pages it writes.  Bounds checks and addresses are
   those of one flat [mem_size] array. *)
let page_bits = 16
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let zero_page = Bytes.make page_size '\000'

let out_of_range addr =
  raise (Runtime_error (Printf.sprintf "address out of range: 0x%x" addr))

let[@inline] writable_page st pg =
  let p = st.pages.(pg) in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    st.pages.(pg) <- p;
    p
  end

(* an access of [n] bytes that straddles a page boundary goes byte by
   byte through [st.scratch] *)
let gather st addr n =
  for k = 0 to n - 1 do
    let a = addr + k in
    Bytes.set st.scratch k (Bytes.get st.pages.(a lsr page_bits) (a land page_mask))
  done

let scatter st addr n =
  for k = 0 to n - 1 do
    let a = addr + k in
    Bytes.set (writable_page st (a lsr page_bits)) (a land page_mask)
      (Bytes.get st.scratch k)
  done

let[@inline] load_int st addr =
  if addr < 0 || addr + 4 > mem_size then out_of_range addr;
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le st.pages.(addr lsr page_bits) off)
  else begin
    gather st addr 4;
    Int32.to_int (Bytes.get_int32_le st.scratch 0)
  end

let[@inline] store_int st addr v =
  if addr < 0 || addr + 4 > mem_size then out_of_range addr;
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Bytes.set_int32_le (writable_page st (addr lsr page_bits)) off (Int32.of_int v)
  else begin
    Bytes.set_int32_le st.scratch 0 (Int32.of_int v);
    scatter st addr 4
  end

let[@inline] load_flt st addr =
  if addr < 0 || addr + 8 > mem_size then out_of_range addr;
  let off = addr land page_mask in
  if off <= page_size - 8 then
    Int64.float_of_bits (Bytes.get_int64_le st.pages.(addr lsr page_bits) off)
  else begin
    gather st addr 8;
    Int64.float_of_bits (Bytes.get_int64_le st.scratch 0)
  end

let[@inline] store_flt st addr v =
  if addr < 0 || addr + 8 > mem_size then out_of_range addr;
  let off = addr land page_mask in
  if off <= page_size - 8 then
    Bytes.set_int64_le (writable_page st (addr lsr page_bits)) off (Int64.bits_of_float v)
  else begin
    Bytes.set_int64_le st.scratch 0 (Int64.bits_of_float v);
    scatter st addr 8
  end

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(** Decode [prog] and lay out its memory.  [fuel] is the instruction
    budget: exactly [fuel] instructions execute before {!Out_of_fuel} is
    raised on the next one; [fuel = 0] (or negative) means unlimited.
    Raises {!Runtime_error} when the globals do not fit below the
    stack. *)
let make ?(fuel = 400_000_000) (prog : Backend.Rtl.program) : state =
  let p = Decode.program prog in
  let st =
    {
      prog = p;
      pages = Array.make (mem_size / page_size) zero_page;
      scratch = Bytes.create 8;
      out = Buffer.create 256;
      rand_state = 123456789;
      limit = (if fuel > 0 then fuel else max_int);
      executed = 0;
      misspec = 0;
      timing = Functional;
      ri = Array.make 1024 0;
      rf = Array.make 1024 0.0;
      rtop = 0;
      ai = Array.make 64 0;
      af = Array.make 64 0.0;
      atop = 0;
      ret_i = 0;
      ret_f = [| 0.0 |];
      spec_reg = Array.make 16 0;
      spec_pc = Array.make 16 0;
      spec_addr = Array.make 16 0;
      spec_top = 0;
    }
  in
  List.iter
    (fun (addr, init) ->
      match init with
      | Some (Srclang.Tast.Ginit_int n) -> store_int st addr n
      | Some (Srclang.Tast.Ginit_float f) -> store_flt st addr f
      | None -> ())
    p.globals;
  st

(** Globalized registers of the program: the size of a timing model's
    scoreboard. *)
let regs st = st.prog.total_regs

let grown n len = max n (2 * len)

let grow_regs st n =
  let ri = Array.make (grown n (Array.length st.ri)) 0
  and rf = Array.make (grown n (Array.length st.rf)) 0.0 in
  Array.blit st.ri 0 ri 0 st.rtop;
  Array.blit st.rf 0 rf 0 st.rtop;
  st.ri <- ri;
  st.rf <- rf

let grow_args st n =
  let ai = Array.make (grown n (Array.length st.ai)) 0
  and af = Array.make (grown n (Array.length st.af)) 0.0 in
  Array.blit st.ai 0 ai 0 st.atop;
  Array.blit st.af 0 af 0 st.atop;
  st.ai <- ai;
  st.af <- af

let grow_specs st =
  let n = 2 * Array.length st.spec_reg in
  let grow a = Array.append a (Array.make (n - Array.length a) 0) in
  st.spec_reg <- grow st.spec_reg;
  st.spec_pc <- grow st.spec_pc;
  st.spec_addr <- grow st.spec_addr

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let[@inline] ret_int st n =
  st.ret_i <- n;
  st.ret_f.(0) <- float_of_int n

let[@inline] ret_flt st x =
  st.ret_i <- int_of_float x;
  st.ret_f.(0) <- x

(* the [n] arguments are staged at [ab] *)
let exec_builtin st (i : insn) ab n =
  let f1 = if n > 0 then st.af.(ab) else 0.0
  and i1 = if n > 0 then st.ai.(ab) else 0 in
  match i.builtin with
  | Sqrt -> ret_flt st (sqrt f1)
  | Fabs -> ret_flt st (abs_float f1)
  | Exp -> ret_flt st (exp f1)
  | Log -> ret_flt st (log f1)
  | Sin -> ret_flt st (sin f1)
  | Cos -> ret_flt st (cos f1)
  | Pow -> ret_flt st (if n = 2 then Float.pow f1 st.af.(ab + 1) else 0.0)
  | Abs -> ret_int st (abs i1)
  | Print_int ->
      Buffer.add_string st.out (string_of_int i1);
      Buffer.add_char st.out '\n';
      ret_int st 0
  | Print_double ->
      Buffer.add_string st.out (Printf.sprintf "%.6f" f1);
      Buffer.add_char st.out '\n';
      ret_int st 0
  | Rand ->
      (* deterministic LCG (glibc constants), masked to 31 bits *)
      st.rand_state <- ((st.rand_state * 1103515245) + 12345) land 0x7fffffff;
      ret_int st st.rand_state
  | Srand ->
      st.rand_state <- (if n > 0 then i1 else 1);
      ret_int st 0
  | Unknown -> raise (Runtime_error ("unknown builtin " ^ i.name))

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let[@inline] ival (ri : int array) (rf : float array) (fc : float array) base k x =
  match k with
  | Ireg -> ri.(base + x)
  | Imm -> x
  | Freg -> int_of_float rf.(base + x)
  | Fimm -> int_of_float fc.(x)

let[@inline] fval (ri : int array) (rf : float array) (fc : float array) base k x =
  match k with
  | Ireg -> float_of_int ri.(base + x)
  | Imm -> float_of_int x
  | Freg -> rf.(base + x)
  | Fimm -> fc.(x)

(* a speculative value dies when its destination register is redefined *)
let prune st spec_lo r =
  let k = ref spec_lo in
  for j = spec_lo to st.spec_top - 1 do
    if st.spec_reg.(j) <> r then begin
      st.spec_reg.(!k) <- st.spec_reg.(j);
      st.spec_pc.(!k) <- st.spec_pc.(j);
      st.spec_addr.(!k) <- st.spec_addr.(j);
      incr k
    end
  done;
  st.spec_top <- !k

(* the value of a definition converts to its destination's class *)
let[@inline] def_int st spec_lo (ri : int array) (rf : float array) base (i : insn) v =
  if st.spec_top > spec_lo then prune st spec_lo i.dst;
  if i.dflt then rf.(base + i.dst) <- float_of_int v else ri.(base + i.dst) <- v

let[@inline] def_flt st spec_lo (ri : int array) (rf : float array) base (i : insn) x =
  if st.spec_top > spec_lo then prune st spec_lo i.dst;
  if i.dflt then rf.(base + i.dst) <- x else ri.(base + i.dst) <- int_of_float x

(* The check of every speculative load hoisted above this store
   (originally-later loads only: uid order is original program order)
   fires on an address overlap — recovery re-executes the load.
   Returns the number of recoveries. *)
let recover st code spec_lo (ri : int array) (rf : float array) base (i : insn) addr =
  let n = ref 0 in
  for j = spec_lo to st.spec_top - 1 do
    let l = code.(st.spec_pc.(j)) and a0 = st.spec_addr.(j) in
    if l.uid > i.uid && a0 < addr + i.msize && addr < a0 + l.msize then begin
      incr n;
      let d = base + st.spec_reg.(j) in
      if l.mflt then rf.(d) <- load_flt st a0 else ri.(d) <- load_int st a0
    end
  done;
  st.misspec <- st.misspec + !n;
  !n

(* check the budget before counting: with [fuel = n] exactly [n]
   instructions execute (and reach the timing model) before the n+1st
   raises *)
let[@inline] emit st (i : insn) addr taken misspec =
  if st.executed >= st.limit then raise Out_of_fuel;
  st.executed <- st.executed + 1;
  match st.timing with
  | Functional -> ()
  | In_order m -> Inorder.step m i addr taken misspec
  | Out_of_order m -> Ooo.step m i addr taken misspec

let[@inline] alu (op : Backend.Rtl.alu_op) x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then raise (Runtime_error "division by zero") else x / y
  | Rem -> if y = 0 then raise (Runtime_error "modulo by zero") else x mod y
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl -> x lsl (y land 31)
  | Shr -> x asr (y land 31)
  | Slt -> Bool.to_int (x < y)
  | Sle -> Bool.to_int (x <= y)
  | Seq -> Bool.to_int (x = y)
  | Sne -> Bool.to_int (x <> y)

let[@inline] address (ri : int array) base ~fp ~argout ~sp (i : insn) =
  let b =
    match i.mbase_k with
    | Abs -> 0
    | Breg -> ri.(base + i.mbase)
    | Frame -> fp
    | Argout -> argout
    | Argin -> sp
  in
  let idx = if i.midx >= 0 then ri.(base + i.midx) * i.mscale else 0 in
  b + i.moff + idx

(* Run function [fi] with its frame below [sp] and [nargs] arguments
   staged at [abase]; leaves the return value in [st.ret_i]/[st.ret_f]. *)
let rec exec_fn st fi ~sp ~abase ~nargs =
  let f = st.prog.fns.(fi) in
  let fp = sp - f.frame_size in
  let argout = fp - argout_bytes in
  if argout < st.prog.globals_end then raise (Runtime_error "stack overflow");
  let base = st.rtop and n = f.nregs in
  if base + n > Array.length st.ri then grow_regs st (base + n);
  Array.fill st.ri base n 0;
  Array.fill st.rf base n 0.0;
  st.rtop <- base + n;
  let spec_lo = st.spec_top in
  let code = f.code and fc = st.prog.fconst in
  (* the register stacks, re-read after a call (which may grow them) *)
  let ri_stack = ref st.ri and rf_stack = ref st.rf in
  let pc = ref f.entry_pc and running = ref true in
  while !running do
    let i = code.(!pc) and ri = !ri_stack and rf = !rf_stack in
    (match i.op with
    | Li ->
        if i.dflt then def_flt st spec_lo ri rf base i (fval ri rf fc base i.ak i.a)
        else def_int st spec_lo ri rf base i (ival ri rf fc base i.ak i.a);
        emit st i 0 false 0
    | Alu o ->
        let x = ival ri rf fc base i.ak i.a and y = ival ri rf fc base i.bk i.b in
        def_int st spec_lo ri rf base i (alu o x y);
        emit st i 0 false 0
    | Falu o ->
        let x = fval ri rf fc base i.ak i.a and y = fval ri rf fc base i.bk i.b in
        (match o with
        | Fadd -> def_flt st spec_lo ri rf base i (x +. y)
        | Fsub -> def_flt st spec_lo ri rf base i (x -. y)
        | Fmul -> def_flt st spec_lo ri rf base i (x *. y)
        | Fdiv -> def_flt st spec_lo ri rf base i (x /. y)
        | Fslt -> def_int st spec_lo ri rf base i (Bool.to_int (x < y))
        | Fsle -> def_int st spec_lo ri rf base i (Bool.to_int (x <= y))
        | Fseq -> def_int st spec_lo ri rf base i (Bool.to_int (x = y))
        | Fsne -> def_int st spec_lo ri rf base i (Bool.to_int (x <> y)));
        emit st i 0 false 0
    | La ->
        def_int st spec_lo ri rf base i i.a;
        emit st i 0 false 0
    | Laf ->
        def_int st spec_lo ri rf base i (fp + i.a);
        emit st i 0 false 0
    | Load ->
        let addr = address ri base ~fp ~argout ~sp i in
        if i.mflt then def_flt st spec_lo ri rf base i (load_flt st addr)
        else def_int st spec_lo ri rf base i (load_int st addr);
        emit st i addr false 0;
        if i.spec then begin
          if st.spec_top = Array.length st.spec_reg then grow_specs st;
          st.spec_reg.(st.spec_top) <- i.dst;
          st.spec_pc.(st.spec_top) <- !pc;
          st.spec_addr.(st.spec_top) <- addr;
          st.spec_top <- st.spec_top + 1
        end
    | Store ->
        let addr = address ri base ~fp ~argout ~sp i in
        if i.mflt then store_flt st addr (fval ri rf fc base i.bk i.b)
        else store_int st addr (ival ri rf fc base i.bk i.b);
        let misspec =
          if st.spec_top > spec_lo then recover st code spec_lo ri rf base i addr else 0
        in
        emit st i addr false misspec
    | Cvt_i2f ->
        if st.spec_top > spec_lo then prune st spec_lo i.dst;
        rf.(base + i.dst) <- float_of_int ri.(base + i.a);
        emit st i 0 false 0
    | Cvt_f2i ->
        if st.spec_top > spec_lo then prune st spec_lo i.dst;
        ri.(base + i.dst) <- int_of_float rf.(base + i.a);
        emit st i 0 false 0
    | Getarg ->
        let k = i.a in
        if i.dflt then
          def_flt st spec_lo ri rf base i (if k < nargs then st.af.(abase + k) else 0.0)
        else def_int st spec_lo ri rf base i (if k < nargs then st.ai.(abase + k) else 0);
        emit st i 0 false 0
    | Call ->
        let n = Array.length i.arg_x and ab = st.atop in
        if ab + n > Array.length st.ai then grow_args st (ab + n);
        for k = 0 to n - 1 do
          let kind = i.arg_k.(k) and x = i.arg_x.(k) in
          st.ai.(ab + k) <- ival ri rf fc base kind x;
          st.af.(ab + k) <- fval ri rf fc base kind x
        done;
        emit st i 0 false 0;
        st.atop <- ab + n;
        if i.target >= 0 then exec_fn st i.target ~sp:argout ~abase:ab ~nargs:n
        else exec_builtin st i ab n;
        st.atop <- ab;
        ri_stack := st.ri;
        rf_stack := st.rf;
        if i.dst >= 0 then
          if i.dflt then def_flt st spec_lo st.ri st.rf base i st.ret_f.(0)
          else def_int st spec_lo st.ri st.rf base i st.ret_i
    | Br_eqz ->
        let taken = ri.(base + i.a) = 0 in
        emit st i 0 taken 0;
        if taken then begin
          (* speculation never crosses a block: the DDG that dropped
             the edges is block-local *)
          st.spec_top <- spec_lo;
          pc := i.target - 1
        end
    | Br_nez ->
        let taken = ri.(base + i.a) <> 0 in
        emit st i 0 taken 0;
        if taken then begin
          st.spec_top <- spec_lo;
          pc := i.target - 1
        end
    | Jmp ->
        emit st i 0 true 0;
        st.spec_top <- spec_lo;
        pc := i.target - 1
    | Ret ->
        emit st i 0 true 0;
        st.ret_i <- ival ri rf fc base i.ak i.a;
        st.ret_f.(0) <- fval ri rf fc base i.ak i.a;
        running := false
    | End ->
        (* the block fell off its end: return 0, uncounted *)
        ret_int st 0;
        running := false);
    incr pc
  done;
  st.rtop <- base;
  st.spec_top <- spec_lo

(** Run [main] on a made state, stepping [timing] (default: none).
    Raises {!Runtime_error} for bad programs and {!Out_of_fuel} when the
    instruction budget is exhausted. *)
let exec ?(timing = Functional) st : result =
  if st.prog.main < 0 then raise (Runtime_error "no main function");
  st.timing <- timing;
  exec_fn st st.prog.main ~sp:stack_top ~abase:0 ~nargs:0;
  { ret = st.ret_i; output = Buffer.contents st.out; dyn_count = st.executed; misspec = st.misspec }

(** [make] then [exec] without a timing model: exactly [fuel]
    instructions execute before the budget trips, and [fuel = 0] means
    unlimited. *)
let run ?fuel (prog : Backend.Rtl.program) : result = exec (make ?fuel prog)
