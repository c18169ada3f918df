(** The simulator's pre-decoded program form.

    {!program} turns an {!Backend.Rtl.program} into flat per-function
    instruction arrays once, before execution, so that neither the
    interpreter ({!Exec}) nor the timing models ({!Inorder}, {!Ooo})
    look anything up or allocate per executed instruction:

    - the blocks of a function are laid end to end, each followed by an
      {!End} sentinel (a block that falls off its end returns 0), and
      branch targets become instruction indices;
    - operands become a (kind, index) pair of ints over the separate
      [int]/[float] register files, immediates inline (float immediates
      in a per-program constant pool);
    - globals resolve to absolute addresses and call targets to function
      indices or builtin ids;
    - each instruction carries what the timing models read: its
      globalized source registers, its globalized destination (or -1),
      a function-unit class and a latency class.  Latencies themselves
      are resolved per {!Backend.Machdesc.t} by {!latencies} when a
      timing model is made.

    Memory layout (part of the model, because addresses feed the cache
    model): globals are placed from [global_base] upward, 8-byte
    aligned; the stack starts at [stack_top] and grows down towards the
    end of the globals. *)

open Backend

exception Runtime_error of string

let mem_size = 32 * 1024 * 1024

let global_base = 0x1000

(** Initial stack pointer ([main]'s incoming [sp]). *)
let stack_top = mem_size - 64

let argout_bytes = 128

(** Opcodes: the RTL's, with operands decoded into {!insn} fields. *)
type opcode =
  | Li  (** d <- a *)
  | Alu of Rtl.alu_op  (** d <- a op b *)
  | Falu of Rtl.falu_op  (** d <- a op b; comparisons give 0/1 *)
  | La  (** d <- a (a resolved global address) *)
  | Laf  (** d <- fp + a *)
  | Load  (** d <- mem *)
  | Store  (** mem <- b *)
  | Cvt_i2f  (** f[d] <- i[a] *)
  | Cvt_f2i  (** i[d] <- f[a] *)
  | Getarg  (** d <- argument a *)
  | Call  (** call function [target], or [builtin] if [target] < 0 *)
  | Br_eqz  (** if i[a] = 0 goto [target] *)
  | Br_nez  (** if i[a] <> 0 goto [target] *)
  | Jmp  (** goto [target] *)
  | Ret  (** return a *)
  | End  (** fell off the end of a block: return 0, not executed *)

(** Operand kinds: [Ireg]/[Freg] index a register file, [Imm] holds the
    integer itself, [Fimm] indexes {!program.fconst}. *)
type kind = Ireg | Imm | Freg | Fimm

(** Memory-reference bases: an absolute address (a global, already in
    [moff]), a base register, the frame pointer, this frame's outgoing
    argument area, or the caller's (the incoming arguments). *)
type base = Abs | Breg | Frame | Argout | Argin

(** Function-unit classes (the R10000's integer ALUs, FP units and
    memory port). *)
let u_alu = 0

let u_fpu = 1

let u_mem = 2

(** Latency classes, resolved per machine by {!latencies}. *)
let l_int = 0

let l_mul = 1

let l_div = 2

let l_fadd = 3

let l_fmul = 4

let l_fdiv = 5

let l_load = 6

let l_call = 7

let l_one = 8

(** Result latency of each latency class on [md], indexed by class.
    Mirrors {!Backend.Machdesc.latency}, which [test_machine] checks
    instruction by instruction. *)
let latencies (md : Machdesc.t) =
  Machdesc.
    [|
      md.int_lat; md.mul_lat; md.div_lat; md.fadd_lat; md.fmul_lat;
      md.fdiv_lat; md.load_lat; md.call_fixed; 1;
    |]

let lat_class (i : Rtl.insn) =
  match i.Rtl.desc with
  | Rtl.Li _ | Rtl.La _ | Rtl.Laf _ | Rtl.Getarg _ -> l_int
  | Rtl.Alu (Rtl.Mul, _, _, _) -> l_mul
  | Rtl.Alu ((Rtl.Div | Rtl.Rem), _, _, _) -> l_div
  | Rtl.Alu _ -> l_int
  | Rtl.Falu ((Rtl.Fmul), _, _, _) -> l_fmul
  | Rtl.Falu ((Rtl.Fdiv), _, _, _) -> l_fdiv
  | Rtl.Falu _ | Rtl.Cvt_i2f _ | Rtl.Cvt_f2i _ -> l_fadd
  | Rtl.Load _ -> l_load
  | Rtl.Call _ -> l_call
  | Rtl.Store _ | Rtl.Br_eqz _ | Rtl.Br_nez _ | Rtl.Jmp _ | Rtl.Ret _ -> l_one

type builtin =
  | Sqrt | Fabs | Exp | Log | Sin | Cos | Pow | Abs
  | Print_int | Print_double | Rand | Srand
  | Unknown  (** raises [Runtime_error] when called *)

let builtin_of_name = function
  | "sqrt" -> Sqrt | "fabs" -> Fabs | "exp" -> Exp | "log" -> Log
  | "sin" -> Sin | "cos" -> Cos | "pow" -> Pow | "abs" -> Abs
  | "print_int" -> Print_int | "print_double" -> Print_double
  | "rand" -> Rand | "srand" -> Srand
  | _ -> Unknown

type insn = {
  op : opcode;
  dst : int;  (** local destination register, -1 if none *)
  dflt : bool;  (** the destination is a float register *)
  ak : kind;  (** operand a *)
  a : int;
  bk : kind;  (** operand b (the stored value for [Store]) *)
  b : int;
  target : int;
      (** branch target index; for [Call] the callee's function index,
          or -1 for a builtin *)
  builtin : builtin;
  arg_k : kind array;  (** call operands *)
  arg_x : int array;
  name : string;  (** callee name *)
  mbase_k : base;  (** memory reference *)
  mbase : int;  (** base register for [Breg] *)
  moff : int;  (** constant offset (the absolute address for [Abs]) *)
  midx : int;  (** index register, -1 if none *)
  mscale : int;
  msize : int;
  mflt : bool;  (** the value moved is a double *)
  uid : int;
  spec : bool;  (** speculative load *)
  (* timing-model view *)
  srcs : int array;  (** globalized source registers *)
  gdst : int;  (** globalized destination register, -1 if none *)
  unit_class : int;
  lat_class : int;
  mem : bool;  (** load or store: accesses the cache *)
  is_load : bool;
  is_store : bool;
}

type fn = {
  code : insn array;
  entry_pc : int;
  nregs : int;  (** register-window size (the RTL's [vreg_count]) *)
  frame_size : int;
}

type program = {
  fns : fn array;
  main : int;  (** index of [main], -1 if there is none *)
  fconst : float array;
  total_regs : int;  (** sum of [vreg_count]: the scoreboards' size *)
  globals : (int * Srclang.Tast.ginit option) list;  (** address, init *)
  globals_end : int;  (** first byte past the globals *)
}

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* Globals from [global_base] upward, 8-byte aligned.  Returns symbol id
   -> address, the placed globals and the end of the area. *)
let layout_globals (prog : Rtl.program) =
  let addr_of = Hashtbl.create 64 in
  let next = ref global_base in
  let placed =
    List.map
      (fun ((s : Srclang.Symbol.t), init) ->
        let size = max 8 (Srclang.Types.size_of s.Srclang.Symbol.ty) in
        let addr = !next in
        next := addr + ((size + 7) land lnot 7);
        if !next > stack_top then
          error "globals do not fit in memory: %s ends at 0x%x, the stack starts at 0x%x"
            s.Srclang.Symbol.name !next stack_top;
        Hashtbl.replace addr_of s.Srclang.Symbol.id addr;
        (addr, init))
      prog.Rtl.globals
  in
  (addr_of, placed, !next)

let no_srcs : int array = [||]

let blank =
  {
    op = End; dst = -1; dflt = false; ak = Imm; a = 0; bk = Imm; b = 0;
    target = -1; builtin = Unknown; arg_k = [||]; arg_x = [||]; name = "";
    mbase_k = Abs; mbase = 0;
    moff = 0; midx = -1; mscale = 0; msize = 0; mflt = false; uid = -1;
    spec = false; srcs = no_srcs; gdst = -1; unit_class = u_alu;
    lat_class = l_one; mem = false; is_load = false; is_store = false;
  }

(** Decode [prog].  Raises {!Runtime_error} when the globals do not fit
    below the stack, or on malformed RTL (a register or branch target
    out of range, a global that is not in [prog.globals]). *)
let program (prog : Rtl.program) : program =
  let addr_of, globals, globals_end = layout_globals prog in
  let fns = Array.of_list prog.Rtl.fns in
  (* register bases are keyed by name, as calls are *)
  let reg_base = Hashtbl.create 16 in
  let total =
    Array.fold_left
      (fun base (f : Rtl.fn) ->
        Hashtbl.replace reg_base f.Rtl.fname base;
        base + f.Rtl.vreg_count)
      0 fns
  in
  let fn_index = Hashtbl.create 16 in
  Array.iteri
    (fun k (f : Rtl.fn) ->
      if not (Hashtbl.mem fn_index f.Rtl.fname) then Hashtbl.add fn_index f.Rtl.fname k)
    fns;
  let fconst = ref [] and nconst = ref 0 in
  let decode_fn (f : Rtl.fn) =
    let rbase = Hashtbl.find reg_base f.Rtl.fname in
    let reg r =
      if r < 0 || r >= f.Rtl.vreg_count then
        error "register r%d out of range in %s" r f.Rtl.fname;
      r
    in
    let operand = function
      | Rtl.Reg r ->
          ((match f.Rtl.vreg_class.(reg r) with Rtl.Rint -> Ireg | Rtl.Rflt -> Freg), r)
      | Rtl.Imm n -> (Imm, n)
      | Rtl.Fimm x ->
          fconst := x :: !fconst;
          incr nconst;
          (Fimm, !nconst - 1)
    in
    (* label (index into [blocks]) -> index of its first instruction *)
    let nblocks = Array.length f.Rtl.blocks in
    let block_pc = Array.make nblocks 0 in
    for k = 1 to nblocks - 1 do
      block_pc.(k) <- block_pc.(k - 1) + List.length f.Rtl.blocks.(k - 1).Rtl.insns + 1
    done;
    let global (s : Srclang.Symbol.t) =
      match Hashtbl.find_opt addr_of s.Srclang.Symbol.id with
      | Some addr -> addr
      | None -> error "no address for global %s in %s" s.Srclang.Symbol.name f.Rtl.fname
    in
    let label l =
      if l < 0 || l >= Array.length block_pc then
        error "branch to missing block L%d in %s" l f.Rtl.fname;
      block_pc.(l)
    in
    let insn (i : Rtl.insn) =
      let srcs =
        match Rtl.uses i with
        | [] -> no_srcs
        | rs -> Array.of_list (List.map (fun r -> rbase + reg r) rs)
      in
      let d =
        {
          blank with
          uid = i.Rtl.uid;
          spec = i.Rtl.spec;
          srcs;
          gdst = (match Rtl.def i with Some r -> rbase + reg r | None -> -1);
          unit_class =
            (match i.Rtl.desc with
            | Rtl.Falu _ | Rtl.Cvt_i2f _ | Rtl.Cvt_f2i _ -> u_fpu
            | Rtl.Load _ | Rtl.Store _ -> u_mem
            | _ -> u_alu);
          lat_class = lat_class i;
          mem = Rtl.is_load i || Rtl.is_store i;
          is_load = Rtl.is_load i;
          is_store = Rtl.is_store i;
        }
      in
      let def d' r = { d' with dst = r; dflt = f.Rtl.vreg_class.(reg r) = Rtl.Rflt } in
      let ab d' x y =
        let ak, a = operand x and bk, b = operand y in
        { d' with ak; a; bk; b }
      in
      let with_mem d' (m : Rtl.mem) =
        let d' =
          {
            d' with
            moff = m.Rtl.moffset;
            midx = (match m.Rtl.mindex with Some r -> reg r | None -> -1);
            mscale = m.Rtl.mscale;
            msize = m.Rtl.msize;
            mflt = m.Rtl.mclass = Rtl.Rflt;
          }
        in
        match m.Rtl.mbase with
        | Rtl.Bsym s -> { d' with mbase_k = Abs; moff = global s + m.Rtl.moffset }
        | Rtl.Breg r -> { d' with mbase_k = Breg; mbase = reg r }
        | Rtl.Bframe -> { d' with mbase_k = Frame }
        | Rtl.Bargout -> { d' with mbase_k = Argout }
        | Rtl.Bargin -> { d' with mbase_k = Argin }
      in
      match i.Rtl.desc with
      | Rtl.Li (r, x) ->
          let ak, a = operand x in
          { (def d r) with op = Li; ak; a }
      | Rtl.Alu (o, r, x, y) -> { (ab (def d r) x y) with op = Alu o }
      | Rtl.Falu (o, r, x, y) -> { (ab (def d r) x y) with op = Falu o }
      | Rtl.La (r, s) -> { (def d r) with op = La; a = global s }
      | Rtl.Laf (r, off) -> { (def d r) with op = Laf; a = off }
      | Rtl.Load (r, m) -> { (with_mem (def d r) m) with op = Load }
      | Rtl.Store (m, v) ->
          let bk, b = operand v in
          { (with_mem { d with bk; b } m) with op = Store }
      | Rtl.Cvt_i2f (r, s) -> { d with op = Cvt_i2f; dst = reg r; a = reg s }
      | Rtl.Cvt_f2i (r, s) -> { d with op = Cvt_f2i; dst = reg r; a = reg s }
      | Rtl.Getarg (r, k) -> { (def d r) with op = Getarg; a = k }
      | Rtl.Call (callee, ops, dst) ->
          let ops = Array.of_list (List.map operand ops) in
          let d' =
            {
              d with
              op = Call;
              (* a function of the program shadows a builtin *)
              target = Option.value ~default:(-1) (Hashtbl.find_opt fn_index callee);
              builtin = builtin_of_name callee;
              arg_k = Array.map fst ops;
              arg_x = Array.map snd ops;
              name = callee;
            }
          in
          (match dst with Some r -> def d' r | None -> d')
      | Rtl.Br_eqz (r, l) -> { d with op = Br_eqz; a = reg r; target = label l }
      | Rtl.Br_nez (r, l) -> { d with op = Br_nez; a = reg r; target = label l }
      | Rtl.Jmp l -> { d with op = Jmp; target = label l }
      | Rtl.Ret None -> { d with op = Ret }
      | Rtl.Ret (Some x) ->
          let ak, a = operand x in
          { d with op = Ret; ak; a }
    in
    let code =
      Array.concat
        (List.concat_map
           (fun (b : Rtl.block) -> [ Array.of_list (List.map insn b.Rtl.insns); [| blank |] ])
           (Array.to_list f.Rtl.blocks))
    in
    {
      code;
      entry_pc = label f.Rtl.entry;
      nregs = f.Rtl.vreg_count;
      frame_size = f.Rtl.frame_size;
    }
  in
  let dfns = Array.map decode_fn fns in
  {
    fns = dfns;
    main = Option.value ~default:(-1) (Hashtbl.find_opt fn_index "main");
    fconst = Array.of_list (List.rev !fconst);
    total_regs = total;
    globals;
    globals_end;
  }
