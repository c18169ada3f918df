(** Seeded mini-C program generator with an independent reference model.

    A generated program is a list of functions over a few global [int]
    arrays and scalars: loop nests with affine subscripts, fat basic
    blocks full of array loads and stores, pointer parameters bound to
    (possibly the same) global arrays, and acyclic call chains with
    side effects.  Every value written to memory or to a local is masked
    with [& 4095], so each expression stays far below 2^31 and the model
    needs no overflow semantics: {!eval} computes the exact stdout the
    compiled program must print, without going through any part of the
    compiler under test.

    Shape (fixed, so every program carries about the same work):
    - 10 functions [f0..f9] plus [init] and [main];
    - each function body holds, in a seeded order, a loop over a fat
      block, a two-deep loop nest with a fat block at each level, a
      straight-line fat block, a two-armed [if] over two fat blocks, and
      (except in [f9]) one call to the next function, so [f0] starts a
      call chain through all ten;
      trip counts are constants drawn from 2 to 4;
    - a fat block holds 6 to 24 statements (uniform); a statement is an
      array store (6 in 8), a local or a global-scalar update whose
      expression has 1 to 4 terms of one or two leaves, half of the
      leaves array loads — about 3.5 memory references per statement on
      average, so a block carries about 50 on average and at most about
      200.  The DDG pair test is quadratic in that number;
    - the one call inside a loop, made by one function in four, goes to
      the call-free [f9]. *)

let arr_len = 64
let mask = 4095
let n_arrays = 6
let n_scalars = 3
let n_locals = 4

type arr = G of int  (** global array [a<k>] *) | P of int  (** pointer parameter [p<k>] *)

(** Subscript [ci*i + cj*j + c0], in bounds by construction. *)
type idx = { ci : int; cj : int; c0 : int }

type expr =
  | Const of int
  | Local of int
  | Ivar of int  (** 0 = [i], 1 = [j] *)
  | Gsc of int
  | Nparam
  | Ld of arr * idx
  | Bin of char * expr * expr  (** ['+'], ['-'], ['*'], ['^'], ['|'] *)

type stmt =
  | Set of int * expr  (** [t<k> = (e) & 4095;] *)
  | St of arr * idx * expr  (** [a[idx] = (e) & 4095;] *)
  | Gset of int * expr  (** [g<k> = (e) & 4095;] *)
  | Loop of int * int * stmt list  (** loop variable, trip count, body *)
  | If of expr * int * stmt list * stmt list  (** [if (((e) & 7) < k)] *)
  | Call of int * int * arr * arr * expr  (** [t<d> = f<k>(x, y, (e) & 4095);] *)

type func = { body : stmt list; ret : expr }

type program = {
  funcs : func array;  (** [f0..]; [f<k>] calls only [f<m>], [m > k] *)
  init : (int * int) array;  (** per array: [a<k>[i] = (i*x + y) & 4095] *)
  top : (arr * arr * expr) list;  (** calls [main] makes to [f0] and friends *)
}

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

(* Generator state: the RNG, plus one counter per structural choice.
   [strat g key m] walks 0..m-1 from a per-program random start, so each
   structural choice (statement kind, term count, leaf kind, pointer or
   global array, block size, trip count) has exactly its stated
   frequencies in every program and one pass's work stays steady from
   seed to seed; the values (constants, subscripts, which array, local
   or callee) are drawn freely. *)
type g = { rs : Random.State.t; counters : (string, int ref) Hashtbl.t }

let strat g key m =
  let c =
    match Hashtbl.find_opt g.counters key with
    | Some c -> c
    | None ->
        let c = ref (Random.State.int g.rs m) in
        Hashtbl.replace g.counters key c;
        c
  in
  let v = !c mod m in
  incr c;
  v

let rand g n = Random.State.int g.rs n
let range g lo hi = lo + rand g (hi - lo + 1)

(* [trips]: trip counts of the enclosing loops, outermost first *)
let gen_idx g trips =
  let coef k = if List.length trips > k then strat g "coef" 3 else 0 in
  let ci = coef 0 and cj = coef 1 in
  let tr k = if List.length trips > k then List.nth trips k - 1 else 0 in
  let hi = (ci * tr 0) + (cj * tr 1) in
  { ci; cj; c0 = range g 0 (arr_len - 1 - hi) }

let gen_arr g = if strat g "ptr" 3 = 0 then P (rand g 2) else G (rand g n_arrays)

let gen_leaf g trips ~mem =
  match if mem then strat g "leaf" 10 else strat g "leaf0" 6 with
  | 0 -> Const (rand g (mask + 1))
  | 1 -> Local (rand g n_locals)
  | 2 when trips <> [] -> Ivar (rand g (List.length trips))
  | 3 -> Gsc (rand g n_scalars)
  | 4 -> Nparam
  | _ -> Ld (gen_arr g, gen_idx g trips)

(* one to four terms, each a leaf or (one in three) a product of two *)
let gen_expr g trips ~mem =
  let term () =
    let l = gen_leaf g trips ~mem in
    if strat g "prod" 3 = 0 then Bin ('*', l, gen_leaf g trips ~mem) else l
  in
  let rec go e k =
    if k = 0 then e else go (Bin ("+-^|".[rand g 4], e, term ())) (k - 1)
  in
  go (term ()) (strat g "terms" 4)

let gen_simple g trips =
  match strat g "stmt" 8 with
  | 0 -> Set (rand g n_locals, gen_expr g trips ~mem:true)
  | 1 -> Gset (rand g n_scalars, gen_expr g trips ~mem:true)
  | _ -> St (gen_arr g, gen_idx g trips, gen_expr g trips ~mem:true)

(* block sizes 6..24, visited in the order 7k mod 19 *)
let gen_block g trips = List.init (6 + (7 * strat g "size" 19 mod 19)) (fun _ -> gen_simple g trips)

let gen_call g trips callee =
  Call (rand g n_locals, callee, gen_arr g, gen_arr g, gen_expr g trips ~mem:false)

(* a loop over a fat block; [nested]: an inner loop first; [leaf]: a
   call-free callee the body calls one time in four *)
let gen_loop g ~nested ~leaf =
  let trip () = 2 + strat g "trip" 3 in
  let t0 = trip () in
  if nested then
    let t1 = trip () in
    Loop (0, t0, [ Loop (1, t1, gen_block g [ t0; t1 ]) ] @ gen_block g [ t0 ])
  else
    let call =
      match leaf with
      | Some f when strat g "leafcall" 4 = 0 -> [ gen_call g [ t0 ] f ]
      | _ -> []
    in
    Loop (0, t0, gen_block g [ t0 ] @ call)

let shuffle g l = List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits g.rs, x)) l))

let n_funcs = 10

let generate rs : program =
  let g = { rs; counters = Hashtbl.create 16 } in
  let leaf = n_funcs - 1 in
  let funcs =
    Array.init n_funcs (fun k ->
        let groups =
          [
            [ gen_loop g ~nested:false ~leaf:(if k < leaf then Some leaf else None) ];
            [ gen_loop g ~nested:true ~leaf:None ];
            gen_block g [];
            [ If (gen_expr g [] ~mem:true, range g 1 6, gen_block g [], gen_block g []) ];
          ]
          @ if k < leaf then [ [ gen_call g [] (k + 1) ] ] else []
        in
        { body = List.concat (shuffle g groups); ret = gen_expr g [] ~mem:true })
  in
  let init = Array.init n_arrays (fun _ -> (range g 1 97, rand g (mask + 1))) in
  let top = List.init 3 (fun _ -> (G (rand g n_arrays), G (rand g n_arrays), Const (rand g (mask + 1)))) in
  { funcs; init; top }

(** [count] programs from [seed]: the same seed gives the same list. *)
let programs ~seed count =
  let rs = Random.State.make [| 0x48_4c_49; seed |] in
  List.init count (fun _ -> generate rs)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let arr_name = function G k -> Printf.sprintf "a%d" k | P k -> Printf.sprintf "p%d" k

let idx_str { ci; cj; c0 } =
  let t c v = if c = 0 then [] else if c = 1 then [ v ] else [ Printf.sprintf "%d * %s" c v ] in
  String.concat " + " (t ci "i" @ t cj "j" @ [ string_of_int c0 ])

let rec expr_str = function
  | Const c -> string_of_int c
  | Local k -> Printf.sprintf "t%d" k
  | Ivar 0 -> "i"
  | Ivar _ -> "j"
  | Gsc k -> Printf.sprintf "g%d" k
  | Nparam -> "n"
  | Ld (a, ix) -> Printf.sprintf "%s[%s]" (arr_name a) (idx_str ix)
  | Bin (op, a, b) -> Printf.sprintf "(%s %c %s)" (expr_str a) op (expr_str b)

let masked e = Printf.sprintf "(%s) & %d" (expr_str e) mask

let rec emit_stmt b ind s =
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (ind ^ l ^ "\n")) fmt in
  match s with
  | Set (k, e) -> line "t%d = %s;" k (masked e)
  | Gset (k, e) -> line "g%d = %s;" k (masked e)
  | St (a, ix, e) -> line "%s[%s] = %s;" (arr_name a) (idx_str ix) (masked e)
  | Loop (v, trip, body) ->
      let x = if v = 0 then "i" else "j" in
      line "for (%s = 0; %s < %d; %s++)" x x trip x;
      emit_block b ind body
  | If (e, k, a, c) ->
      line "if (((%s) & 7) < %d)" (expr_str e) k;
      emit_block b ind a;
      line "else";
      emit_block b ind c
  | Call (d, f, x, y, e) -> line "t%d = f%d(%s, %s, %s);" d f (arr_name x) (arr_name y) (masked e)

and emit_block b ind body =
  Buffer.add_string b (ind ^ "{\n");
  List.iter (emit_stmt b (ind ^ "  ")) body;
  Buffer.add_string b (ind ^ "}\n")

let decls b =
  Buffer.add_string b "  int i;\n  int j;\n";
  for k = 0 to n_locals - 1 do
    Buffer.add_string b (Printf.sprintf "  int t%d;\n" k)
  done;
  for k = 0 to n_locals - 1 do
    Buffer.add_string b (Printf.sprintf "  t%d = 0;\n" k)
  done

(** The program's mini-C source. *)
let to_source (p : program) =
  let b = Buffer.create 8192 in
  for k = 0 to n_arrays - 1 do
    Buffer.add_string b (Printf.sprintf "int a%d[%d];\n" k arr_len)
  done;
  for k = 0 to n_scalars - 1 do
    Buffer.add_string b (Printf.sprintf "int g%d;\n" k)
  done;
  Array.iteri
    (fun k f ->
      Buffer.add_string b (Printf.sprintf "\nint f%d(int *p0, int *p1, int n)\n{\n" k);
      decls b;
      List.iter (emit_stmt b "  ") f.body;
      Buffer.add_string b (Printf.sprintf "  return %s;\n}\n" (masked f.ret)))
    p.funcs;
  Buffer.add_string b "\nvoid init()\n{\n  int i;\n  for (i = 0; i < 64; i++)\n  {\n";
  Array.iteri
    (fun k (x, y) ->
      Buffer.add_string b (Printf.sprintf "    a%d[i] = (i * %d + %d) & %d;\n" k x y mask))
    p.init;
  Buffer.add_string b "  }\n}\n\nint main()\n{\n";
  decls b;
  Buffer.add_string b "  init();\n";
  List.iteri
    (fun k (x, y, e) ->
      Buffer.add_string b
        (Printf.sprintf "  t0 = f%d(%s, %s, %s);\n  print_int(t0);\n" (k mod 2) (arr_name x)
           (arr_name y) (masked e)))
    p.top;
  for k = 0 to n_arrays - 1 do
    Buffer.add_string b
      (Printf.sprintf
         "  t1 = 0;\n  for (i = 0; i < %d; i++)\n  {\n    t1 = (t1 * 31 + a%d[i]) & 1048575;\n  }\n  print_int(t1);\n"
         arr_len k)
  done;
  for k = 0 to n_scalars - 1 do
    Buffer.add_string b (Printf.sprintf "  print_int(g%d);\n" k)
  done;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Reference model                                                     *)
(* ------------------------------------------------------------------ *)

type frame = {
  binds : int array;  (** pointer parameter -> global array *)
  n : int;
  locals : int array;
  ivars : int array;
}

(** Evaluate [main]: the exact stdout the compiled program prints. *)
let eval (p : program) : string =
  let mem = Array.init n_arrays (fun _ -> Array.make arr_len 0) in
  let gsc = Array.make n_scalars 0 in
  let out = Buffer.create 256 in
  let resolve fr = function G k -> k | P k -> fr.binds.(k) in
  let sub fr { ci; cj; c0 } =
    let ix = (ci * fr.ivars.(0)) + (cj * fr.ivars.(1)) + c0 in
    if ix < 0 || ix >= arr_len then invalid_arg "Gen.eval: subscript out of bounds";
    ix
  in
  let rec ev fr = function
    | Const c -> c
    | Local k -> fr.locals.(k)
    | Ivar v -> fr.ivars.(v)
    | Gsc k -> gsc.(k)
    | Nparam -> fr.n
    | Ld (a, ix) -> mem.(resolve fr a).(sub fr ix)
    | Bin (op, a, b) -> (
        let x = ev fr a and y = ev fr b in
        match op with
        | '+' -> x + y
        | '-' -> x - y
        | '*' -> x * y
        | '^' -> x lxor y
        | _ -> x lor y)
  in
  let rec exec fr = function
    | Set (k, e) -> fr.locals.(k) <- ev fr e land mask
    | Gset (k, e) -> gsc.(k) <- ev fr e land mask
    | St (a, ix, e) ->
        let v = ev fr e land mask in
        mem.(resolve fr a).(sub fr ix) <- v
    | Loop (v, trip, body) ->
        for x = 0 to trip - 1 do
          fr.ivars.(v) <- x;
          List.iter (exec fr) body
        done;
        fr.ivars.(v) <- trip
    | If (e, k, a, b) -> List.iter (exec fr) (if ev fr e land 7 < k then a else b)
    | Call (d, f, x, y, e) ->
        let n = ev fr e land mask in
        fr.locals.(d) <- call f (resolve fr x) (resolve fr y) n
  and call f x y n =
    let fr = { binds = [| x; y |]; n; locals = Array.make n_locals 0; ivars = [| 0; 0 |] } in
    let fn = p.funcs.(f) in
    List.iter (exec fr) fn.body;
    ev fr fn.ret land mask
  in
  Array.iteri
    (fun k (x, y) -> Array.iteri (fun i _ -> mem.(k).(i) <- ((i * x) + y) land mask) mem.(k))
    p.init;
  let main = { binds = [| 0; 0 |]; n = 0; locals = Array.make n_locals 0; ivars = [| 0; 0 |] } in
  List.iteri
    (fun k (x, y, e) ->
      let r = call (k mod 2) (resolve main x) (resolve main y) (ev main e land mask) in
      Buffer.add_string out (string_of_int r ^ "\n"))
    p.top;
  Array.iter
    (fun a ->
      let s = Array.fold_left (fun s v -> ((s * 31) + v) land 1048575) 0 a in
      Buffer.add_string out (string_of_int s ^ "\n"))
    mem;
  Array.iter (fun g -> Buffer.add_string out (string_of_int g ^ "\n")) gsc;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)
(* ------------------------------------------------------------------ *)

(** A one-function edit: the [site]-th integer literal of [f<func>] of
    program [prog] becomes [value].  Literals never appear in subscripts,
    loop bounds or masks, so every edit keeps the program in bounds and
    changes no line count. *)
type edit = { prog : int; func : int; site : int; value : int }

let rec expr_consts = function
  | Const _ -> 1
  | Bin (_, a, b) -> expr_consts a + expr_consts b
  | Local _ | Ivar _ | Gsc _ | Nparam | Ld _ -> 0

let rec stmt_consts = function
  | Set (_, e) | Gset (_, e) | St (_, _, e) | Call (_, _, _, _, e) -> expr_consts e
  | Loop (_, _, b) -> List.fold_left (fun n s -> n + stmt_consts s) 0 b
  | If (e, _, a, b) ->
      List.fold_left (fun n s -> n + stmt_consts s) (expr_consts e) (a @ b)

let func_consts f = List.fold_left (fun n s -> n + stmt_consts s) (expr_consts f.ret) f.body

(** Infinite seeded edit stream over [progs], round-robin over the
    programs; [edits ~seed progs k] is the [k]-th edit. *)
let edits ~seed (progs : program list) : int -> edit =
  let progs = Array.of_list progs in
  let cache = Hashtbl.create 64 in
  let rs = Random.State.make [| 0x45_44_49_54; seed |] in
  let next = ref 0 in
  let rec get k =
    match Hashtbl.find_opt cache k with
    | Some e -> e
    | None ->
        while !next <= k do
          let prog = !next mod Array.length progs in
          let fs = progs.(prog).funcs in
          let editable = List.filter (fun f -> func_consts fs.(f) > 0) (List.init (Array.length fs) Fun.id) in
          let func = List.nth editable (Random.State.int rs (List.length editable)) in
          let e =
            { prog; func; site = Random.State.int rs (func_consts fs.(func)); value = Random.State.int rs (mask + 1) }
          in
          Hashtbl.replace cache !next e;
          incr next
        done;
        get k
  in
  get

let apply (p : program) (e : edit) : program =
  let n = ref e.site in
  let rec ex = function
    | Const c ->
        let c' = if !n = 0 then e.value else c in
        decr n;
        Const c'
    | Bin (op, a, b) ->
        let a = ex a in
        Bin (op, a, ex b)
    | (Local _ | Ivar _ | Gsc _ | Nparam | Ld _) as x -> x
  in
  let rec st = function
    | Set (k, x) -> Set (k, ex x)
    | Gset (k, x) -> Gset (k, ex x)
    | St (a, ix, x) -> St (a, ix, ex x)
    | Call (d, f, x, y, a) -> Call (d, f, x, y, ex a)
    | Loop (v, t, b) -> Loop (v, t, List.map st b)
    | If (x, k, a, b) ->
        let x = ex x in
        let a = List.map st a in
        If (x, k, a, List.map st b)
  in
  let f = p.funcs.(e.func) in
  let body = List.map st f.body in
  let funcs = Array.copy p.funcs in
  funcs.(e.func) <- { body; ret = ex f.ret };
  { p with funcs }
