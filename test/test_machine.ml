(* Tests for the machine library: functional execution semantics of the
   RTL interpreter, the cache model, and basic timing-model sanity. *)

let run_src ?(fuel = 50_000_000) src =
  let prog = Srclang.Typecheck.program_of_string src in
  let rtl = Backend.Lower.lower_program prog in
  Machine.Exec.run ~fuel rtl

let check_output name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let r = run_src src in
      Alcotest.(check string) name expected (String.trim r.Machine.Exec.output))

let exec_tests =
  [
    check_output "arith and precedence"
      "int main() { print_int(2 + 3 * 4 - 10 / 2); return 0; }" "9";
    check_output "division truncates"
      "int main() { print_int(7 / 2); print_int(-7 % 3); return 0; }" "3\n-1";
    check_output "float arithmetic"
      "int main() { print_double(1.5 * 4.0 + 0.25); return 0; }" "6.250000";
    check_output "conversions"
      "int main() { int n; double x; n = 7; x = n / 2; print_double(x); n = (int)(3.9); print_int(n); return 0; }"
      "3.000000\n3";
    check_output "while and if"
      "int main() { int i; int s; i = 0; s = 0; while (i < 10) { if (i % 2 == 0) { s += i; } i++; } print_int(s); return 0; }"
      "20";
    check_output "short circuit"
      {|
int g;
int bump() { g = g + 1; return 1; }
int main()
{
  int r;
  g = 0;
  r = 0 && bump();
  r = r + (1 || bump());
  print_int(r);
  print_int(g);
  return 0;
}
|}
      "1\n0";
    check_output "arrays and pointers"
      {|
int a[5];
int main()
{
  int i;
  int *p;
  for (i = 0; i < 5; i++) { a[i] = i * i; }
  p = a + 1;
  print_int(p[2] + *p + a[4]);
  return 0;
}
|}
      "26";
    check_output "2d arrays"
      {|
int m[3][4];
int main()
{
  int i;
  int j;
  for (i = 0; i < 3; i++) { for (j = 0; j < 4; j++) { m[i][j] = i * 10 + j; } }
  print_int(m[2][3]);
  print_int(m[0][1]);
  return 0;
}
|}
      "23\n1";
    check_output "address-taken local"
      {|
void set(int *p, int v) { *p = v; }
int main()
{
  int x;
  x = 1;
  set(&x, 42);
  print_int(x);
  return 0;
}
|}
      "42";
    check_output "recursion"
      {|
int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
int main() { print_int(fib(12)); return 0; }
|}
      "144";
    check_output "stack arguments (>4)"
      {|
int sum6(int a, int b, int c, int d, int e, int f)
{
  return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
}
int main() { print_int(sum6(1, 2, 3, 4, 5, 6)); return 0; }
|}
      "91";
    check_output "double stack arguments"
      {|
double mix(double a, double b, double c, double d, double e)
{
  return a + b + c + d + e * 10.0;
}
int main() { print_double(mix(1.0, 2.0, 3.0, 4.0, 0.5)); return 0; }
|}
      "15.000000";
    check_output "builtins"
      "int main() { print_double(sqrt(16.0)); print_double(fabs(0.0 - 2.5)); print_int(abs(-3)); return 0; }"
      "4.000000\n2.500000\n3";
    check_output "global initializers"
      "int a = 5;\ndouble b = -1.5;\nint main() { print_int(a); print_double(b); return 0; }"
      "5\n-1.500000";
    Alcotest.test_case "rand is deterministic" `Quick (fun () ->
        let src =
          "int main() { srand(7); print_int(rand() % 100); print_int(rand() % 100); return 0; }"
        in
        let r1 = run_src src and r2 = run_src src in
        Alcotest.(check string) "same" r1.Machine.Exec.output r2.Machine.Exec.output);
    Alcotest.test_case "out of fuel raises" `Quick (fun () ->
        match run_src ~fuel:1000 "int main() { while (1) { } return 0; }" with
        | exception Machine.Exec.Out_of_fuel -> ()
        | _ -> Alcotest.fail "did not time out");
    Alcotest.test_case "division by zero raises" `Quick (fun () ->
        match run_src "int main() { int z; z = 0; return 1 / z; }" with
        | exception Machine.Exec.Runtime_error _ -> ()
        | _ -> Alcotest.fail "no error");
    (* the stack grows down towards the globals; it used to be bounded
       by the start of the globals instead of their end, so deep
       recursion silently overwrote [big] (printing 20885) *)
    Alcotest.test_case "stack overflow stops at the globals" `Quick (fun () ->
        let src =
          {|
int big[7000000];
int rec(int n) { int a[16]; a[0] = n; if (n == 0) { return 0; } return rec(n - 1) + a[0]; }
int main() { big[6990000] = 7; rec(50000); print_int(big[6990000]); return 0; }
|}
        in
        match run_src src with
        | exception Machine.Exec.Runtime_error msg ->
            Alcotest.(check string) "message" "stack overflow" msg
        | r -> Alcotest.failf "no error; printed %S" r.Machine.Exec.output);
    (* globals larger than memory used to be accepted, with main's frame
       inside them: the stores below overwrote [loc] (printing 8387564) *)
    Alcotest.test_case "globals that do not fit are rejected" `Quick (fun () ->
        let src =
          {|
int huge[9000000];
int main() { int loc[4]; int i; loc[0] = 5; for (i = 8387000; i < 8387568; i++) { huge[i] = i; } print_int(loc[0]); return 0; }
|}
        in
        match run_src src with
        | exception Machine.Exec.Runtime_error msg ->
            Alcotest.(check string) "message" "globals do not fit"
              (String.sub msg 0 (min (String.length msg) 18))
        | r -> Alcotest.failf "no error; printed %S" r.Machine.Exec.output);
  ]

(* ------------------------------------------------------------------ *)
(* Cache model                                                         *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    Alcotest.test_case "repeat access hits" `Quick (fun () ->
        let c = Machine.Cache.r4600 () in
        let miss1 = Machine.Cache.access c 0x1000 in
        let hit = Machine.Cache.access c 0x1004 in
        Alcotest.(check bool) "first misses" true (miss1 > 0);
        Alcotest.(check int) "same line hits" 0 hit);
    Alcotest.test_case "capacity eviction" `Quick (fun () ->
        let c = Machine.Cache.r4600 () in
        ignore (Machine.Cache.access c 0);
        (* touch far more lines than 16KB can hold *)
        for k = 1 to 4096 do
          ignore (Machine.Cache.access c (k * 32))
        done;
        let again = Machine.Cache.access c 0 in
        Alcotest.(check bool) "evicted" true (again > 0));
    Alcotest.test_case "L2 catches L1 misses" `Quick (fun () ->
        let c = Machine.Cache.r10000 () in
        ignore (Machine.Cache.access c 0x2000);
        (* evict from L1 only: touch > 32KB of lines *)
        for k = 1 to 2048 do
          ignore (Machine.Cache.access c (0x10000 + (k * 32)))
        done;
        let lat = Machine.Cache.access c 0x2000 in
        Alcotest.(check int) "l2 hit penalty" c.Machine.Cache.l2_penalty lat);
    Alcotest.test_case "stats add up" `Quick (fun () ->
        let c = Machine.Cache.r4600 () in
        for k = 0 to 99 do
          ignore (Machine.Cache.access c (k * 4))
        done;
        let h, m = Machine.Cache.l1_stats c in
        Alcotest.(check int) "total" 100 (h + m));
  ]

(* ------------------------------------------------------------------ *)
(* Timing models                                                       *)
(* ------------------------------------------------------------------ *)

let timing_src =
  {|
double a[256];
int main()
{
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < 256; i++) { a[i] = i * 0.5; }
  for (i = 1; i < 256; i++) { s = s + a[i] * a[i-1]; }
  print_double(s);
  return 0;
}
|}

let timing_tests =
  [
    Alcotest.test_case "r4600 cycles >= instructions" `Quick (fun () ->
        let prog = Srclang.Typecheck.program_of_string timing_src in
        let rtl = Backend.Lower.lower_program prog in
        let r = Machine.Simulate.run Machine.Simulate.R4600 rtl in
        Alcotest.(check bool) "single issue" true
          (r.Machine.Simulate.cycles >= r.Machine.Simulate.dyn_insns));
    Alcotest.test_case "r10000 is faster than r4600" `Quick (fun () ->
        let prog = Srclang.Typecheck.program_of_string timing_src in
        let rtl = Backend.Lower.lower_program prog in
        let r1 = Machine.Simulate.run Machine.Simulate.R4600 rtl in
        let prog2 = Srclang.Typecheck.program_of_string timing_src in
        let rtl2 = Backend.Lower.lower_program prog2 in
        let r2 = Machine.Simulate.run Machine.Simulate.R10000 rtl2 in
        Alcotest.(check bool) "ooo wins" true
          (r2.Machine.Simulate.cycles < r1.Machine.Simulate.cycles);
        Alcotest.(check bool) "at least 1/width" true
          (r2.Machine.Simulate.cycles * 4 >= r2.Machine.Simulate.dyn_insns));
    Alcotest.test_case "both machines run the same program" `Quick (fun () ->
        let prog = Srclang.Typecheck.program_of_string timing_src in
        let rtl = Backend.Lower.lower_program prog in
        let r1 = Machine.Simulate.run Machine.Simulate.R4600 rtl in
        let prog2 = Srclang.Typecheck.program_of_string timing_src in
        let rtl2 = Backend.Lower.lower_program prog2 in
        let r2 = Machine.Simulate.run Machine.Simulate.R10000 rtl2 in
        Alcotest.(check string) "output" r1.Machine.Simulate.output
          r2.Machine.Simulate.output;
        Alcotest.(check int) "dyn insns" r1.Machine.Simulate.dyn_insns
          r2.Machine.Simulate.dyn_insns);
  ]

(* The decoded form's latency classes resolve to exactly
   [Machdesc.latency] on both machines, for every instruction of every
   workload (as lowered and as scheduled). *)
let decode_tests =
  [
    Alcotest.test_case "latency classes match Machdesc.latency" `Quick (fun () ->
        List.iter
          (fun (w : Workloads.Workload.t) ->
            let rtl =
              Backend.Lower.lower_program
                (Srclang.Typecheck.program_of_string w.Workloads.Workload.source)
            in
            List.iter
              (fun md ->
                let lat = Machine.Decode.latencies md in
                List.iter
                  (fun (f : Backend.Rtl.fn) ->
                    Array.iter
                      (fun (b : Backend.Rtl.block) ->
                        List.iter
                          (fun i ->
                            Alcotest.(check int)
                              (Fmt.str "%s %s: %a" md.Backend.Machdesc.name
                                 w.Workloads.Workload.name Backend.Rtl.pp_insn i)
                              (Backend.Machdesc.latency md i)
                              lat.(Machine.Decode.lat_class i))
                          b.Backend.Rtl.insns)
                      f.Backend.Rtl.blocks)
                  rtl.Backend.Rtl.fns)
              [ Backend.Machdesc.r4600; Backend.Machdesc.r10000 ])
          Workloads.Registry.all);
    (* the simulator's no-allocation invariant: a run allocates for its
       prints, never per executed instruction *)
    Alcotest.test_case "timing runs do not allocate per instruction" `Quick
      (fun () ->
        let src =
          {|
double a[256];
int main()
{
  int i;
  int k;
  double s;
  s = 0.0;
  for (k = 0; k < 40; k++) {
    for (i = 1; i < 256; i++) { a[i] = a[i - 1] * 0.5 + sqrt(i * 1.0); s = s + a[i]; }
  }
  print_double(s);
  return 0;
}
|}
        in
        let rtl =
          Backend.Lower.lower_program (Srclang.Typecheck.program_of_string src)
        in
        List.iter
          (fun (name, timing) ->
            let st = Machine.Exec.make rtl in
            let timing = timing st in
            let w0 = Gc.minor_words () in
            let r = Machine.Exec.exec ~timing st in
            let words = Gc.minor_words () -. w0 in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.0f words for %d instructions" name words
                 r.Machine.Exec.dyn_count)
              true
              (r.Machine.Exec.dyn_count > 100_000 && words < 1000.))
          [
            ("functional", fun _ -> Machine.Exec.Functional);
            ( "R4600",
              fun st ->
                Machine.Exec.In_order (Machine.Inorder.make ~regs:(Machine.Exec.regs st) ()) );
            ( "R10000",
              fun st ->
                Machine.Exec.Out_of_order (Machine.Ooo.make ~regs:(Machine.Exec.regs st) ()) );
          ]);
  ]

(* Regression: [Exec.run ~fuel:n] executes exactly [n] instructions
   before raising [Out_of_fuel] (the seed let n+1 slip through), and
   [fuel = 0] means unlimited. *)
let fuel_tests =
  let src =
    "int main() { int i; i = 0; while (i < 50) { i++; } print_int(i); return 0; }"
  in
  let fresh_rtl () =
    Backend.Lower.lower_program (Srclang.Typecheck.program_of_string src)
  in
  (* run under budget [n] with each timing model; the budget must trip,
     and each model must have been stepped exactly [n] times *)
  let check_trips n =
    let st = Machine.Exec.make ~fuel:n (fresh_rtl ()) in
    let m4 = Machine.Inorder.make ~regs:(Machine.Exec.regs st) () in
    let trips timing st =
      match Machine.Exec.exec ~timing st with
      | _ -> Alcotest.fail "expected Out_of_fuel"
      | exception Machine.Exec.Out_of_fuel -> ()
    in
    trips (Machine.Exec.In_order m4) st;
    Alcotest.(check int) (Printf.sprintf "fuel=%d: R4600 steps" n) n m4.Machine.Inorder.insns;
    let st = Machine.Exec.make ~fuel:n (fresh_rtl ()) in
    let m10 = Machine.Ooo.make ~regs:(Machine.Exec.regs st) () in
    trips (Machine.Exec.Out_of_order m10) st;
    Alcotest.(check int) (Printf.sprintf "fuel=%d: R10000 steps" n) n m10.Machine.Ooo.insns
  in
  [
    Alcotest.test_case "fuel = total completes" `Quick (fun () ->
        let total = (Machine.Exec.run (fresh_rtl ())).Machine.Exec.dyn_count in
        let r = Machine.Exec.run ~fuel:total (fresh_rtl ()) in
        Alcotest.(check int) "dyn_count" total r.Machine.Exec.dyn_count);
    Alcotest.test_case "fuel = n executes exactly n" `Quick (fun () ->
        let total = (Machine.Exec.run (fresh_rtl ())).Machine.Exec.dyn_count in
        check_trips (total - 1));
    Alcotest.test_case "tiny budgets trip precisely" `Quick (fun () ->
        List.iter check_trips [ 1; 2; 10 ]);
    Alcotest.test_case "fuel = 0 is unlimited" `Quick (fun () ->
        let r = Machine.Exec.run ~fuel:0 (fresh_rtl ()) in
        Alcotest.(check string) "output" "50"
          (String.trim r.Machine.Exec.output));
  ]

(* ------------------------------------------------------------------ *)
(* Speculative-load recovery (--speculate)                             *)
(* ------------------------------------------------------------------ *)

(* A hand-built function in the shape the scheduler emits under
   [--speculate]: a load hoisted above a store it may alias, with
   [Rtl.insn.spec] set and the load's uid greater than the store's
   (uid order is original program order).  The store's implicit check
   must re-load the destination register and count a misspeculation
   exactly when the addresses collide at run time. *)
let spec_rtl ?(nloads = 1) ~store_off ~overwrite () =
  let open Backend in
  let g =
    Srclang.Symbol.fresh ~name:"g"
      ~ty:(Srclang.Types.Tarray (Srclang.Types.Tint, 4))
      ~storage:Srclang.Symbol.Global
  in
  let mem off =
    {
      Rtl.mbase = Rtl.Bsym g;
      moffset = off;
      mindex = None;
      mscale = 1;
      msize = 4;
      mclass = Rtl.Rint;
    }
  in
  let insn ?(spec = false) uid desc =
    { Rtl.uid; desc; line = 0; item = None; spec }
  in
  let insns =
    [ insn 0 (Rtl.Store (mem 0, Rtl.Imm 1)) ]
    (* g[0]'s loads originally sat below the uid-2 store; the
       scheduler hoisted them here and flagged them speculative *)
    @ List.init nloads (fun k -> insn ~spec:true (3 + k) (Rtl.Load (1 + k, mem 0)))
    @ (if overwrite then [ insn 90 (Rtl.Li (1, Rtl.Imm 7)) ] else [])
    @ [
        insn 2 (Rtl.Store (mem store_off, Rtl.Imm 42));
        insn 4 (Rtl.Call ("print_int", [ Rtl.Reg 1 ], None));
      ]
    (* a tail long enough that the check's issue-stage stall (not the
       cold-cache miss on the first store) sets the final cycle count *)
    @ List.init 32 (fun k -> insn (100 + k) (Rtl.Li (0, Rtl.Imm k)))
    @ [ insn 5 (Rtl.Ret (Some (Rtl.Imm 0))) ]
  in
  let block = { Rtl.bid = 0; insns; succs = []; preds = [] } in
  {
    Rtl.fns =
      [
        {
          Rtl.fname = "main";
          params = [];
          ret_class = Some Rtl.Rint;
          blocks = [| block |];
          entry = 0;
          frame_size = 0;
          argout_size = 0;
          vreg_count = nloads + 1;
          vreg_class = Array.make (nloads + 1) Rtl.Rint;
          loops = [];
        };
      ];
    globals = [ (g, None) ];
  }

let speculation_tests =
  [
    Alcotest.test_case "colliding store recovers the load" `Quick (fun () ->
        let r = Machine.Exec.run (spec_rtl ~store_off:0 ~overwrite:false ()) in
        Alcotest.(check string)
          "recovered value" "42"
          (String.trim r.Machine.Exec.output);
        Alcotest.(check int) "misspeculations" 1 r.Machine.Exec.misspec);
    Alcotest.test_case "disjoint store leaves the load alone" `Quick (fun () ->
        let r = Machine.Exec.run (spec_rtl ~store_off:4 ~overwrite:false ()) in
        Alcotest.(check string)
          "speculated value" "1"
          (String.trim r.Machine.Exec.output);
        Alcotest.(check int) "misspeculations" 0 r.Machine.Exec.misspec);
    Alcotest.test_case "overwritten register prunes the check" `Quick (fun () ->
        (* once the destination register is redefined the speculative
           value is dead: no recovery may clobber the new definition *)
        let r = Machine.Exec.run (spec_rtl ~store_off:0 ~overwrite:true ()) in
        Alcotest.(check string)
          "redefined value" "7"
          (String.trim r.Machine.Exec.output);
        Alcotest.(check int) "misspeculations" 0 r.Machine.Exec.misspec);
    Alcotest.test_case "timing models surface the recovery count" `Quick
      (fun () ->
        List.iter
          (fun m ->
            (* several hoisted loads so the recovery window is longer
               than the cold-miss shadow of the first store — the
               penalty must show up in the cycle count, not just the
               counter *)
            let hit =
              Machine.Simulate.run m
                (spec_rtl ~nloads:8 ~store_off:0 ~overwrite:false ())
            in
            let miss =
              Machine.Simulate.run m
                (spec_rtl ~nloads:8 ~store_off:4 ~overwrite:false ())
            in
            Alcotest.(check int)
              (Machine.Simulate.machine_name m ^ " misspeculations")
              8 hit.Machine.Simulate.misspeculations;
            Alcotest.(check int)
              (Machine.Simulate.machine_name m ^ " clean run")
              0 miss.Machine.Simulate.misspeculations;
            (* exact cycle counts.  The R10000's follow from the LSQ
               rule: the first store (g[0], a cold miss: issue 0,
               complete 69, retire 69) gates all eight same-word loads,
               which issue from 70 on the one memory port and complete
               at 72..79.  The second store then issues at 78 and
               completes at 79.  Clean run: the ROB refills behind the
               loads' retirements and the Ret retires at 88.  Hit run:
               8 recoveries x 9 cycles restart dispatch at 79 + 72 =
               151, and the call plus 33 ALU instructions on two ALUs
               end with the Ret retiring at 168. *)
            Alcotest.(check (pair int int))
              (Machine.Simulate.machine_name m ^ " cycles (hit, clean)")
              (match m with
              | Machine.Simulate.R4600 -> (77, 45)
              | Machine.Simulate.R10000 -> (168, 88))
              (hit.Machine.Simulate.cycles, miss.Machine.Simulate.cycles);
            (* identical instruction streams: the penalty alone must
               separate the two runs *)
            Alcotest.(check bool)
              (Machine.Simulate.machine_name m ^ " penalty charged")
              true
              (hit.Machine.Simulate.cycles > miss.Machine.Simulate.cycles))
          [ Machine.Simulate.R4600; Machine.Simulate.R10000 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Paged memory                                                        *)
(* ------------------------------------------------------------------ *)

let empty_state () =
  Machine.Exec.make
    (Backend.Lower.lower_program
       (Srclang.Typecheck.program_of_string "int main() { return 0; }"))

let out_of_range name msg f =
  match f () with
  | exception Machine.Exec.Runtime_error m -> Alcotest.(check string) name msg m
  | _ -> Alcotest.failf "%s: no error" name

let memory_tests =
  let page = Machine.Exec.page_size in
  [
    Alcotest.test_case "accesses straddling a page boundary round-trip" `Quick
      (fun () ->
        let st = empty_state () in
        Machine.Exec.store_int st (page - 2) 0x12345678;
        Alcotest.(check int) "4-byte" 0x12345678 (Machine.Exec.load_int st (page - 2));
        (* the bytes landed on both sides: 78 56 | 34 12, little-endian *)
        Alcotest.(check int) "low page" 0x56780000 (Machine.Exec.load_int st (page - 4));
        Alcotest.(check int) "high page" 0x1234 (Machine.Exec.load_int st page);
        Machine.Exec.store_int st ((3 * page) - 1) (-5);
        Alcotest.(check int) "negative" (-5) (Machine.Exec.load_int st ((3 * page) - 1));
        List.iter
          (fun off ->
            let addr = (5 * page) - off in
            Machine.Exec.store_flt st addr (-3.25e10);
            Alcotest.(check (float 0.0))
              (Printf.sprintf "8-byte at page end - %d" off)
              (-3.25e10) (Machine.Exec.load_flt st addr))
          [ 1; 3; 7 ]);
    Alcotest.test_case "never-written pages read 0" `Quick (fun () ->
        let st = empty_state () in
        let addr = 20 * page + 12 in
        Alcotest.(check int) "int" 0 (Machine.Exec.load_int st addr);
        Alcotest.(check (float 0.0)) "double" 0.0 (Machine.Exec.load_flt st addr);
        Alcotest.(check (float 0.0))
          "straddling" 0.0
          (Machine.Exec.load_flt st ((21 * page) - 4));
        (* a store gives only its own page a buffer: the shared zero
           page stays zero, in this state and in the next one *)
        Machine.Exec.store_int st addr 99;
        Machine.Exec.store_flt st ((22 * page) - 4) 1.5;
        Alcotest.(check int) "other page" 0 (Machine.Exec.load_int st (addr + page));
        let st' = empty_state () in
        Alcotest.(check int) "fresh state" 0 (Machine.Exec.load_int st' addr);
        Alcotest.(check (float 0.0))
          "fresh state, straddling" 0.0
          (Machine.Exec.load_flt st' ((22 * page) - 4)));
    Alcotest.test_case "out-of-range accesses raise as before" `Quick (fun () ->
        let st = empty_state () in
        let top = Machine.Decode.mem_size in
        out_of_range "load past the end" "address out of range: 0x1fffffe" (fun () ->
            Machine.Exec.load_int st (top - 2));
        out_of_range "store past the end" "address out of range: 0x1fffffc" (fun () ->
            Machine.Exec.store_flt st (top - 4) 1.0);
        out_of_range "negative" "address out of range: 0x7ffffffffffffff8" (fun () ->
            Machine.Exec.store_int st (-8) 1);
        Machine.Exec.store_flt st (top - 8) 2.0;
        Alcotest.(check (float 0.0)) "last word" 2.0 (Machine.Exec.load_flt st (top - 8)));
    Alcotest.test_case "make allocates only what the run touches" `Quick
      (fun () ->
        List.iter
          (fun (w : Workloads.Workload.t) ->
            let rtl =
              Backend.Lower.lower_program
                (Srclang.Typecheck.program_of_string w.Workloads.Workload.source)
            in
            let b0 = Gc.allocated_bytes () in
            ignore (Machine.Exec.make rtl);
            let bytes = Gc.allocated_bytes () -. b0 in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.0f bytes" w.Workloads.Workload.name bytes)
              true (bytes < 1e6))
          Workloads.Registry.all);
  ]

let () =
  Alcotest.run "machine"
    [
      ("exec", exec_tests);
      ("cache", cache_tests);
      ("timing", timing_tests);
      ("decode", decode_tests);
      ("fuel", fuel_tests);
      ("speculation", speculation_tests);
      ("memory", memory_tests);
    ]
