(* Tests for the optimization passes: CSE (Figure 4), LICM, unrolling
   (Figure 6) — both their effect and their semantic safety. *)

let cse_src =
  {|
double coeff[4];
double buf[64];

void bump(double *d)
{
  d[0] = d[0] + 1.0;
}

double work()
{
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < 64; i++)
  {
    s = s + coeff[0] * coeff[1];
    bump(buf);
    s = s + coeff[0] * coeff[1];
  }
  return s;
}

int main()
{
  int i;
  coeff[0] = 2.0;
  coeff[1] = 3.0;
  for (i = 0; i < 64; i++) { buf[i] = 0.0; }
  print_double(work());
  print_double(buf[0]);
  return 0;
}
|}

let setup src =
  let prog = Srclang.Typecheck.program_of_string src in
  let entries = Harness.Pipeline.build_hli_entries prog in
  (prog, entries)

let lower_with_maps prog entries =
  let rtl = Backend.Lower.lower_program prog in
  let maps =
    List.filter_map
      (fun (e : Hli_core.Tables.hli_entry) ->
        Option.map
          (fun fn -> (e.Hli_core.Tables.unit_name, (e, Backend.Hli_import.map_unit e fn)))
          (Backend.Rtl.find_fn rtl e.Hli_core.Tables.unit_name))
      entries
  in
  (rtl, maps)

let cse_tests =
  [
    Alcotest.test_case "HLI lets loads survive calls" `Quick (fun () ->
        let prog, entries = setup cse_src in
        let run use_hli =
          let rtl, maps = lower_with_maps prog entries in
          let total = Backend.Cse.fresh_stats () in
          List.iter
            (fun fn ->
              let _, m = List.assoc fn.Backend.Rtl.fname maps in
              let hli = if use_hli then Some m else None in
              let s = Backend.Cse.run_fn ?hli fn in
              total.Backend.Cse.loads_eliminated <-
                total.Backend.Cse.loads_eliminated + s.Backend.Cse.loads_eliminated)
            rtl.Backend.Rtl.fns;
          (rtl, total.Backend.Cse.loads_eliminated)
        in
        let rtl_gcc, loads_gcc = run false in
        let rtl_hli, loads_hli = run true in
        Alcotest.(check bool) "more loads eliminated with HLI" true
          (loads_hli > loads_gcc);
        let r1 = Machine.Exec.run rtl_gcc in
        let r2 = Machine.Exec.run rtl_hli in
        Alcotest.(check string) "same output" r1.Machine.Exec.output
          r2.Machine.Exec.output);
    Alcotest.test_case "CSE deletes HLI items via maintenance" `Quick (fun () ->
        let prog, entries = setup cse_src in
        let rtl, maps = lower_with_maps prog entries in
        let fn = Option.get (Backend.Rtl.find_fn rtl "work") in
        let entry, m = List.assoc "work" maps in
        let before = List.length (Hli_core.Tables.all_items entry) in
        let mt = Hli_core.Maintain.start entry in
        let s =
          Backend.Cse.run_fn ~hli:m
            ~maintain:(Backend.Hli_import.local_maint mt)
            fn
        in
        let entry', _ = Hli_core.Maintain.commit mt in
        let after = List.length (Hli_core.Tables.all_items entry') in
        Alcotest.(check int) "items deleted"
          (before - s.Backend.Cse.loads_eliminated)
          after);
  ]

let licm_src =
  {|
double table[16];
double out[512];

void sweep(double *dst, double *t, int n)
{
  int i;
  for (i = 0; i < n; i++)
  {
    dst[i] = t[3] * 2.0 + t[5] + i * 0.5;
  }
}

int main()
{
  int i;
  double s;
  for (i = 0; i < 16; i++) { table[i] = 1.0 + i; }
  sweep(out, table, 512);
  s = 0.0;
  for (i = 0; i < 512; i++) { s = s + out[i]; }
  print_double(s);
  return 0;
}
|}

let licm_tests =
  [
    Alcotest.test_case "invariant loads hoist with HLI" `Quick (fun () ->
        let prog, entries = setup licm_src in
        let run use_hli =
          let rtl, maps = lower_with_maps prog entries in
          let hoisted = ref 0 in
          List.iter
            (fun fn ->
              let _, m = List.assoc fn.Backend.Rtl.fname maps in
              let hli = if use_hli then Some m else None in
              let s = Backend.Licm.run_fn ?hli fn in
              hoisted := !hoisted + s.Backend.Licm.hoisted_loads)
            rtl.Backend.Rtl.fns;
          (rtl, !hoisted)
        in
        let rtl_gcc, h_gcc = run false in
        let rtl_hli, h_hli = run true in
        (* the t[3]/t[5] loads hoist in both modes here (stores go to a
           provably different pointer only under HLI; without HLI the
           Breg-vs-Breg conflict pins them) *)
        Alcotest.(check bool) "hli hoists more or equal" true (h_hli >= h_gcc);
        Alcotest.(check bool) "hli hoists something" true (h_hli > 0);
        let r1 = Machine.Exec.run rtl_gcc in
        let r2 = Machine.Exec.run rtl_hli in
        Alcotest.(check string) "same output" r1.Machine.Exec.output
          r2.Machine.Exec.output;
        Alcotest.(check bool) "fewer dynamic instructions" true
          (r2.Machine.Exec.dyn_count <= r1.Machine.Exec.dyn_count));
  ]

let unroll_src =
  {|
double v[128];

int main()
{
  int i;
  double s;
  for (i = 0; i < 128; i++)
  {
    v[i] = 0.5 * i;
  }
  s = 0.0;
  for (i = 0; i < 128; i++)
  {
    s = s + v[i] * 1.5;
  }
  print_double(s);
  return 0;
}
|}

let unroll_tests =
  [
    Alcotest.test_case "unroll preserves semantics, cuts overhead" `Quick
      (fun () ->
        let prog, _ = setup unroll_src in
        let rtl0 = Backend.Lower.lower_program prog in
        let base = Machine.Exec.run rtl0 in
        let rtl = Backend.Lower.lower_program prog in
        let stats = ref 0 in
        let fns =
          List.map
            (fun fn ->
              let s = Backend.Unroll.run_fn ~factor:4 fn in
              stats := !stats + s.Backend.Unroll.unrolled;
              Backend.Unroll.refresh fn)
            rtl.Backend.Rtl.fns
        in
        let rtl = { rtl with Backend.Rtl.fns = fns } in
        Alcotest.(check bool) "unrolled some loops" true (!stats >= 2);
        let r = Machine.Exec.run rtl in
        Alcotest.(check string) "same output" base.Machine.Exec.output
          r.Machine.Exec.output;
        Alcotest.(check bool) "fewer dynamic instructions" true
          (r.Machine.Exec.dyn_count < base.Machine.Exec.dyn_count));
    Alcotest.test_case "accumulator chains survive unrolling" `Quick (fun () ->
        (* the s += ... reduction is the loop-carried case the renamer
           must not break *)
        let prog, _ = setup unroll_src in
        let rtl = Backend.Lower.lower_program prog in
        let fns =
          List.map
            (fun fn ->
              ignore (Backend.Unroll.run_fn ~factor:2 fn);
              Backend.Unroll.refresh fn)
            rtl.Backend.Rtl.fns
        in
        let rtl = { rtl with Backend.Rtl.fns = fns } in
        let r = Machine.Exec.run rtl in
        Alcotest.(check string) "sum" "6096.000000"
          (String.trim r.Machine.Exec.output));
    Alcotest.test_case "non-dividing trip counts left alone" `Quick (fun () ->
        let src =
          "int a[7];\nint main() { int i; int s; s = 0; for (i = 0; i < 7; i++) { a[i] = i; s = s + a[i]; } print_int(s); return 0; }"
        in
        let prog, _ = setup src in
        let rtl = Backend.Lower.lower_program prog in
        let total = ref 0 in
        List.iter
          (fun fn ->
            let s = Backend.Unroll.run_fn ~factor:4 fn in
            total := !total + s.Backend.Unroll.unrolled)
          rtl.Backend.Rtl.fns;
        Alcotest.(check int) "nothing unrolled" 0 !total;
        let r = Machine.Exec.run rtl in
        Alcotest.(check string) "21" "21" (String.trim r.Machine.Exec.output));
    Alcotest.test_case "registers live after the loop keep the last copy" `Quick
      (fun () ->
        (* [t] is not loop-carried (defined before any use in the body)
           but is read after the loop: renaming its copies left copy 0's
           value (0) in it instead of the last iteration's (3) *)
        let src =
          "int g1; int main(){int i;int t;t=0;for(i=0;i<4;i++){g1=i;t=g1;} print_int(t);return 0;}"
        in
        let prog, _ = setup src in
        let rtl = Backend.Lower.lower_program prog in
        let total = ref 0 in
        let fns =
          List.map
            (fun fn ->
              let s = Backend.Unroll.run_fn ~factor:4 fn in
              total := !total + s.Backend.Unroll.unrolled;
              Backend.Unroll.refresh fn)
            rtl.Backend.Rtl.fns
        in
        Alcotest.(check int) "unrolled" 1 !total;
        let r = Machine.Exec.run { rtl with Backend.Rtl.fns = fns } in
        Alcotest.(check string) "t" "3" (String.trim r.Machine.Exec.output));
  ]

(* whole-pipeline semantic preservation with all passes on, over a few
   workloads (the full set runs in test_workloads) *)
let integration_tests =
  List.map
    (fun name ->
      Alcotest.test_case ("passes preserve " ^ name) `Slow (fun () ->
          let w = Option.get (Workloads.Registry.find name) in
          let config = Harness.Pipeline.config_of_passes "cse,licm,unroll=2" in
          let c = Harness.Pipeline.compile ~config w.Workloads.Workload.source in
          let r1 = Machine.Exec.run (Harness.Pipeline.rtl_gcc_r4600 c) in
          let r2 = Machine.Exec.run (Harness.Pipeline.rtl_hli_r10000 c) in
          Alcotest.(check string) "output" r1.Machine.Exec.output
            r2.Machine.Exec.output))
    [ "101.tomcatv"; "129.compress"; "048.ora" ]

(* [Pipeline.compile] runs the back end's prefix once per alias mode
   and schedules both machines from it; each variant must come out
   exactly as a back end run for that variant alone, and the two
   machines' programs must share no block or instruction record. *)
let render_rtl (p : Backend.Rtl.program) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (f : Backend.Rtl.fn) ->
      Buffer.add_string b (Fmt.str "fn %s %d\n" f.Backend.Rtl.fname f.Backend.Rtl.vreg_count);
      Array.iter
        (fun (bl : Backend.Rtl.block) ->
          Buffer.add_string b
            (Fmt.str "L%d succs=%a preds=%a\n" bl.Backend.Rtl.bid
               Fmt.(list ~sep:(any ",") int) bl.Backend.Rtl.succs
               Fmt.(list ~sep:(any ",") int) bl.Backend.Rtl.preds);
          List.iter
            (fun (i : Backend.Rtl.insn) ->
              Buffer.add_string b
                (Fmt.str "  %d: %a\n" i.Backend.Rtl.uid Backend.Rtl.pp_insn i))
            bl.Backend.Rtl.insns)
        f.Backend.Rtl.blocks)
    p.Backend.Rtl.fns;
  Buffer.contents b

(* flag every instruction and empty every block of [p] *)
let clobber (p : Backend.Rtl.program) =
  List.iter
    (fun (f : Backend.Rtl.fn) ->
      Array.iter
        (fun (bl : Backend.Rtl.block) ->
          List.iter
            (fun (i : Backend.Rtl.insn) ->
              i.Backend.Rtl.spec <- true;
              i.Backend.Rtl.item <- Some (-1))
            bl.Backend.Rtl.insns;
          bl.Backend.Rtl.insns <- [])
        f.Backend.Rtl.blocks)
    p.Backend.Rtl.fns

let sharing_tests =
  let passes = "cse,licm,unroll=4" in
  let configs =
    [
      ("baseline", Driver.Variant.baseline);
      ("hli-only", Option.get (Driver.Variant.find_ablation "hli-only"));
      ("speculate=750", Driver.Variant.with_speculate 750 Driver.Variant.baseline);
    ]
  in
  List.map
    (fun (cname, ablation) ->
      Alcotest.test_case ("prefix sharing, " ^ cname) `Slow (fun () ->
          let config = Harness.Pipeline.config_of_passes ~ablation passes in
          List.iter
            (fun (w : Workloads.Workload.t) ->
              let src = w.Workloads.Workload.source in
              let c = Harness.Pipeline.compile ~config src in
              let h = Harness.Pipeline.frontend ~config src in
              List.iter
                (fun v ->
                  let what = w.Workloads.Workload.name ^ " " ^ Driver.Variant.name v in
                  let shared = Harness.Pipeline.scheduled_of c v in
                  let alone =
                    Driver.Pass_manager.run_backend
                      (Driver.Pass.ctx ~variant:v ~ablation ())
                      config.Harness.Pipeline.specs h
                  in
                  Alcotest.(check string)
                    (what ^ " rtl")
                    (render_rtl alone.Driver.Pass.s_rtl)
                    (render_rtl shared.Driver.Pass.s_rtl);
                  Alcotest.(check bool)
                    (what ^ " ddg stats") true
                    (alone.Driver.Pass.s_stats = shared.Driver.Pass.s_stats);
                  Alcotest.(check bool)
                    (what ^ " notes and mapping counts") true
                    (alone.Driver.Pass.s_notes = shared.Driver.Pass.s_notes
                    && alone.Driver.Pass.s_unmapped = shared.Driver.Pass.s_unmapped
                    && alone.Driver.Pass.s_duplicates = shared.Driver.Pass.s_duplicates
                    && alone.Driver.Pass.s_dropped = shared.Driver.Pass.s_dropped))
                Driver.Variant.matrix;
              List.iter
                (fun alias ->
                  let rtl machine =
                    Harness.Pipeline.rtl_of c { Driver.Variant.alias; machine }
                  in
                  let r4600 = rtl Driver.Variant.R4600
                  and r10000 = rtl Driver.Variant.R10000 in
                  let what =
                    w.Workloads.Workload.name ^ " " ^ Driver.Variant.alias_name alias
                  in
                  let before = render_rtl r10000 in
                  clobber r4600;
                  Alcotest.(check string) (what ^ ": r10000 untouched") before
                    (render_rtl r10000);
                  let before = render_rtl r4600 in
                  clobber r10000;
                  Alcotest.(check string) (what ^ ": r4600 untouched") before
                    (render_rtl r4600))
                Driver.Variant.aliases)
            Workloads.Registry.all))
    configs

let () =
  Alcotest.run "passes"
    [
      ("cse", cse_tests);
      ("licm", licm_tests);
      ("unroll", unroll_tests);
      ("integration", integration_tests);
      ("sharing", sharing_tests);
    ]
