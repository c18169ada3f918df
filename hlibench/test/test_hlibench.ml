(* Tests of the benchmark's own parts: generator determinism, model
   agreement with the compiled programs, edit line-neutrality, and span
   self-time accounting. *)

open Hlibench

let sources ~seed n = List.map Gen.to_source (Gen.programs ~seed n)

let edit_list ~seed progs n =
  let e = Gen.edits ~seed progs in
  List.init n e

let test_determinism () =
  let a = sources ~seed:5 4 and b = sources ~seed:5 4 in
  Alcotest.(check (list string)) "same seed, same programs" a b;
  Alcotest.(check bool) "other seed, other programs" true (a <> sources ~seed:6 4);
  let progs = Gen.programs ~seed:5 4 in
  Alcotest.(check bool)
    "same seed, same edits" true
    (edit_list ~seed:5 progs 40 = edit_list ~seed:5 (Gen.programs ~seed:5 4) 40);
  Alcotest.(check bool) "other seed, other edits" true (edit_list ~seed:5 progs 40 <> edit_list ~seed:6 progs 40)

let lines s = String.split_on_char '\n' s

let test_edits_line_neutral () =
  let progs = Gen.programs ~seed:9 3 in
  let edit_of = Gen.edits ~seed:9 progs in
  let cur = Array.of_list progs in
  for k = 0 to 29 do
    let e = edit_of k in
    let before = Gen.to_source cur.(e.Gen.prog) in
    let p = Gen.apply cur.(e.Gen.prog) e in
    cur.(e.Gen.prog) <- p;
    let after = Gen.to_source p in
    let lb = lines before and la = lines after in
    Alcotest.(check int) "line count kept" (List.length lb) (List.length la);
    Alcotest.(check bool) "at most one line changed" true
      (List.length (List.filter Fun.id (List.map2 ( <> ) lb la)) <= 1);
    ignore (Gen.eval p)
  done

(* every generated program compiles through all four variants and prints
   exactly what the reference model computes *)
let test_model_agrees () =
  List.iter
    (fun (it : Bench.item) ->
      let o, _, _, _ = Bench.compile_measure ~pool:None ~config:Bench.gen_config it.Bench.src in
      Alcotest.(check int) "four variants" 4 (List.length o.Bench.reports);
      match Bench.check_outcome it o with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    (Bench.gen_items (Gen.programs ~seed:3 3))

let span ~id ~parent name t0 t1 =
  { Trace.id; name; tag = ""; parent; run = 0; t0 = Int64.of_int t0; t1 = Int64.of_int t1 }

let test_self_times_synthetic () =
  (* root 0..100 with two overlapping children 10..50 and 30..70 and a
     grandchild 20..40: covered = 10..70 *)
  let spans =
    [ span ~id:0 ~parent:(-1) "r" 0 100; span ~id:1 ~parent:0 "a" 10 50; span ~id:2 ~parent:0 "b" 30 70;
      span ~id:3 ~parent:1 "c" 20 40 ]
  in
  let self = List.map (fun ((s : Trace.span), ns) -> (s.Trace.name, Int64.to_int ns)) (Trace.self_times spans) in
  Alcotest.(check (list (pair string int))) "self times" [ ("r", 40); ("a", 20); ("b", 40); ("c", 20) ] self

(* sequentially nested spans: the self times of a run's spans add up to
   its root span's duration *)
let test_self_times_add_up () =
  let tr = Trace.create () in
  let it = List.hd (Bench.gen_items (Gen.programs ~seed:4 1)) in
  let o, _, _ = Bench.traced_compile_measure tr ~pool:None ~config:Bench.gen_config ~run_id:0 it.Bench.src in
  (match Bench.check_outcome it o with Ok () -> () | Error msg -> Alcotest.fail msg);
  let spans = Trace.spans tr in
  let root = List.find (fun (s : Trace.span) -> s.Trace.parent = -1) spans in
  let total = List.fold_left (fun a (_, ns) -> Int64.add a ns) 0L (Trace.self_times spans) in
  Alcotest.(check int64) "sum of self times = root duration" (Trace.dur_ns root) total;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded") true (List.exists (fun (s : Trace.span) -> s.Trace.name = name) spans))
    [ "harness.compile"; "frontend.parse_typecheck"; "hligen.tblconst"; "backend.ddg_schedule"; "machine.simulate" ]

(* the traced edit path is the program's own front end: its cache
   counters are Pipeline's, its HLI equals a cold front end's, and its
   child spans (the front end's telemetry, laid end to end) fit inside
   the parent, so self times add up *)
let test_traced_frontend () =
  let dir = Printf.sprintf "hlibench-test-%d" (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> Bench.rm_rf dir)
    (fun () ->
      let p = List.hd (Gen.programs ~seed:7 1) in
      let config = Bench.with_cache dir in
      let nfuncs = Array.length p.Gen.funcs + 2 in
      let run k src =
        let tr = Trace.create () in
        let h, tm = Bench.traced_frontend tr ~config ~run_id:k src in
        let cold = Harness.Pipeline.frontend ~config:Bench.no_cache src in
        Alcotest.(check bool) "HLI = cold front end" true
          (Bench.entries_bytes h.Driver.Pass.h_entries = Bench.entries_bytes cold.Driver.Pass.h_entries);
        let spans = Trace.spans tr in
        let root = List.find (fun (s : Trace.span) -> s.Trace.parent = -1) spans in
        let total = List.fold_left (fun a (_, ns) -> Int64.add a ns) 0L (Trace.self_times spans) in
        Alcotest.(check int64) "sum of self times = root duration" (Trace.dur_ns root) total;
        List.iter
          (fun (s : Trace.span) ->
            Alcotest.(check bool) (s.Trace.name ^ " inside its parent") true
              (s.Trace.t0 >= root.Trace.t0 && s.Trace.t1 <= root.Trace.t1))
          spans;
        (Harness.Telemetry.counter tm "hli_cache_hits", Harness.Telemetry.counter tm "hli_cache_misses")
      in
      Alcotest.(check (pair int int)) "cold: every function misses" (0, nfuncs) (run 0 (Gen.to_source p));
      Alcotest.(check (pair int int)) "warm: every function hits" (nfuncs, 0) (run 1 (Gen.to_source p));
      let e = Gen.edits ~seed:7 [ p ] 0 in
      Alcotest.(check (pair int int)) "one edit: one miss" (nfuncs - 1, 1) (run 2 (Gen.to_source (Gen.apply p e))))

let () =
  Alcotest.run "hlibench"
    [
      ( "generator",
        [
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "edits are line-neutral" `Quick test_edits_line_neutral;
          Alcotest.test_case "compiled output = model" `Quick test_model_agrees;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self times, overlapping children" `Quick test_self_times_synthetic;
          Alcotest.test_case "self times add up" `Quick test_self_times_add_up;
          Alcotest.test_case "traced edit front end" `Quick test_traced_frontend;
        ] );
    ]
