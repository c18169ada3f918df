(* The repository benchmark.

     hlibench/run.sh --workload paper-sim|gen-compile|edit-hli \
       --seed N --seconds S --trace 0|1

   prints a human-readable report, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics of a separate traced pass with
   --trace 1.  Exits 1 when any output check failed, 2 on bad usage. *)

open Harness
open Hlibench
open Bench

let workloads = [ "paper-sim"; "gen-compile"; "edit-hli" ]

(* programs per pass for the generated workloads *)
let gen_programs = 6

(* pool domains.  paper-sim simulates its four variants two at a time,
   which halves a pass (about 13 s instead of 24 s); the generated
   workloads run on one domain, whose timings drift less on a shared
   host than those of two domains that wait for each other *)
let paper_jobs = 2
let gen_jobs = 1

(* edit-hli times at least this many edits, so that more than ten lie
   beyond p90 *)
let min_edits = 120

(* the traced edit-hli pass makes this many edits per program *)
let traced_edit_rounds = 5

let workdir = ".hlibench"
let reference = Filename.concat "hlibench" "paper_sim.ref"

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
}

let parse_args () =
  let a = { workload = ""; seed = 1; seconds = 10.0; trace = false } in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> a.workload <- s), " " ^ String.concat "|" workloads);
      ("--seed", Arg.Int (fun n -> a.seed <- n), "N input seed");
      ("--seconds", Arg.Float (fun s -> a.seconds <- s), "S length of the measured loop");
      ("--trace", Arg.Int (fun n -> a.trace <- n <> 0), "0|1 report per-layer metrics of a traced pass");
    ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "hlibench --workload NAME --seed N --seconds S --trace 0|1";
  a

(* Set-ups, each timed from a collected heap.  [setup_repeats] run
   before the loop, and the last one's result is returned.  The returned
   [between] runs [again] (by default one more set-up) after an
   operation of the loop whenever set-ups have had less than
   [setup_share] of the loop's time so far: the samples then spread
   over the whole run, as the operations' do, and their median follows
   the host's speed over the run, not over its first seconds *)
let setup_sampler run ?again f =
  let once f =
    Gc.full_major ();
    let x, ns = timed f in
    run.setup_s <- secs ns :: run.setup_s;
    (x, secs ns)
  in
  let x = List.hd (List.rev (List.init setup_repeats (fun _ -> fst (once f)))) in
  let again = Option.value again ~default:(fun () -> ignore (f ())) in
  let t0 = now () and spent = ref 0.0 in
  let between () =
    if !spent < setup_share *. secs (Int64.sub (now ()) t0) then spent := !spent +. snd (once again)
  in
  (x, between)

(* the first outcome of every item that produced one (a failed item is
   already counted in [failed]) *)
let exact_of run n = List.filter_map (Hashtbl.find_opt run.first) (List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Traced passes                                                       *)
(* ------------------------------------------------------------------ *)

(* one traced compile + measure per item; outcomes must equal the
   untraced pass's exactly *)
let traced_compile_pass run tr ~pool ~(config : Pipeline.config) (items : item array) =
  let outcomes = ref [] and compiled = ref [] and built = ref 0 and bytes = ref 0 and alloc = ref 0.0 in
  let c0 = snapshot () in
  Array.iteri
    (fun i it ->
      guarded run ("traced " ^ it.name) (fun () ->
          let a0 = allocated_mb () in
          let o, h, variants = traced_compile_measure tr ~pool ~config ~run_id:i it.src in
          alloc := !alloc +. allocated_mb () -. a0;
          outcomes := o :: !outcomes;
          compiled := (i, h, variants) :: !compiled;
          built := !built + List.length h.Driver.Pass.h_prog.Srclang.Tast.funcs;
          bytes := !bytes + h.Driver.Pass.h_bytes;
          Result.bind (check_outcome it o) (fun () ->
              if exact_key o <> exact_key (Hashtbl.find run.first i) then
                Error (it.name ^ ": traced pass differs from the untraced one")
              else Ok ())))
    items;
  let c1 = snapshot () in
  (* probes run after the counters are read: they issue index builds *)
  let exec_insns =
    List.fold_left (fun a (i, h, variants) -> a + probes tr ~run_id:i h variants) 0 !compiled
  in
  let spans = Trace.spans tr in
  let ops = List.filter (fun (s : Trace.span) -> s.Trace.name = "harness.op") spans in
  let traced_wall_s = List.fold_left (fun a s -> a +. secs (Trace.dur_ns s)) 0.0 ops in
  let alloc_mb_per_op = !alloc /. float_of_int (Array.length items) in
  (List.rev !outcomes, c0, c1, exec_insns, !built, !bytes, alloc_mb_per_op, traced_wall_s)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type result = { e2e : metric list; layer : metric list option }

let write_trace args tr =
  (try Sys.mkdir workdir 0o755 with Sys_error _ -> ());
  Trace.write_jsonl tr (Filename.concat workdir (Printf.sprintf "trace-%s-%d.jsonl" args.workload args.seed))

(* A pool of at most [jobs] domains, alive only while variants are
   compiled and simulated.  The set-up and the edits run on this domain
   alone: in OCaml 5 every minor collection stops all domains, idle ones
   too, and on a busy host waiting for an idle domain made those short
   timings swing widely.  [~jobs:1] spawns no domain. *)
let with_pool ~jobs f =
  let pool = Pool.create ~jobs:(max 1 (min jobs (Domain.recommended_domain_count ()))) in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f (Some pool))

let compile_workload run ~args ~jobs ~config ~setup =
  let items, between = setup_sampler run setup in
  let items = Array.of_list items in
  with_pool ~jobs @@ fun pool ->
  let n = Array.length items in
  compile_loop ~between run ~pool ~config ~seconds:args.seconds ~min_ops:n ~start:(args.seed mod n) items;
  let exact = exact_of run n in
  let e2e = end_to_end run ~exact ~compile_s:(per_pass run.samples (fun s -> secs s.compile_ns)) in
  let layer =
    if not args.trace then None
    else
      let tr = Trace.create () in
      let outcomes, c0, c1, exec_insns, built, hli_bytes, alloc_mb_per_op, traced_wall_s =
        traced_compile_pass run tr ~pool ~config items
      in
      write_trace args tr;
      Some
        (per_layer ~spans:(Trace.spans tr) ~outcomes ~c0 ~c1 ~exec_insns ~hits:0 ~misses:0 ~built ~hli_bytes
           ~alloc_mb_per_op ~untraced:run.samples ~traced_wall_s)
  in
  { e2e; layer }

let edit_workload run ~args =
  let tmp = Filename.concat workdir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  let dir = Filename.concat tmp "hli-cache" in
  (* the set-ups during the loop fill a cache of their own *)
  let spare = Filename.concat tmp "spare-cache" in
  let setup dir () =
    let progs = Gen.programs ~seed:args.seed gen_programs in
    let items = Array.of_list (gen_items progs) in
    fill_cache dir items;
    (progs, items)
  in
  Fun.protect
    ~finally:(fun () -> rm_rf tmp)
    (fun () ->
      let (progs, items), between =
        setup_sampler run ~again:(fun () -> ignore (setup spare ())) (setup dir)
      in
      let n = Array.length items in
      let edit_of = Gen.edits ~seed:args.seed progs in
      let current = Array.of_list progs in
      let config = with_cache dir in
      let done_ = ref 0 in
      closed_loop ~between ~seconds:args.seconds ~min_ops:min_edits (fun k ->
          edit_step run ~edit_of ~progs:current ~frontend:(fun ~run_id:_ src -> Pipeline.frontend ~config src) k;
          done_ := k + 1);
      let untraced = run.samples in
      (* the traced edits continue the stream, before the post-edit check
         so that they run in the same heap as the untraced ones *)
      let layer =
        if not args.trace then None
        else begin
          let tr = Trace.create () in
          let hits = ref 0 and misses = ref 0 and bytes = ref 0 and alloc = ref 0.0 in
          let traced = new_run () in
          let c0 = snapshot () in
          for k = !done_ to !done_ + (traced_edit_rounds * n) - 1 do
            edit_step traced ~edit_of ~progs:current
              ~frontend:(fun ~run_id src ->
                (* the front end runs on this domain alone, whose
                   allocation counter is exact *)
                let a0 = Gc.allocated_bytes () in
                let h, tm = traced_frontend tr ~config ~run_id src in
                alloc := !alloc +. ((Gc.allocated_bytes () -. a0) /. 1048576.0);
                hits := !hits + Telemetry.counter tm "hli_cache_hits";
                misses := !misses + Telemetry.counter tm "hli_cache_misses";
                bytes := !bytes + h.Driver.Pass.h_bytes;
                h)
              k
          done;
          let c1 = snapshot () in
          absorb run traced;
          write_trace args tr;
          Some
            (per_layer ~spans:(Trace.spans tr) ~outcomes:[] ~c0 ~c1 ~exec_insns:0 ~hits:!hits ~misses:!misses
               ~built:!misses ~hli_bytes:!bytes
               ~alloc_mb_per_op:(!alloc /. float_of_int (traced_edit_rounds * n))
               ~untraced
               ~traced_wall_s:(per_pass traced.samples (fun s -> secs s.op_ns)))
        end
      in
      (* post-edit check, untimed and twice over: each program after
         its first edit, compiled warm and run, must print what the
         model says, both times with the same exact counts; it supplies
         the exact metrics *)
      let post = new_run () in
      let edited =
        List.mapi
          (fun p prog ->
            let it = List.hd (gen_items [ Gen.apply prog (edit_of p) ]) in
            { it with name = Printf.sprintf "gen%02d+edit" p })
          progs
      in
      with_pool ~jobs:gen_jobs (fun pool ->
          compile_loop post ~pool ~config:{ config with Pipeline.specs = gen_config.Pipeline.specs } ~seconds:0.0
            ~min_ops:(2 * n) ~start:0 (Array.of_list edited));
      absorb run post;
      (* the timed front end is all the compiling an edit does *)
      let e2e =
        end_to_end run ~exact:(exact_of post n) ~compile_s:(per_pass untraced (fun s -> secs s.compile_ns))
      in
      { e2e; layer })

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let args =
    try parse_args ()
    with Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2
  in
  if not (List.mem args.workload workloads) then begin
    Printf.eprintf "hlibench: --workload must be one of %s\n" (String.concat ", " workloads);
    exit 2
  end;
  let run = new_run () in
  let res =
    match args.workload with
    | "paper-sim" ->
        compile_workload run ~args ~jobs:paper_jobs ~config:no_cache ~setup:(fun () ->
            let items = paper_items ~reference in
            List.iter (fun it -> ignore (Pipeline.compile ~config:no_cache it.src)) items;
            items)
    | "gen-compile" ->
        compile_workload run ~args ~jobs:gen_jobs ~config:gen_config ~setup:(fun () ->
            gen_items (Gen.programs ~seed:args.seed gen_programs))
    | _ -> edit_workload run ~args
  in
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev run.errors);
  let metrics = match res.layer with Some l -> l | None -> res.e2e in
  List.iter (fun (m : metric) -> Printf.printf "%-34s %16.6f %s\n" m.name m.value m.unit_) metrics;
  let correct = run.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    run.attempted run.failed
    (String.concat ", " (List.map metric_json metrics));
  exit (if correct then 0 else 1)
