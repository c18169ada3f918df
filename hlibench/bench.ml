(** The three benchmark workloads, their correctness checks and their
    metrics.

    Every workload runs a closed loop from one process: one compile or
    edit at a time, back to back, with the four variants of a program
    spread over the pool's domains.  Its inputs are a fixed list of
    {e items} (programs); one {e pass} is one operation per item.  The
    loop cycles over the items until [seconds] have passed and at least
    one full pass is done, so the exact metrics (dependence counts,
    cycles, speedups) always cover the same inputs, those of the first
    pass, whatever the host speed. *)

open Harness

let paper_programs = [ "023.eqntott"; "077.mdljsp2"; "101.tomcatv"; "141.apsi" ]
let gen_passes = "cse,licm"
let setup_repeats = 3
let setup_share = 0.1

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let now = Trace.now
let secs ns = Int64.to_float ns /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, Int64.sub (now ()) t0)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      List.nth s (min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

let geomean = function
  | [] -> 1.0
  | l -> exp (List.fold_left (fun a x -> a +. log x) 0.0 l /. float_of_int (List.length l))

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          let l = input_line ic in
          if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
          else go ()
        in
        go ())
  with _ -> 0.0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* megabytes allocated by all domains so far: exact right after the full
   major collection, which empties every domain's minor heap *)
let allocated_mb () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. float_of_int (Sys.word_size / 8) /. 1048576.0

let variant_key (v : Driver.Variant.t) =
  Driver.Variant.alias_name v.Driver.Variant.alias ^ "_"
  ^ Driver.Variant.machine_name v.Driver.Variant.machine

let entries_bytes entries = Hli_core.Serialize.to_bytes { Hli_core.Tables.entries }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; exact : bool }

let metric ?(exact = false) name unit_ value = { name; value; unit_; exact }
let count name v = metric ~exact:true name "count" (float_of_int v)

let metric_json m =
  let v =
    if not (Float.is_finite m.value) then "0"
    else if m.exact && Float.is_integer m.value then Printf.sprintf "%.0f" m.value
    else Printf.sprintf "%.17g" m.value
  in
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name v m.unit_

(* ------------------------------------------------------------------ *)
(* Items and the per-program exact outcome                             *)
(* ------------------------------------------------------------------ *)

type item = {
  name : string;
  src : string;
  expect : string;  (** stdout every variant must print *)
  rows : (string * string) option;  (** paper-sim: Table 1 / Table 2 rows *)
}

(** What one compile + measure of a program produced, exactly. *)
type outcome = {
  stats : Backend.Ddg.stats;
  reports : (Driver.Variant.t * Machine.Simulate.report) list;
  notes : Driver.Pass.note list;  (** the stats variant's pass notes *)
  hli_bytes : int;
  sp4600 : float;
  sp10000 : float;
}

let speedup reports machine =
  let r alias = List.assoc { Driver.Variant.alias; machine } reports in
  Pipeline.speedup ~base:(r Backend.Ddg.Gcc_only) ~opt:(r Backend.Ddg.With_hli)

let outcome ~stats ~notes ~hli_bytes reports =
  {
    stats;
    reports;
    notes;
    hli_bytes;
    sp4600 = speedup reports Driver.Variant.R4600;
    sp10000 = speedup reports Driver.Variant.R10000;
  }

(* the exact parts two runs of the same program must agree on *)
let exact_key (o : outcome) =
  let s = o.stats in
  ( (s.Backend.Ddg.total, s.Backend.Ddg.gcc_yes, s.Backend.Ddg.hli_yes, s.Backend.Ddg.combined_yes),
    List.map
      (fun (_, (r : Machine.Simulate.report)) ->
        (r.Machine.Simulate.cycles, r.Machine.Simulate.dyn_insns, r.Machine.Simulate.l1_misses))
      o.reports,
    o.hli_bytes )

let table_rows (w : Workloads.Workload.t) (c : Pipeline.compiled) (o : outcome) =
  let row =
    {
      Tables.w;
      lines = Workloads.Workload.line_count w;
      hli_bytes = c.Pipeline.hli_bytes;
      stats = c.Pipeline.stats;
      sp_r4600 = o.sp4600;
      sp_r10000 = o.sp10000;
      dyn_insns = (List.assoc (List.hd Driver.Variant.matrix) o.reports).Machine.Simulate.dyn_insns;
      unmapped = c.Pipeline.map_unmapped;
      duplicates = c.Pipeline.map_duplicates;
      dropped = c.Pipeline.map_dropped;
      misspec = 0;
      failure = None;
      tm = Telemetry.create ();
    }
  in
  (Tables.table1_row row, Tables.table2_row row)

(** Check one outcome against the item; [Error reason] on any mismatch. *)
let check_outcome (it : item) ?rows (o : outcome) =
  let bad =
    List.filter_map
      (fun (v, (r : Machine.Simulate.report)) ->
        if r.Machine.Simulate.output <> it.expect then
          Some (Printf.sprintf "%s: %s stdout differs from the reference" it.name (Driver.Variant.name v))
        else None)
      o.reports
  in
  let bad =
    match (it.rows, rows) with
    | Some (t1, t2), Some (a1, a2) ->
        bad
        @ (if a1 <> t1 then [ Printf.sprintf "%s: Table 1 row %S, reference %S" it.name a1 t1 ] else [])
        @ if a2 <> t2 then [ Printf.sprintf "%s: Table 2 row %S, reference %S" it.name a2 t2 ] else []
    | _ -> bad
  in
  match bad with [] -> Ok () | l -> Error (String.concat "; " l)

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)
(* ------------------------------------------------------------------ *)

(** Reference file of paper-sim: one [name<TAB>field<TAB>value] line per
    fact, [field] one of [stdout] (OCaml-escaped), [table1], [table2]. *)
let read_reference path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let tbl = Hashtbl.create 16 in
      (try
         while true do
           let l = input_line ic in
           if l <> "" && l.[0] <> '#' then
             match String.split_on_char '\t' l with
             | [ name; field; value ] -> Hashtbl.replace tbl (name, field) value
             | _ -> failwith ("malformed reference line: " ^ l)
         done
       with End_of_file -> ());
      tbl)

let paper_items ~reference =
  let tbl = read_reference reference in
  let get name field =
    match Hashtbl.find_opt tbl (name, field) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "reference has no %s for %s" field name)
  in
  List.map
    (fun name ->
      let w = Option.get (Workloads.Registry.find name) in
      {
        name;
        src = w.Workloads.Workload.source;
        expect = Scanf.unescaped (get name "stdout");
        rows = Some (get name "table1", get name "table2");
      })
    paper_programs

let gen_items progs =
  List.mapi
    (fun k p -> { name = Printf.sprintf "gen%02d" k; src = Gen.to_source p; expect = Gen.eval p; rows = None })
    progs

let no_cache = { Pipeline.default_config with hli_cache = None; hli_cache_max = None }
let with_cache dir = { no_cache with Pipeline.hli_cache = Some dir }
let gen_config = { no_cache with Pipeline.specs = Driver.Pass_manager.parse_specs gen_passes }

(* ------------------------------------------------------------------ *)
(* Untraced operations                                                 *)
(* ------------------------------------------------------------------ *)

type sample = { item : int; op_ns : int64; compile_ns : int64 }

(* a compile shorter than this is repeated, up to [compile_samples]
   times, and its median taken: millisecond timings need more samples *)
let compile_budget_ns = 100_000_000L
let compile_samples = 5

(** Compile and measure one program through the public pipeline,
    timing each half; returns the outcome and the compiled record.  A
    full major collection runs first, outside the timers, so that no
    operation pays for the garbage of the ones before it; this keeps
    timings and peak RSS steady.  It also leaves most of the collector's
    work for an operation's own garbage out of its time, so the traced
    run reports each operation's allocation ([harness.alloc_mb_per_op]). *)
let compile_measure ~pool ~config src =
  Gc.full_major ();
  let rec compiles acc spent =
    let c, ns = timed (fun () -> Pipeline.compile ~config ?pool src) in
    let acc = ns :: acc and spent = Int64.add spent ns in
    if List.length acc < compile_samples && spent < compile_budget_ns then compiles acc spent
    else (c, Int64.of_float (median (List.map Int64.to_float acc)))
  in
  let c, compile_ns = compiles [] 0L in
  let m, measure_ns = timed (fun () -> Pipeline.measure ?pool c) in
  let notes = Pipeline.pass_notes c in
  (outcome ~stats:c.Pipeline.stats ~notes ~hli_bytes:c.Pipeline.hli_bytes m.Pipeline.reports, c, compile_ns, measure_ns)

(* ------------------------------------------------------------------ *)
(* The run record every workload fills                                  *)
(* ------------------------------------------------------------------ *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable samples : sample list;
  first : (int, outcome) Hashtbl.t;  (** first outcome of each item *)
  mutable setup_s : float list;
}

let new_run () =
  { attempted = 0; failed = 0; errors = []; samples = []; first = Hashtbl.create 16; setup_s = [] }

let fail run msg =
  run.failed <- run.failed + 1;
  if List.length run.errors < 20 then run.errors <- msg :: run.errors

(* fold a sub-phase's attempts and failures into the workload's run *)
let absorb run sub =
  run.attempted <- run.attempted + sub.attempted;
  run.failed <- run.failed + sub.failed;
  run.errors <- sub.errors @ run.errors

(** Record an item's outcome: the first one is kept for the exact
    metrics; any later one must agree with it exactly. *)
let record_outcome run ~item (it : item) o =
  match Hashtbl.find_opt run.first item with
  | None -> Hashtbl.replace run.first item o; Ok ()
  | Some o0 when exact_key o0 = exact_key o -> Ok ()
  | Some _ -> Error (it.name ^ ": exact counts differ between two runs of the same program")

(* run [op k], then [between ()], for k = 0, 1, ... until [seconds]
   have passed and [min_ops] operations are done, with operation k on
   the k-th allowed CPU (see {!Affinity}).  The last pass may be
   partial: the time metrics take each item's mean, and the exact
   metrics the first pass, which [min_ops] keeps whole *)
let closed_loop ?(between = ignore) ~seconds ~min_ops op =
  Affinity.rotating @@ fun move_to ->
  let t0 = now () in
  let k = ref 0 in
  while !k < min_ops || secs (Int64.sub (now ()) t0) < seconds do
    move_to !k;
    op !k;
    between ();
    incr k
  done

let guarded run name f =
  run.attempted <- run.attempted + 1;
  match f () with
  | Ok () -> ()
  | Error msg -> fail run msg
  | exception (Diagnostics.Diagnostic d) -> fail run (name ^ ": " ^ Diagnostics.to_string d)
  | exception e -> fail run (name ^ ": " ^ Printexc.to_string e)

(** The compile workloads' loop: paper-sim and gen-compile. *)
let compile_loop ?between run ~pool ~config ~seconds ~min_ops ~start (items : item array) =
  let n = Array.length items in
  closed_loop ?between ~seconds ~min_ops (fun k ->
      let item = (start + k) mod n in
      let it = items.(item) in
      guarded run it.name (fun () ->
          let o, c, compile_ns, measure_ns = compile_measure ~pool ~config it.src in
          run.samples <- { item; op_ns = Int64.add compile_ns measure_ns; compile_ns } :: run.samples;
          let rows =
            Option.map (fun _ -> table_rows (Option.get (Workloads.Registry.find it.name)) c o) it.rows
          in
          Result.bind (record_outcome run ~item it o) (fun () -> check_outcome it ?rows o)))

(* ------------------------------------------------------------------ *)
(* edit-hli                                                             *)
(* ------------------------------------------------------------------ *)

let fill_cache dir (items : item array) =
  rm_rf dir;
  Array.iter (fun it -> ignore (Pipeline.frontend ~config:(with_cache dir) it.src)) items

(** Apply edit [k] of the stream to the current programs, time the warm
    [Pipeline.frontend] over the edited source (after a full major
    collection, as in {!compile_measure}), then (untimed) check it
    against a cold front end.  [frontend] is the timed call. *)
let edit_step run ~edit_of ~(progs : Gen.program array) ~frontend k =
  let e = edit_of k in
  let p = Gen.apply progs.(e.Gen.prog) e in
  progs.(e.Gen.prog) <- p;
  let src = Gen.to_source p in
  let name = Printf.sprintf "edit%d(gen%02d.f%d)" k e.Gen.prog e.Gen.func in
  guarded run name (fun () ->
      Gc.full_major ();
      let h, ns = timed (fun () -> frontend ~run_id:k src) in
      run.samples <- { item = e.Gen.prog; op_ns = ns; compile_ns = ns } :: run.samples;
      (* the reference: a cold, cache-less front end of the same source *)
      let cold = Pipeline.frontend ~config:no_cache src in
      if entries_bytes h.Driver.Pass.h_entries <> entries_bytes cold.Driver.Pass.h_entries then
        Error (name ^ ": warm spliced HLI differs from a cold front end")
      else if h.Driver.Pass.h_bytes <> cold.Driver.Pass.h_bytes then Error (name ^ ": HLI size differs")
      else Ok ())

(* ------------------------------------------------------------------ *)
(* Traced re-composition of the pipeline                                *)
(* ------------------------------------------------------------------ *)

(** [Pipeline.compile] + [Pipeline.measure] re-assembled from the pass
    manager's public entry points, with the recorder passed in as the
    passes' span hook and a span around each layer call. *)
let traced_compile_measure tr ~pool ~(config : Pipeline.config) ~run_id src =
  let spanf = Trace.spanf tr in
  let ablation = config.Pipeline.ablation in
  Trace.span tr ~run:run_id "harness.op" (fun () ->
      let h, variants =
        Trace.span tr "harness.compile" (fun () ->
            let h =
              Trace.span tr "harness.frontend" (fun () ->
                  Driver.Pass_manager.run_frontend (Driver.Pass.ctx ~spanf ~ablation ())
                    { Driver.Pass.src; src_file = None })
            in
            let parent = Trace.current () in
            ( h,
              Pool.map_opt pool
                (fun v ->
                  Trace.span tr ?parent ~tag:(variant_key v) "harness.backend" (fun () ->
                      let ctx = Driver.Pass.ctx ~spanf ~variant:v ~ablation () in
                      (v, Driver.Pass_manager.run_backend ctx config.Pipeline.specs h)))
                Driver.Variant.matrix ))
      in
      let reports =
        Trace.span tr "harness.measure" (fun () ->
            let parent = Trace.current () in
            Pool.map_opt pool
              (fun (v, s) ->
                Trace.span tr ?parent ~tag:(variant_key v) "harness.simulate" (fun () ->
                    let ctx = Driver.Pass.ctx ~spanf ~variant:v ~ablation () in
                    (v, Driver.Pass_manager.simulate ctx s)))
              variants)
      in
      let sv = List.assoc Driver.Variant.stats_variant variants in
      ( outcome ~stats:sv.Driver.Pass.s_stats ~notes:sv.Driver.Pass.s_notes ~hli_bytes:h.Driver.Pass.h_bytes
          reports,
        h,
        variants ))

(** Layer calls timed from outside, off the pipeline's path: index
    builds, the simulator's set-up, and a functional run. *)
let probes tr ~run_id (h : Driver.Pass.hli) variants =
  Trace.span tr ~run:run_id "probe" (fun () ->
      Trace.span tr "probe.query_build" (fun () ->
          List.iter (fun e -> ignore (Hli_core.Query.build e)) h.Driver.Pass.h_entries);
      List.iter
        (fun (_, (s : Driver.Pass.scheduled)) ->
          Trace.span tr "probe.exec_make" (fun () -> ignore (Machine.Exec.make s.Driver.Pass.s_rtl)))
        variants;
      let s = List.assoc (List.hd Driver.Variant.matrix) variants in
      let r = Trace.span tr "probe.exec_run" (fun () -> Machine.Exec.run s.Driver.Pass.s_rtl) in
      r.Machine.Exec.dyn_count)

(** The program's own [Pipeline.frontend] inside a [harness.frontend]
    span.  The front end takes no span hook, only a telemetry record,
    so its child layers are the spans it reports there
    ([frontend.parse_typecheck], [hli.fingerprint], [hli.cache],
    [frontend.analysis], [hligen.tblconst], [hli.serialize]).  They run
    one after another, so they are recorded end to end from the
    parent's start.  Returns the HLI and the telemetry record, which
    also holds the per-function cache hits and misses. *)
let traced_frontend tr ~config ~run_id src =
  let tm = Telemetry.create () in
  let start = ref None in
  let h =
    Trace.span tr ~run:run_id "harness.frontend" (fun () ->
        start := Option.map (fun p -> (p, now ())) (Trace.current ());
        Pipeline.frontend ~config ~tm src)
  in
  Option.iter
    (fun (parent, t0) ->
      ignore
        (List.fold_left
           (fun t0 name ->
             let t1 = Int64.add t0 (Telemetry.span_ns tm name) in
             Trace.add tr ~parent name t0 t1;
             t1)
           t0 (Telemetry.span_names tm)))
    !start;
  (h, tm)

(* sum over items of the mean of that item's samples, in seconds.  A
   mean, not a median: a shared host's single-thread speed can switch
   between two levels every few seconds, and a median flips from one
   level to the other where a mean follows the share of time spent in
   each *)
let per_pass (samples : sample list) f =
  let by = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by s.item (f s :: Option.value ~default:[] (Hashtbl.find_opt by s.item))) samples;
  Hashtbl.fold (fun _ l acc -> acc +. (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))) by 0.0

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from a trace                                       *)
(* ------------------------------------------------------------------ *)

let layer_of name =
  match String.split_on_char '.' name with
  | "frontend" :: "parse_typecheck" :: _ -> "srclang"
  | "frontend" :: "analysis" :: _ | "analysis" :: _ | "hli" :: "fingerprint" :: _ -> "analysis"
  | "hligen" :: _ -> "hligen"
  | "hli" :: _ | "core" :: _ -> "core"
  | "backend" :: _ -> "backend"
  | "machine" :: _ -> "machine"
  | _ -> "harness"

let layers = [ "srclang"; "analysis"; "hligen"; "core"; "backend"; "machine"; "harness" ]

(** Split spans into the pipeline's and the probes' (a probe root and
    all its descendants). *)
let split_probes (spans : Trace.span list) =
  let probe = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.name = "probe" || Hashtbl.mem probe s.Trace.parent then Hashtbl.replace probe s.Trace.id ())
    (List.sort (fun (a : Trace.span) b -> compare a.Trace.id b.Trace.id) spans);
  List.partition (fun (s : Trace.span) -> not (Hashtbl.mem probe s.Trace.id)) spans

let sum_ms spans name =
  List.fold_left
    (fun acc (s : Trace.span) -> if s.Trace.name = name then acc +. (Int64.to_float (Trace.dur_ns s) /. 1e6) else acc)
    0.0 spans

(** Share of each layer in the summed self time of [spans], in percent. *)
let layer_shares spans =
  let selfs = Trace.self_times spans in
  let total = List.fold_left (fun a (_, ns) -> Int64.add a ns) 0L selfs in
  List.map
    (fun layer ->
      let ns =
        List.fold_left
          (fun a ((s : Trace.span), ns) -> if layer_of s.Trace.name = layer then Int64.add a ns else a)
          0L selfs
      in
      (layer, if total = 0L then 0.0 else 100.0 *. Int64.to_float ns /. Int64.to_float total))
    layers

let note_int notes pass key =
  match List.find_opt (fun (n : Driver.Pass.note) -> n.Driver.Pass.n_pass = pass) notes with
  | None -> 0
  | Some n ->
      List.fold_left
        (fun acc kv ->
          match String.split_on_char '=' kv with
          | [ k; v ] when k = key -> acc + int_of_string v
          | _ -> acc)
        0
        (String.split_on_char ' ' n.Driver.Pass.n_text)

type counters = { queries : (string * int) list; cache : (string * int) list }

let snapshot () = { queries = Hli_core.Query.query_counters (); cache = Hli_core.Query.cache_counters () }

let delta a b = List.map (fun (k, v) -> (k, v - List.assoc k a)) b

(** Every per-layer metric, from the traced pass's spans, the outcomes
    it produced, the counter deltas across it and the probe results. *)
let per_layer ~spans ~(outcomes : outcome list) ~(c0 : counters) ~(c1 : counters) ~exec_insns ~hits ~misses
    ~built ~hli_bytes ~alloc_mb_per_op ~(untraced : sample list) ~traced_wall_s =
  let untraced_wall_s = per_pass untraced (fun s -> secs s.op_ns) in
  let op_ms = List.map (fun s -> Int64.to_float s.op_ns /. 1e6) untraced in
  let pipe, probe = split_probes spans in
  let ms = sum_ms pipe in
  let q = delta c0.queries c1.queries and cc = delta c0.cache c1.cache in
  let g k = List.assoc k cc in
  let memo_hits = g "equiv_memo_hits" + g "call_memo_hits" in
  let memo_all = memo_hits + g "equiv_memo_misses" + g "call_memo_misses" in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let stat f = sum (fun o -> f o.stats) in
  let note pass key = sum (fun o -> note_int o.notes pass key) in
  let reports_of v = List.map (fun o -> List.assoc v o.reports) outcomes in
  (* per-machine simulation rates: dynamic instructions over the time of
     the simulate pass of that machine's variants *)
  let sim_rate machine =
    let by_tag = Hashtbl.create 16 in
    List.iter (fun (s : Trace.span) -> Hashtbl.replace by_tag s.Trace.id s) pipe;
    let ns =
      List.fold_left
        (fun a (s : Trace.span) ->
          match Hashtbl.find_opt by_tag s.Trace.parent with
          | Some p
            when s.Trace.name = "machine.simulate"
                 && String.ends_with ~suffix:(Driver.Variant.machine_name machine) p.Trace.tag ->
              Int64.add a (Trace.dur_ns s)
          | _ -> a)
        0L pipe
    in
    let insns =
      List.fold_left
        (fun a v ->
          if v.Driver.Variant.machine = machine then
            a + List.fold_left (fun a (r : Machine.Simulate.report) -> a + r.Machine.Simulate.dyn_insns) 0 (reports_of v)
          else a)
        0 Driver.Variant.matrix
    in
    if ns = 0L then 0.0 else float_of_int insns /. (Int64.to_float ns /. 1e3)
  in
  let exec_ns = sum_ms probe "probe.exec_run" in
  let per_variant =
    List.concat_map
      (fun v ->
        let rs = reports_of v in
        let s f = List.fold_left (fun a (r : Machine.Simulate.report) -> a + f r) 0 rs in
        let k = "machine." ^ variant_key v ^ "." in
        [
          count (k ^ "dyn_insns") (s (fun r -> r.Machine.Simulate.dyn_insns));
          count (k ^ "cycles") (s (fun r -> r.Machine.Simulate.cycles));
          metric ~exact:true (k ^ "l1_miss_ratio") "ratio"
            (ratio (s (fun r -> r.Machine.Simulate.l1_misses))
               (s (fun r -> r.Machine.Simulate.l1_hits + r.Machine.Simulate.l1_misses)));
          count (k ^ "lsq_stall_cycles") (s (fun r -> r.Machine.Simulate.lsq_stalls));
          count (k ^ "misspeculations") (s (fun r -> r.Machine.Simulate.misspeculations));
        ])
      Driver.Variant.matrix
  in
  [
    metric "srclang.parse_typecheck_ms" "ms" (ms "frontend.parse_typecheck");
    metric "analysis.context_ms" "ms" (ms "frontend.analysis");
    metric "analysis.fingerprint_ms" "ms" (ms "hli.fingerprint");
    metric "hligen.tblconst_ms" "ms" (ms "hligen.tblconst");
    count "hligen.units_built" built;
    metric "core.serialize_ms" "ms" (ms "hli.serialize");
    count "core.hli_bytes" hli_bytes;
    metric "core.decode_ms" "ms" (ms "hli.cache");
    metric "core.query_build_ms" "ms" (sum_ms probe "probe.query_build");
    count "core.index_builds" (g "index_builds");
  ]
  @ List.map (fun (k, v) -> count ("core.queries." ^ k) v) q
  @ [
      metric ~exact:true "core.memo_hit_ratio" "ratio" (ratio memo_hits memo_all);
      metric "backend.lower_ms" "ms" (ms "backend.lower");
      metric "backend.hli_import_ms" "ms" (ms "backend.hli_import");
      metric "backend.cse_ms" "ms" (ms "backend.cse");
      metric "backend.licm_ms" "ms" (ms "backend.licm");
      metric "backend.unroll_ms" "ms" (ms "backend.unroll");
      metric "backend.ddg_schedule_ms" "ms" (ms "backend.ddg_schedule");
      count "backend.cse_loads_removed" (note "cse" "loads");
      count "backend.licm_hoists" (note "licm" "hoisted_loads" + note "licm" "hoisted_alu");
      count "backend.unroll_copies" (note "unroll" "copies");
      count "backend.dep_tests" (stat (fun s -> s.Backend.Ddg.total));
      count "backend.gcc_yes" (stat (fun s -> s.Backend.Ddg.gcc_yes));
      count "backend.hli_yes" (stat (fun s -> s.Backend.Ddg.hli_yes));
      count "backend.combined_yes" (stat (fun s -> s.Backend.Ddg.combined_yes));
      metric "machine.exec_minsn_per_s" "Minsn/s" (if exec_ns = 0.0 then 0.0 else float_of_int exec_insns /. (exec_ns *. 1e3));
      metric "machine.r4600_minsn_per_s" "Minsn/s" (sim_rate Driver.Variant.R4600);
      metric "machine.r10000_minsn_per_s" "Minsn/s" (sim_rate Driver.Variant.R10000);
      metric "machine.setup_ms" "ms" (sum_ms probe "probe.exec_make");
    ]
  @ per_variant
  @ [
      metric ~exact:true "harness.cache_hit_ratio" "ratio" (ratio hits (hits + misses));
      count "harness.cache_hits" hits;
      count "harness.cache_misses" misses;
      metric "harness.frontend_ms" "ms" (ms "harness.frontend");
      metric "harness.compile_ms" "ms" (ms "harness.compile");
      metric "harness.measure_ms" "ms" (ms "harness.measure");
      metric "harness.op_p50_ms" "ms" (median op_ms);
      metric "harness.op_p90_ms" "ms" (percentile 0.9 op_ms);
      metric "harness.alloc_mb_per_op" "MB" alloc_mb_per_op;
      metric "trace_overhead_pct" "%"
        (if untraced_wall_s = 0.0 then 0.0 else 100.0 *. ((traced_wall_s /. untraced_wall_s) -. 1.0));
    ]
  @ List.map (fun (l, pct) -> metric ("self." ^ l ^ "_pct") "%" pct) (layer_shares pipe)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                   *)
(* ------------------------------------------------------------------ *)

(** The end-to-end row.  [exact] are the outcomes of one pass;
    [compile_s] the host seconds one pass spent compiling. *)
let end_to_end run ~(exact : outcome list) ~compile_s =
  let gcc = List.fold_left (fun a o -> a + o.stats.Backend.Ddg.gcc_yes) 0 exact in
  let comb = List.fold_left (fun a o -> a + o.stats.Backend.Ddg.combined_yes) 0 exact in
  [
    metric "setup_s" "s" (median run.setup_s);
    metric "wall_s" "s" (per_pass run.samples (fun s -> secs s.op_ns));
    metric "compile_s" "s" compile_s;
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
    metric ~exact:true "speedup_r4600_geomean" "x" (geomean (List.map (fun o -> o.sp4600) exact));
    metric ~exact:true "speedup_r10000_geomean" "x" (geomean (List.map (fun o -> o.sp10000) exact));
    metric ~exact:true "dep_edge_reduction_pct" "%"
      (if gcc = 0 then 0.0 else 100.0 *. float_of_int (gcc - comb) /. float_of_int gcc);
  ]
