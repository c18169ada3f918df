(** In-memory span recorder for the traced benchmark run.

    A span has a name, start and end (monotonic ns), the id of the span
    that caused it, and a run id shared by every span of one program or
    edit.  Spans nest through a per-domain stack; work handed to another
    pool domain names its parent explicitly.  Nothing is written until
    {!write_jsonl} at exit. *)

type span = {
  id : int;
  name : string;
  tag : string;  (** free-form qualifier, e.g. the variant of a simulation *)
  parent : int;  (** [-1] for a root span *)
  run : int;
  t0 : int64;
  t1 : int64;
}

type t = { mutex : Mutex.t; mutable spans : span list; mutable next : int }

let create () = { mutex = Mutex.create (); spans = []; next = 0 }
let now () = Monotonic_clock.now ()

(* (span id, run id) of the innermost open span on this domain *)
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(** The innermost open span of the calling domain, to hand to
    {!span}'s [?parent] when the work moves to another domain. *)
let current () = match Domain.DLS.get stack with top :: _ -> Some top | [] -> None

(** [span t name f] runs [f ()] inside a new span.  Its parent is
    [parent] when given, else the calling domain's innermost open span;
    [run] defaults to the parent's run id. *)
let span t ?parent ?run ?(tag = "") name f =
  let parent = match parent with Some _ -> parent | None -> current () in
  let pid, prun = match parent with Some p -> p | None -> (-1, -1) in
  let run = Option.value run ~default:prun in
  Mutex.lock t.mutex;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.mutex;
  let saved = Domain.DLS.get stack in
  Domain.DLS.set stack ((id, run) :: saved);
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now () in
      Domain.DLS.set stack saved;
      Mutex.lock t.mutex;
      t.spans <- { id; name; tag; parent = pid; run; t0; t1 } :: t.spans;
      Mutex.unlock t.mutex)
    f

(** Record a span measured elsewhere: [name] from [t0] to [t1] under
    [parent], a [(span id, run id)] pair as {!current} returns it. *)
let add t ~parent:(pid, run) name t0 t1 =
  Mutex.lock t.mutex;
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; tag = ""; parent = pid; run; t0; t1 } :: t.spans;
  Mutex.unlock t.mutex

(** The recorder as the pass manager's telemetry hook. *)
let spanf t = { Driver.Pass.spanf = (fun name f -> span t name f) }

let spans t = List.rev t.spans
let dur_ns s = Int64.sub s.t1 s.t0

(** Self time of every span: its duration minus the part of it that its
    children's intervals cover (overlapping children, e.g. variants on
    two domains, count once).  Returns [(span, self_ns)] pairs. *)
let self_times (spans : span list) : (span * int64) list =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = max a hi in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, hi))
          (0L, Int64.min_int) ivs
      in
      (s, Int64.sub (dur_ns s) covered))
    spans

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"tag\":%S,\"parent\":%d,\"run\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.name s.tag s.parent s.run s.t0 s.t1)
        (spans t))
