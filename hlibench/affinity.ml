(** CPU affinity of the calling thread (Linux [sched_getaffinity] and
    [sched_setaffinity]).

    A single-threaded operation runs at the speed of whichever CPU the
    scheduler put it on, and on a shared host the CPUs' speeds differ
    and change.  The benchmark's loops move their thread to the next
    allowed CPU before each operation, so every run spends the same
    share of its operations on each CPU, instead of whatever share the
    scheduler happened to give it. *)

external allowed : unit -> int array = "hlibench_allowed_cpus"
external set : int array -> bool = "hlibench_set_cpus"

(** [rotating f] runs [f next], where [next k] moves the calling thread
    to the [k]-th allowed CPU (modulo their number), and restores the
    original mask when [f] returns or raises.  With fewer than two
    allowed CPUs, or when the mask cannot be read, [next] does nothing. *)
let rotating f =
  let cpus = allowed () in
  let n = Array.length cpus in
  if n < 2 then f ignore
  else
    Fun.protect
      ~finally:(fun () -> ignore (set cpus))
      (fun () -> f (fun k -> ignore (set [| cpus.(k mod n) |])))
