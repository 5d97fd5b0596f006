(* Chunked self-scheduling over raw domains, spawned per batch.

   A batch spawns [jobs - 1] domains and the submitter is the last
   participant.  Every participant runs the same loop: claim the next chunk
   of task indices from one atomic cursor, run it, and write each result
   into the slot of its index.  Joining the spawned domains is the
   end-of-batch wait, so the pool keeps no workers, locks or conditions
   between batches: it is a job count and two flags.

   Chunked self-scheduling rather than work stealing: tasks here are LP
   solves (micro- to milliseconds), so one shared cursor is bumped a few
   thousand times per batch at most, and determinism is trivial — results
   are indexed by task id, never by arrival order.  A participant that drew
   a long chunk late cannot change any result slot, only the wall-clock. *)

(* Batch/chunk accounting, dropped unless a trace sink is installed.  Per-
   domain busy time is read off the "pool.chunk" spans of each track in the
   exported trace; queue wait is the gap between consecutive chunk spans. *)
let c_batches = Obs.Counter.create "pool.batches"
let c_chunks = Obs.Counter.create "pool.chunks"
let c_tasks = Obs.Counter.create "pool.tasks"

type t = {
  njobs : int;
  closed : bool Atomic.t;  (* set by [shutdown]: later runs raise *)
  shutdown_req : bool Atomic.t;
      (* Set by [request_shutdown]; the owner polls it from normal context
         and calls [shutdown]. *)
}

let default_jobs () = Domain.recommended_domain_count ()

let jobs t = t.njobs

let create ?(jobs = 0) () =
  if jobs < 0 then invalid_arg "Pool.create: negative jobs";
  let njobs = if jobs = 0 then default_jobs () else jobs in
  { njobs; closed = Atomic.make false; shutdown_req = Atomic.make false }

let run_init ?chunk pool ~init ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: negative task count";
  if tasks = 0 then [||]
  else if Atomic.get pool.closed then invalid_arg "Pool.run: pool is shut down"
  else if pool.njobs = 1 then begin
    (* The sequential path: no domains, no locks, index order.  The same
       batch/chunk spans and counters as the parallel path (one chunk of
       everything), so telemetry schemas do not depend on the job count. *)
    Obs.Counter.incr c_batches;
    Obs.Counter.incr c_chunks;
    Obs.Counter.add c_tasks tasks;
    let span_b = Obs.Trace.begin_ () in
    let st = init () in
    let span_c = Obs.Trace.begin_ () in
    let r = Array.init tasks (fun i -> f st i) in
    if not (Float.is_nan span_c) then
      Obs.Trace.end_ span_c ~args:[ ("tasks", string_of_int tasks) ] "pool.chunk";
    Obs.Trace.end_ span_b "pool.batch";
    r
  end
  else begin
    let chunk =
      match chunk with
      | Some c when c <= 0 -> invalid_arg "Pool.run: non-positive chunk"
      | Some c -> c
      | None -> max 1 (tasks / (pool.njobs * 4))
    in
    let results = Array.make tasks None in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    let fail e bt = ignore (Atomic.compare_and_set failed None (Some (e, bt))) in
    let participate () =
      (* Per-domain batch state: [init] runs at most once, lazily. *)
      let local = ref None in
      let local_init () =
        match !local with
        | Some s -> s
        | None ->
          let s = init () in
          local := Some s;
          s
      in
      let rec claim () =
        let start =
          if Option.is_none (Atomic.get failed) then Atomic.fetch_and_add next chunk else tasks
        in
        if start < tasks then begin
          let stop = min tasks (start + chunk) in
          Obs.Counter.incr c_chunks;
          Obs.Counter.add c_tasks (stop - start);
          let span_c = Obs.Trace.begin_ () in
          (try
             let s = local_init () in
             for i = start to stop - 1 do
               results.(i) <- Some (f s i)
             done
           with e -> fail e (Printexc.get_raw_backtrace ()));
          if not (Float.is_nan span_c) then
            Obs.Trace.end_ span_c ~args:[ ("tasks", string_of_int (stop - start)) ] "pool.chunk";
          claim ()
        end
      in
      claim ()
    in
    Obs.Counter.incr c_batches;
    let span_b = Obs.Trace.begin_ () in
    (* No more domains than chunks: a surplus one could claim nothing. *)
    let helpers = min (pool.njobs - 1) ((tasks - 1) / chunk) in
    let spawned = ref [] in
    (* A failed spawn fails the batch: the domains already started stop
       claiming and are joined below, the exception re-raised. *)
    (try
       for _ = 1 to helpers do
         spawned := Domain.spawn participate :: !spawned
       done
     with e -> fail e (Printexc.get_raw_backtrace ()));
    participate ();
    List.iter Domain.join !spawned;
    Obs.Trace.end_ span_b "pool.batch";
    match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* every index was claimed and completed *))
        results
  end

let run ?chunk pool ~tasks f = run_init ?chunk pool ~init:(fun () -> ()) ~tasks (fun () i -> f i)

let request_shutdown pool = Atomic.set pool.shutdown_req true
let shutdown_requested pool = Atomic.get pool.shutdown_req

let shutdown pool =
  Atomic.set pool.shutdown_req true;
  Atomic.set pool.closed true

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
