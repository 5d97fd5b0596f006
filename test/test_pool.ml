(* Lp.Pool: the domain pool must be deterministic (results indexed by task
   id, never by arrival order), propagate worker exceptions to the
   submitter, degrade to plain sequential execution at jobs = 1, and shut
   down gracefully with work still queued. *)

let expected tasks = Array.init tasks (fun i -> (i * i) + 1)

(* --- Determinism under adversarial chunking -------------------------------- *)

let test_chunk_determinism () =
  (* Chunk sizes around and past the pathological points: singleton chunks
     (maximal scheduling freedom), chunks that don't divide the task count,
     and one chunk bigger than the whole batch. *)
  Lp.Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun chunk ->
          List.iter
            (fun tasks ->
              Alcotest.(check (array int))
                (Printf.sprintf "chunk=%d tasks=%d" chunk tasks)
                (expected tasks)
                (Lp.Pool.run ~chunk pool ~tasks (fun i -> (i * i) + 1)))
            [ 0; 1; 7; 101 ])
        [ 1; 2; 3; 7; 1000 ])

let test_uneven_task_durations () =
  (* Tasks with wildly uneven durations land in the right slots anyway. *)
  Lp.Pool.with_pool ~jobs:4 (fun pool ->
      let results =
        Lp.Pool.run ~chunk:1 pool ~tasks:40 (fun i ->
            if i mod 7 = 0 then Unix.sleepf 0.002;
            i * 3)
      in
      Alcotest.(check (array int)) "slots match task ids" (Array.init 40 (fun i -> i * 3)) results)

(* --- Exception propagation ------------------------------------------------- *)

exception Boom of int

let test_exception_propagation () =
  Lp.Pool.with_pool ~jobs:4 (fun pool ->
      (match Lp.Pool.run ~chunk:1 pool ~tasks:100 (fun i -> if i = 57 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 57 -> ());
      (* The pool survives a failed batch: the next run works. *)
      Alcotest.(check (array int)) "pool usable after failure" (expected 20)
        (Lp.Pool.run pool ~tasks:20 (fun i -> (i * i) + 1)))

let test_exception_jobs1 () =
  Lp.Pool.with_pool ~jobs:1 (fun pool ->
      match Lp.Pool.run pool ~tasks:10 (fun i -> if i = 3 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected Boom on the sequential path"
      | exception Boom 3 -> ())

(* --- jobs = 1 is direct execution ------------------------------------------ *)

let test_jobs1_direct () =
  Lp.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "one participant" 1 (Lp.Pool.jobs pool);
      (* Tasks run in index order in the submitting domain: observable via a
         side-effect log, which a parallel path could not guarantee. *)
      let log = ref [] in
      let self = Domain.self () in
      let results =
        Lp.Pool.run pool ~tasks:25 (fun i ->
            log := i :: !log;
            Alcotest.(check bool) "runs in the submitter domain" true (Domain.self () = self);
            (i * i) + 1)
      in
      Alcotest.(check (array int)) "results" (expected 25) results;
      Alcotest.(check (list int)) "index order" (List.init 25 (fun i -> 24 - i)) !log)

let test_run_init_once_per_domain () =
  let inits = Atomic.make 0 in
  let init () =
    Atomic.incr inits;
    Atomic.get inits
  in
  Lp.Pool.with_pool ~jobs:4 (fun pool ->
      let r = Lp.Pool.run_init ~chunk:1 pool ~init ~tasks:200 (fun _st i -> i) in
      Alcotest.(check (array int)) "results" (Array.init 200 Fun.id) r;
      let n = Atomic.get inits in
      Alcotest.(check bool)
        (Printf.sprintf "inits (%d) bounded by domains" n)
        true
        (n >= 1 && n <= 4));
  (* jobs = 1: exactly one init. *)
  Atomic.set inits 0;
  Lp.Pool.with_pool ~jobs:1 (fun pool ->
      ignore (Lp.Pool.run_init pool ~init ~tasks:50 (fun _st i -> i));
      Alcotest.(check int) "single init" 1 (Atomic.get inits))

(* --- Shutdown --------------------------------------------------------------- *)

let test_shutdown_drains_queued_tasks () =
  (* Shutdown while a batch still has queued chunks: the batch must complete
     (participate ignores the stop flag), and every slot must be filled.
     The batch is submitted from a helper domain so the main domain can call
     shutdown mid-flight. *)
  let pool = Lp.Pool.create ~jobs:4 () in
  let started = Atomic.make false in
  let submitter =
    Domain.spawn (fun () ->
        Lp.Pool.run ~chunk:1 pool ~tasks:64 (fun i ->
            Atomic.set started true;
            Unix.sleepf 0.001;
            i + 1))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Lp.Pool.shutdown pool;
  let results = Domain.join submitter in
  Alcotest.(check (array int)) "all queued tasks ran" (Array.init 64 (fun i -> i + 1)) results;
  (match Lp.Pool.run pool ~tasks:1 Fun.id with
  | _ -> Alcotest.fail "run after shutdown must raise"
  | exception Invalid_argument _ -> ());
  (* Idempotent. *)
  Lp.Pool.shutdown pool

let test_shutdown_idle () =
  let pool = Lp.Pool.create ~jobs:3 () in
  Alcotest.(check (array int)) "batch" (expected 10) (Lp.Pool.run pool ~tasks:10 (fun i -> (i * i) + 1));
  Lp.Pool.shutdown pool;
  Lp.Pool.shutdown pool

let test_request_shutdown () =
  (* The signal-handler path: request_shutdown is a lock-free flag that must
     not tear down anything by itself — a batch in flight still completes —
     and the later shutdown from normal context is idempotent. *)
  let pool = Lp.Pool.create ~jobs:4 () in
  Alcotest.(check bool) "not requested initially" false (Lp.Pool.shutdown_requested pool);
  Lp.Pool.request_shutdown pool;
  Lp.Pool.request_shutdown pool;
  Alcotest.(check bool) "requested" true (Lp.Pool.shutdown_requested pool);
  Alcotest.(check (array int)) "batch still runs after request" (expected 30)
    (Lp.Pool.run ~chunk:1 pool ~tasks:30 (fun i -> (i * i) + 1));
  Lp.Pool.shutdown pool;
  Alcotest.(check bool) "still requested after shutdown" true (Lp.Pool.shutdown_requested pool);
  Lp.Pool.shutdown pool

let test_concurrent_shutdown () =
  (* Several domains racing shutdown with queued work: exactly one joins each
     worker, nobody deadlocks, every slot of the in-flight batch is filled. *)
  let pool = Lp.Pool.create ~jobs:4 () in
  let started = Atomic.make false in
  let submitter =
    Domain.spawn (fun () ->
        Lp.Pool.run ~chunk:1 pool ~tasks:48 (fun i ->
            Atomic.set started true;
            Unix.sleepf 0.001;
            i * 2))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let closers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Lp.Pool.request_shutdown pool;
            Lp.Pool.shutdown pool))
  in
  let results = Domain.join submitter in
  List.iter Domain.join closers;
  Alcotest.(check (array int)) "in-flight batch completed" (Array.init 48 (fun i -> i * 2)) results

(* --- Concurrent batches -------------------------------------------------------- *)

let test_concurrent_batches () =
  (* A batch spawns its own domains, so two submitters can share one pool.
     Each batch's tasks wait (bounded) until the other batch has started, so
     the two really overlap; each must get its own results. *)
  Lp.Pool.with_pool ~jobs:2 (fun pool ->
      let started = Array.init 2 (fun _ -> Atomic.make false) in
      let deadline = Unix.gettimeofday () +. 5. in
      let batch k () =
        Lp.Pool.run ~chunk:1 pool ~tasks:30 (fun i ->
            Atomic.set started.(k) true;
            while (not (Atomic.get started.(1 - k))) && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            (k * 1000) + i)
      in
      let submitters = List.init 2 (fun k -> Domain.spawn (batch k)) in
      List.iteri
        (fun k d ->
          Alcotest.(check (array int))
            (Printf.sprintf "batch %d" k)
            (Array.init 30 (fun i -> (k * 1000) + i))
            (Domain.join d))
        submitters)

(* --- Stress ------------------------------------------------------------------ *)

let test_stress () =
  (* 10k trivial tasks across every pool width 2..8: scheduling overhead and
     slot bookkeeping must stay correct when chunks are tiny relative to the
     batch and domains outnumber cores. *)
  let tasks = 10_000 in
  let want = Array.init tasks (fun i -> i lxor 0x2a) in
  for jobs = 2 to 8 do
    Lp.Pool.with_pool ~jobs (fun pool ->
        Alcotest.(check (array int))
          (Printf.sprintf "jobs=%d" jobs)
          want
          (Lp.Pool.run pool ~tasks (fun i -> i lxor 0x2a)))
  done

let test_defaults () =
  Alcotest.(check bool) "default_jobs >= 1" true (Lp.Pool.default_jobs () >= 1);
  Lp.Pool.with_pool (fun pool ->
      Alcotest.(check int) "jobs 0 resolves to default" (Lp.Pool.default_jobs ())
        (Lp.Pool.jobs pool));
  match Lp.Pool.create ~jobs:(-1) () with
  | _ -> Alcotest.fail "negative jobs must raise"
  | exception Invalid_argument _ -> ()

let () =
  let open Alcotest in
  run "pool"
    [
      ( "determinism",
        [
          test_case "adversarial chunk sizes" `Quick test_chunk_determinism;
          test_case "uneven task durations" `Quick test_uneven_task_durations;
        ] );
      ( "exceptions",
        [
          test_case "worker exception reaches submitter" `Quick test_exception_propagation;
          test_case "sequential path propagates too" `Quick test_exception_jobs1;
        ] );
      ( "jobs-1",
        [
          test_case "direct in-order execution" `Quick test_jobs1_direct;
          test_case "init once per domain" `Quick test_run_init_once_per_domain;
        ] );
      ( "shutdown",
        [
          test_case "graceful with tasks queued" `Quick test_shutdown_drains_queued_tasks;
          test_case "idle shutdown is idempotent" `Quick test_shutdown_idle;
          test_case "request_shutdown is signal-safe flag" `Quick test_request_shutdown;
          test_case "concurrent shutdown races" `Quick test_concurrent_shutdown;
        ] );
      ("concurrency", [ test_case "two batches at once on one pool" `Quick test_concurrent_batches ]);
      ( "stress",
        [
          test_case "10k tasks, 2..8 domains" `Quick test_stress;
          test_case "defaults" `Quick test_defaults;
        ] );
    ]
