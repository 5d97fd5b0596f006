(* The closed loop every workload runs in: one client, one op at a time,
   each op timed from its first call into the program to the return of its
   answer.  Input generation and bookkeeping run between ops, outside the
   timed region; answer checks run after the loop (see [defer]) where they
   can, so they neither disturb the timed ops nor count in the heap peak.

   An untraced run measures the end-to-end metrics.  A traced run installs
   the Obs sink, wraps every op and every layer call the benchmark makes in
   an [Obs.Trace] span (args: workload, op id, layer), and derives the
   per-layer metrics from those spans, the program's own counters and the
   tallies below. *)

type kind = Res | Rsp | Enum | Write

let kind_name = function Res -> "res" | Rsp -> "rsp" | Enum -> "enum" | Write -> "write"

type t = {
  workload : string;
  traced : bool;
  seconds : float;
  fixed_ops : int option;
      (* Some k: run exactly k ops instead of [seconds] of op time, so two
         runs do identical work (traced runs and their untraced twins). *)
  reps : int;  (* set-up repetitions; setup_s is their median *)
  mutable cur_op : int;  (* op id carried by spans; -1 during set-up *)
  mutable attempted : int;
  mutable failed : int;  (* ops with at least one failure *)
  mutable last_failed : int;  (* op id of the latest failure *)
  mutable messages : int;  (* failure messages, of which the first 20 are printed *)
  mutable busy : float;  (* summed op latency, seconds *)
  samples : (string, float list) Hashtbl.t;
      (* "setup" set-up times, "op" every op's latency, [kind_name k] the
         ops of kind k (and the instance loads inside oneshot and batch ops
         as "write"), and the traced codec timings by layer name *)
  tallies : (string, float) Hashtbl.t;
  mutable checks : (string * out_channel) option;  (* file of deferred answers *)
  mutable heap_top_words : int;  (* Gc top heap when the timed loop ended *)
  answers_out : out_channel option;
  answers_in : in_channel option;
  mutable counters0 : (string * int) list;  (* Obs counters when set-up ended *)
  mutable gc0 : Gc.stat;
}

let create ~workload ~traced ~seconds ~fixed_ops ~reps ~answers_out ~answers_in =
  {
    workload;
    traced;
    seconds;
    fixed_ops;
    reps;
    cur_op = -1;
    attempted = 0;
    failed = 0;
    last_failed = min_int;
    messages = 0;
    busy = 0.;
    samples = Hashtbl.create 16;
    tallies = Hashtbl.create 64;
    checks = None;
    heap_top_words = 0;
    answers_out;
    answers_in;
    counters0 = [];
    gc0 = Gc.quick_stat ();
  }

let now = Obs.Clock.now

(* --- tallies: named sums kept by the benchmark itself --------------------- *)

let bump h key v =
  Hashtbl.replace h.tallies key (v +. Option.value ~default:0. (Hashtbl.find_opt h.tallies key))

let tally h key = Option.value ~default:0. (Hashtbl.find_opt h.tallies key)

(* --- samples: every value of a named quantity, kept exactly ------------- *)

let samples h key = Option.value ~default:[] (Hashtbl.find_opt h.samples key)
let record h key v = Hashtbl.replace h.samples key (v :: samples h key)

(* --- failures and answers ------------------------------------------------- *)

(* A failure counts once per op, however many checks of that op fail. *)
let fail h fmt =
  Printf.ksprintf
    (fun msg ->
      if h.cur_op <> h.last_failed then begin
        h.failed <- h.failed + 1;
        h.last_failed <- h.cur_op
      end;
      h.messages <- h.messages + 1;
      if h.messages <= 20 then Printf.eprintf "FAIL %s op %d: %s\n%!" h.workload h.cur_op msg)
    fmt

(* Deferred checks.  [defer h v] writes the current op's answer [v] (plain
   data, no closures) to a file under [check_dir]; [finish] reads the
   answers back after the timed loop and checks each with its op's id, so
   failures count against that op.  On disk, the answers of a long run cost
   the heap nothing. *)
let check_dir = Filename.concat "perfbench" "out"

let defer h v =
  let oc =
    match h.checks with
    | Some (_, oc) -> oc
    | None ->
      if not (Sys.file_exists check_dir) then Sys.mkdir check_dir 0o755;
      let path = Filename.temp_file ~temp_dir:check_dir h.workload ".checks" in
      let oc = open_out_bin path in
      h.checks <- Some (path, oc);
      oc
  in
  Marshal.to_channel oc (h.cur_op, v) []

(* Every op's answer, one line each.  An untraced run writes them; the
   traced run of the same seed and op count reads them back and demands the
   same answer from its layer-by-layer reproduction of the op, so the split
   describes the program that produced the end-to-end numbers. *)
let answer h summary =
  (match h.answers_out with
  | Some oc -> Printf.fprintf oc "%d %s\n" h.cur_op summary
  | None -> ());
  match h.answers_in with
  | None -> ()
  | Some ic -> (
    let mine = Printf.sprintf "%d %s" h.cur_op summary in
    match In_channel.input_line ic with
    | Some line when line = mine -> ()
    | Some line -> fail h "traced answer %S differs from untraced %S" mine line
    | None -> fail h "no untraced answer for %S" mine)

(* --- spans ---------------------------------------------------------------- *)

let cnt_pivots = Obs.Counter.create "simplex.pivots"
let cnt_nodes = Obs.Counter.create "bb.nodes"

let span_args h layer () =
  [ ("workload", h.workload); ("op", string_of_int h.cur_op); ("layer", layer) ]

(* One call into a layer.  Traced: a span named after the layer, plus the
   minor words, pivots and nodes spent inside it, tallied per layer. *)
let layer h name f =
  if not h.traced then f ()
  else begin
    let w0 = Gc.minor_words () in
    let p0 = Obs.Counter.value cnt_pivots and n0 = Obs.Counter.value cnt_nodes in
    let r = Obs.Trace.with_span ~args:(span_args h name) name f in
    bump h (name ^ ".minor_words") (Gc.minor_words () -. w0);
    bump h (name ^ ".pivots") (float_of_int (Obs.Counter.value cnt_pivots - p0));
    bump h (name ^ ".nodes") (float_of_int (Obs.Counter.value cnt_nodes - n0));
    bump h (name ^ ".calls") 1.;
    r
  end

(* --- the loop ------------------------------------------------------------- *)

let more h =
  match h.fixed_ops with Some k -> h.attempted < k | None -> h.busy < h.seconds

let op h kind f =
  let id = h.attempted in
  h.cur_op <- id;
  h.attempted <- id + 1;
  let w0 = if h.traced then Gc.minor_words () else 0. in
  let t0 = now () in
  let r =
    if h.traced then
      Obs.Trace.with_span
        ~args:(fun () -> ("kind", kind_name kind) :: span_args h "op" ())
        "op" f
    else f ()
  in
  let dt = now () -. t0 in
  if h.traced then bump h "gc.op_minor_words" (Gc.minor_words () -. w0);
  h.busy <- h.busy +. dt;
  record h "op" dt;
  record h (kind_name kind) dt;
  r

(* Set-up runs [reps] times, each from scratch; the last result is kept. *)
let setup h f =
  let rec go i =
    Gc.compact ();
    let t0 = now () in
    let r = f () in
    record h "setup" (now () -. t0);
    if i + 1 >= h.reps then r else go (i + 1)
  in
  let r = go 0 in
  h.counters0 <- Obs.Counter.snapshot ();
  h.gc0 <- Gc.quick_stat ();
  r

(* The end of the timed loop: the heap peak is read (set-up and timed ops,
   no deferred check has run yet), then [check] runs on every deferred
   answer in op order.  All [defer] calls of a run pass one type, the one
   [check] takes. *)
let finish h (check : 'a -> unit) =
  h.heap_top_words <- (Gc.quick_stat ()).Gc.top_heap_words;
  match h.checks with
  | None -> ()
  | Some (path, oc) ->
    close_out oc;
    h.checks <- None;
    In_channel.with_open_bin path (fun ic ->
        let rec go () =
          match (Marshal.from_channel ic : int * 'a) with
          | id, v ->
            h.cur_op <- id;
            check v;
            go ()
          | exception End_of_file -> ()
        in
        go ());
    Sys.remove path

(* --- statistics ----------------------------------------------------------- *)

(* The [ceil (p/100 * n)]-th smallest sample, the rank [Obs.Histogram]
   reports, but the sample itself rather than its bucket's midpoint: the
   metrics are printed as measured, with all their digits. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))
