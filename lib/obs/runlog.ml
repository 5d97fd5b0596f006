(* Append-only JSONL log of per-solve records: the feature -> runtime
   corpus the adaptive portfolio dispatcher (ROADMAP) will learn from.
   Each [enable] appends one versioned header line marking a run boundary,
   then every solve appends one record.  The off path is a single atomic
   load ([record] takes a thunk, so callers build no fields when
   disabled); the on path takes a mutex — solves are milliseconds, a log
   line is microseconds. *)

let schema_version = 2

type field = I of int | F of float | B of bool | S of string

type log = { path : string; oc : out_channel; mu : Mutex.t }

let current : log option Atomic.t = Atomic.make None

let enabled () = Atomic.get current <> None

let render fields =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (Json_string.escape k));
      Buffer.add_string b
        (match v with
        | I n -> string_of_int n
        | F f -> if Float.is_finite f then Printf.sprintf "%.6f" f else "null"
        | B true -> "true"
        | B false -> "false"
        | S s -> Printf.sprintf "\"%s\"" (Json_string.escape s)))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let write_line l line =
  Mutex.lock l.mu;
  output_string l.oc line;
  output_char l.oc '\n';
  flush l.oc;
  Mutex.unlock l.mu

let disable () =
  match Atomic.exchange current None with
  | None -> ()
  | Some l ->
    Mutex.lock l.mu;
    close_out_noerr l.oc;
    Mutex.unlock l.mu

let enable path =
  disable ();
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let l = { path; oc; mu = Mutex.create () } in
  write_line l
    (render [ ("runlog", S "resil-solve"); ("version", I schema_version) ]);
  Atomic.set current (Some l)

let path () = Option.map (fun l -> l.path) (Atomic.get current)

let record fields =
  match Atomic.get current with
  | None -> ()
  | Some l -> write_line l (render (fields ()))
