(* Append-only JSONL log of per-solve records: the feature -> runtime
   corpus the adaptive portfolio dispatcher (ROADMAP) will learn from.
   Each [enable] appends one versioned header line marking a run boundary,
   then every solve appends one record.  The off path is a single atomic
   load ([record] takes a thunk, so callers build no fields when
   disabled); the on path takes a mutex — solves are milliseconds, a log
   line is microseconds. *)

let schema_version = 2

type log = { oc : out_channel; mu : Mutex.t }

let current : log option Atomic.t = Atomic.make None

let enabled () = Atomic.get current <> None

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
  let l = { oc; mu = Mutex.create () } in
  write_line l
    (Json.to_string (Json.Obj [ ("runlog", Json.Str "resil-solve"); ("version", Json.Int schema_version) ]));
  Atomic.set current (Some l)

let record fields =
  match Atomic.get current with
  | None -> ()
  | Some l -> write_line l (Json.to_string (Json.Obj (fields ())))
