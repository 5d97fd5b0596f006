(* Typed metric registry: counters, gauges and histograms under static
   label sets, with snapshot isolation (a snapshot reads each cell once
   into an immutable view) and two exposition formats — Prometheus text
   and flat JSON — both with a run-independent shape: every registered
   instrument is always exposed (zero-valued when untouched) and
   histograms render against a fixed bucket ladder, so digit-normalized
   goldens are stable across runs and job counts.

   Instruments are registered at module-init time (creation is idempotent
   per (name, labels)); recording is gated on [Sink.recording], so an
   un-armed process pays one atomic load per site.  Counters are bumped
   through [Counter]; their cells live in this table. *)

type gauge = float Atomic.t
type histogram = Histogram.t

type instrument = Icounter of int Atomic.t | Igauge of gauge | Ihist of histogram

type entry = { ename : string; ehelp : string; elabels : (string * string) list; einst : instrument }

let registry : (string * (string * string) list, entry) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let () =
  Sink.on_install (fun () ->
    Mutex.lock registry_mu;
    Hashtbl.iter
      (fun _ e ->
        match e.einst with
        | Icounter c -> Atomic.set c 0
        | Igauge g -> Atomic.set g 0.
        | Ihist h -> Histogram.reset h)
      registry;
    Mutex.unlock registry_mu)

let register ?(help = "") ?(labels = []) name make same =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  Mutex.lock registry_mu;
  let r =
    match Hashtbl.find_opt registry (name, labels) with
    | Some e -> (
      match same e.einst with
      | Some v -> v
      | None ->
        Mutex.unlock registry_mu;
        invalid_arg (Printf.sprintf "Obs.Metrics: %S re-registered with a different kind" name))
    | None ->
      let inst, v = make () in
      Hashtbl.add registry (name, labels)
        { ename = name; ehelp = help; elabels = labels; einst = inst };
      v
  in
  Mutex.unlock registry_mu;
  r

let counter_cell ?help name =
  register ?help name
    (fun () ->
      let c = Atomic.make 0 in
      (Icounter c, c))
    (function Icounter c -> Some c | Igauge _ | Ihist _ -> None)

let gauge ?help ?labels name =
  register ?help ?labels name
    (fun () ->
      let g = Atomic.make 0. in
      (Igauge g, g))
    (function Igauge g -> Some g | Icounter _ | Ihist _ -> None)

let histogram ?help ?labels name =
  register ?help ?labels name
    (fun () ->
      let h = Histogram.create () in
      (Ihist h, h))
    (function Ihist h -> Some h | Icounter _ | Igauge _ -> None)

let set g v = if Sink.recording () then Atomic.set g v
let observe h v = if Sink.recording () then Histogram.observe h v

(* --- snapshots ------------------------------------------------------------ *)

type value = Vcounter of int | Vgauge of float | Vhist of Histogram.snapshot

type series = {
  sname : string;
  shelp : string;
  slabels : (string * string) list;
  svalue : value;
}

let snapshot () =
  Mutex.lock registry_mu;
  let xs =
    Hashtbl.fold
      (fun _ e acc ->
        let v =
          match e.einst with
          | Icounter c -> Vcounter (Atomic.get c)
          | Igauge g -> Vgauge (Atomic.get g)
          | Ihist h -> Vhist (Histogram.snapshot h)
        in
        { sname = e.ename; shelp = e.ehelp; slabels = e.elabels; svalue = v } :: acc)
      registry []
  in
  Mutex.unlock registry_mu;
  List.sort (fun a b -> compare (a.sname, a.slabels) (b.sname, b.slabels)) xs

(* --- exposition ----------------------------------------------------------- *)

(* Fixed ladder shared by every histogram: the exposition's shape never
   depends on which buckets a run happened to populate. *)
let ladder = [ 1e-4; 1e-3; 1e-2; 0.1; 1.; 10.; 100.; 1e3; 1e4; 1e5 ]

let quantiles = [ ("p50", 50.); ("p90", 90.); ("p99", 99.); ("p999", 99.9) ]

let quantile_or_zero s p = if s.Histogram.total = 0 then 0. else Histogram.percentile_of s p

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let prom_labels = function
  | [] -> ""
  | ls ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) (Json.escape v))
           ls)
    ^ "}"

let prometheus_of series =
  let b = Buffer.create 4096 in
  let headed = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let n = sanitize s.sname in
      let kind =
        match s.svalue with Vcounter _ -> "counter" | Vgauge _ -> "gauge" | Vhist _ -> "histogram"
      in
      if not (Hashtbl.mem headed n) then begin
        Hashtbl.add headed n ();
        if s.shelp <> "" then
          Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" n (Json.escape s.shelp));
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" n kind)
      end;
      let lbl = prom_labels s.slabels in
      match s.svalue with
      | Vcounter v -> Buffer.add_string b (Printf.sprintf "%s%s %d\n" n lbl v)
      | Vgauge v -> Buffer.add_string b (Printf.sprintf "%s%s %.6f\n" n lbl v)
      | Vhist h ->
        let le bound = prom_labels (s.slabels @ [ ("le", bound) ]) in
        List.iter
          (fun bound ->
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" n
                 (le (Printf.sprintf "%g" bound))
                 (Histogram.cumulative_le h bound)))
          ladder;
        Buffer.add_string b (Printf.sprintf "%s_bucket%s %d\n" n (le "+Inf") h.Histogram.total);
        Buffer.add_string b (Printf.sprintf "%s_sum%s %.6f\n" n lbl (Histogram.sum_of h));
        Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" n lbl h.Histogram.total))
    series;
  Buffer.contents b

let prometheus () = prometheus_of (snapshot ())

let series_key s =
  s.sname
  ^
  match s.slabels with
  | [] -> ""
  | ls -> "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) ls) ^ "}"

let json_of series =
  let pick f = Json.Obj (List.filter_map f series) in
  Json.Obj
    [
      ( "counters",
        pick (fun s ->
            match s.svalue with Vcounter v -> Some (series_key s, Json.Int v) | _ -> None) );
      ( "gauges",
        pick (fun s ->
            match s.svalue with Vgauge v -> Some (series_key s, Json.Float v) | _ -> None) );
      ( "histograms",
        pick (fun s ->
            match s.svalue with
            | Vhist h ->
              Some
                ( series_key s,
                  Json.Obj
                    (("count", Json.Int h.Histogram.total)
                    :: ("sum", Json.Float (Histogram.sum_of h))
                    :: List.map (fun (qn, p) -> (qn, Json.Float (quantile_or_zero h p))) quantiles)
                )
            | _ -> None) );
    ]

let json () = json_of (snapshot ())
