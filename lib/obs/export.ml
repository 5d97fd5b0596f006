let args_json args =
  args
  |> List.map (fun (k, v) ->
         Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
  |> String.concat ","

(* Chrome "X" (complete) events only: no begin/end pairing to get wrong, and
   Perfetto nests overlapping completes on the same track automatically. *)
let write_chrome oc (spans : Trace.span list) =
  let origin = List.fold_left (fun acc s -> Float.min acc s.Trace.t0) infinity spans in
  let doms =
    List.sort_uniq compare (List.map (fun s -> s.Trace.dom) spans)
  in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let emit line =
    if not !first then output_string oc ",";
    first := false;
    output_string oc "\n";
    output_string oc line
  in
  List.iter
    (fun d ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
           d d))
    doms;
  List.iter
    (fun (s : Trace.span) ->
      let ts = (s.t0 -. origin) *. 1e6 in
      let dur = Float.max 0. (s.t1 -. s.t0) *. 1e6 in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"resil\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
           (Json.escape s.name) ts dur s.dom (args_json s.args)))
    spans;
  output_string oc "\n]}\n"

let chrome_to_file path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_chrome oc spans)

let stats_json (spans : Trace.span list) =
  let agg = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let count, total =
        match Hashtbl.find_opt agg s.Trace.name with Some ct -> ct | None -> (0, 0.)
      in
      Hashtbl.replace agg s.Trace.name (count + 1, total +. Float.max 0. (s.t1 -. s.t0)))
    spans;
  let span_rows =
    Hashtbl.fold (fun name ct acc -> (name, ct) :: acc) agg []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, (count, total)) ->
         Printf.sprintf "    \"%s\": {\"count\": %d, \"total_s\": %.6f}"
           (Json.escape name) count total)
  in
  let counter_rows =
    Counter.snapshot ()
    |> List.map (fun (name, v) -> Printf.sprintf "    \"%s\": %d" (Json.escape name) v)
  in
  let wall =
    match spans with
    | [] -> 0.
    | _ ->
      let lo = List.fold_left (fun acc s -> Float.min acc s.Trace.t0) infinity spans in
      let hi = List.fold_left (fun acc s -> Float.max acc s.Trace.t1) neg_infinity spans in
      Float.max 0. (hi -. lo)
  in
  Printf.sprintf "{\n  \"counters\": {\n%s\n  },\n  \"spans\": {\n%s\n  },\n  \"wall_s\": %.6f\n}"
    (String.concat ",\n" counter_rows)
    (String.concat ",\n" span_rows)
    wall
