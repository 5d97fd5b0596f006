type discrepancy = {
  original : Gen.case;
  case : Gen.case;
  oracle : string;
  message : string;
  saved : string option;
}

type report = {
  instances : int;
  checks : int;
  discrepancies : discrepancy list;
  elapsed : float;
}

let run ?seconds ?instances ?(oracles = Oracle.all) ?corpus_dir ?(shrink = true) ~seed () =
  let start = Obs.Clock.now () in
  let deadline = Option.map (fun s -> start +. s) seconds in
  let limit =
    match (instances, seconds) with
    | Some n, _ -> n
    | None, Some _ -> max_int
    | None, None -> 100
  in
  let root = Splitmix.of_seed seed in
  let generated = ref 0 in
  let checks = ref 0 in
  let discrepancies = ref [] in
  let out_of_budget () =
    !generated >= limit
    || match deadline with Some d -> Obs.Clock.now () > d | None -> false
  in
  while not (out_of_budget ()) do
    (* The stream is a pure function of the run seed: one case seed is drawn
       per iteration, whatever the oracles then do with it. *)
    let case = Gen.of_seed (Gen.case_seed_of root) in
    incr generated;
    List.iter
      (fun (o : Oracle.t) ->
        if o.Oracle.applies case then begin
          incr checks;
          let verdict =
            try o.Oracle.check case
            with e -> Oracle.Fail ("oracle raised " ^ Printexc.to_string e)
          in
          match verdict with
          | Oracle.Pass -> ()
          | Oracle.Fail message ->
            let shrunk, shrunk_msg =
              if shrink then Shrink.shrink o case else (case, message)
            in
            let message = if shrunk_msg = "" then message else shrunk_msg in
            let saved =
              Option.map
                (fun dir ->
                  Corpus.save ~dir { Corpus.oracle = o.Oracle.name; message; case = shrunk })
                corpus_dir
            in
            discrepancies :=
              { original = case; case = shrunk; oracle = o.Oracle.name; message; saved }
              :: !discrepancies
        end)
      oracles
  done;
  {
    instances = !generated;
    checks = !checks;
    discrepancies = List.rev !discrepancies;
    elapsed = Obs.Clock.elapsed start;
  }

type replay_result = { path : string; entry : Corpus.entry; verdict : Oracle.verdict }

let replay_corpus ~dir =
  (* Parse failures are reported in-band: a corpus file that stopped loading
     is itself a regression. *)
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           match Corpus.load path with
           | entry -> { path; entry; verdict = Corpus.replay entry }
           | exception e ->
             let entry =
               {
                 Corpus.oracle = "<parse>";
                 message = Printexc.to_string e;
                 case = { Gen.seed = 0; profile = "corpus"; shape = Gen.Lp { Gen.frozen = Lp.Frozen.of_model (Lp.Model.create ()); deltas = [] } };
               }
             in
             { path; entry; verdict = Oracle.Fail ("failed to load: " ^ Printexc.to_string e) })
