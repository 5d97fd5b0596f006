(* Build-time specializer: turns the body of one field functor into a
   monomorphic compilation unit over floats.

     specialize.exe SOURCE FUNCTOR OPS [--open M] [--replace OLD NEW]...

   SOURCE holds the functor, opened by a line
   [module FUNCTOR (F : Numeric.Field.S) ... = struct] and closed by the
   first following line that is exactly [end].  The output binds
   [module F] to the text of OPS (the float field's operations), adds
   [open M] for each [--open], then copies the body, with each
   [--replace] swapping one whole line (matched without its indentation,
   exactly once).  Line directives point compiler messages at SOURCE and
   OPS, so the generated file is never the one to read or edit. *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  Array.of_list (go [])

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("specialize: " ^ msg);
      exit 2)
    fmt

let () =
  let source, functor_name, ops, rest =
    match Array.to_list Sys.argv with
    | _ :: source :: functor_name :: ops :: rest -> (source, functor_name, ops, rest)
    | _ -> fail "usage: specialize.exe SOURCE FUNCTOR OPS [--open M] [--replace OLD NEW]..."
  in
  let rec options opens replaces = function
    | [] -> (List.rev opens, List.rev replaces)
    | "--open" :: m :: rest -> options (m :: opens) replaces rest
    | "--replace" :: old_line :: new_line :: rest ->
      options opens ((old_line, new_line, ref 0) :: replaces) rest
    | arg :: _ -> fail "unexpected argument %S" arg
  in
  let opens, replaces = options [] [] rest in
  let lines = read_lines source in
  let n = Array.length lines in
  let header = Printf.sprintf "module %s (F : Numeric.Field.S)" functor_name in
  let first = ref (-1) in
  Array.iteri
    (fun i l ->
      if String.starts_with ~prefix:header l && String.ends_with ~suffix:"= struct" l then
        if !first < 0 then first := i else fail "%s: functor %s opened twice" source functor_name)
    lines;
  if !first < 0 then fail "%s: no line opening functor %s" source functor_name;
  let last = ref (-1) in
  for i = n - 1 downto !first + 1 do
    if lines.(i) = "end" then last := i
  done;
  if !last < 0 then fail "%s: functor %s is never closed" source functor_name;
  Printf.printf
    "(* Generated by lib/lp/gen/specialize.ml from functor %s of %s,\n\
    \   with F the float field of %s.  Edit those files, not this one. *)\n"
    functor_name source ops;
  (* The units export less than the whole field: no unused-value noise. *)
  print_string "module F = struct\n  [@@@warning \"-32\"]\n";
  Printf.printf "# 1 %S\n" ops;
  Array.iter print_endline (read_lines ops);
  print_string "end\n";
  List.iter (Printf.printf "open %s\n") opens;
  Printf.printf "# %d %S\n" (!first + 2) source;
  for i = !first + 1 to !last - 1 do
    let l = lines.(i) in
    let trimmed = String.trim l in
    match List.find_opt (fun (o, _, _) -> o = trimmed) replaces with
    | Some (_, nw, hits) ->
      incr hits;
      let indent = String.sub l 0 (String.index l trimmed.[0]) in
      print_endline (indent ^ nw)
    | None -> print_endline l
  done;
  List.iter
    (fun (o, _, hits) ->
      if !hits <> 1 then fail "%s: %S matched %d lines, expected 1" source o !hits)
    replaces
