(* Deletion propagation on a view — the reverse-data-management application
   that motivates resilience (Sections 1–2 of the paper): remove one output
   row from a view by deleting input tuples, under either objective
   (fewest inputs deleted, or fewest other outputs lost).

     dune exec examples/deletion_propagation.exe
*)

open Relalg
open Resilience

let () =
  (* A tiny authorship view: WrittenBy(author) :- Author(author, paper),
     Accepted(paper, venue).  Which interventions remove an author from the
     accepted list? *)
  let db = Database.create () in
  let add ?mult rel row = ignore (Database.add_named ?mult db rel row) in
  add "Author" [| "ada"; "p1" |];
  (* bob's authorship rows are duplicated (bag semantics), so deleting them
     is expensive — the cheap route goes through the Accepted rows, which
     hurts ada *)
  add ~mult:2 "Author" [| "bob"; "p1" |];
  add ~mult:2 "Author" [| "bob"; "p2" |];
  add "Author" [| "cyd"; "p3" |];
  add "Accepted" [| "p1"; "sigmod" |];
  add "Accepted" [| "p2"; "sigmod" |];
  add "Accepted" [| "p3"; "vldb" |];
  let q = Cq_parser.parse_with db "Author(a,p), Accepted(p,v)" in
  let head = [ "a" ] in
  let name c = Symbol.name (Database.symbols db) c in

  let rows = Deletion_propagation.output_rows q ~head db in
  Printf.printf "view rows: %s\n\n" (String.concat ", " (List.map (fun r -> name r.(0)) rows));

  let bob = Symbol.intern (Database.symbols db) "bob" in
  let show label = function
    | Solve.Solved a ->
      Printf.printf "%s:\n  delete:\n" label;
      List.iter
        (fun tid -> Printf.printf "    %s\n" (Database_io.print_tuple db tid))
        a.Deletion_propagation.deleted_inputs;
      if a.Deletion_propagation.lost_outputs = [] then
        print_endline "  no other view rows are lost"
      else begin
        Printf.printf "  also lost from the view:\n";
        List.iter
          (fun row -> Printf.printf "    %s\n" (name row.(0)))
          a.Deletion_propagation.lost_outputs
      end;
      print_newline ()
    | Solve.Query_false -> Printf.printf "%s: row not in the view\n\n" label
    | Solve.No_contingency -> Printf.printf "%s: impossible\n\n" label
    | Solve.Budget_exhausted _ -> Printf.printf "%s: budget exhausted\n\n" label
  in

  (* Objective (a): fewest input deletions (bag-weighted) — resilience of
     the Boolean specialisation.  Here the cheap plan deletes the Accepted
     rows and takes ada down with bob. *)
  show "source side effects (fewest input deletions, bag weights)"
    (Deletion_propagation.source_side_effects Problem.Bag q ~head db ~output:[| bob |]);

  (* Objective (b): fewest other view rows lost. *)
  show "view side effects (fewest collateral view rows)"
    (Deletion_propagation.view_side_effects q ~head db ~output:[| bob |])
