(* Tests for the relational substrate: symbols, databases, the CQ AST and
   parser, witness evaluation, and the Chandra–Merlin machinery. *)

open Relalg

(* --- Symbol --------------------------------------------------------------- *)

let test_symbol () =
  let t = Symbol.create () in
  let a = Symbol.intern t "alice" in
  let b = Symbol.intern t "bob" in
  Alcotest.(check int) "stable" a (Symbol.intern t "alice");
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check string) "name" "alice" (Symbol.name t a);
  Alcotest.(check string) "fallback" "99" (Symbol.name t 99);
  Alcotest.(check bool) "mem" true (Symbol.mem t "bob");
  Alcotest.(check int) "size" 2 (Symbol.size t)

(* --- Database ------------------------------------------------------------- *)

let test_database_basics () =
  let db = Database.create () in
  let r1 = Database.add db "R" [| 1; 2 |] in
  let r2 = Database.add db "R" [| 1; 2 |] in
  Alcotest.(check int) "dedup id" r1 r2;
  Alcotest.(check int) "mult accumulated" 2 (Database.tuple db r1).Database.mult;
  Alcotest.(check int) "one distinct tuple" 1 (Database.num_tuples db);
  Alcotest.(check int) "total multiplicity" 2 (Database.total_multiplicity db);
  let s = Database.add ~mult:3 ~exo:true db "S" [| 5 |] in
  Alcotest.(check bool) "exo flag" true (Database.tuple db s).Database.exo;
  Alcotest.(check (list string)) "rel names" [ "R"; "S" ] (Database.rel_names db);
  Database.remove db r1;
  Alcotest.(check bool) "removed" false (Database.mem db r1);
  Alcotest.(check int) "one left" 1 (Database.num_tuples db);
  Alcotest.check_raises "arity clash" (Invalid_argument "Database.add: relation S has arity 1")
    (fun () -> ignore (Database.add db "S" [| 1; 2 |]))

let test_database_copy_restrict () =
  let db = Database.create () in
  let a = Database.add db "R" [| 1 |] in
  let b = Database.add db "R" [| 2 |] in
  let copy = Database.copy db in
  Database.remove copy a;
  Alcotest.(check bool) "original untouched" true (Database.mem db a);
  let only_b = Database.restrict db (fun info -> info.Database.id = b) in
  Alcotest.(check int) "restricted size" 1 (Database.num_tuples only_b);
  Alcotest.(check bool) "ids preserved" true (Database.mem only_b b)

(* Removing most tuples prunes retired ids from the order list; the live
   tuples keep their insertion order, in the database and in its copy. *)
let test_database_removals_keep_order () =
  let db = Database.create () in
  let ids = List.init 12 (fun i -> Database.add db "R" [| i; i |]) in
  List.iteri (fun i id -> if i mod 4 <> 1 then Database.remove db id) ids;
  let later = Database.add db "R" [| 99; 99 |] in
  let want = List.filteri (fun i _ -> i mod 4 = 1) ids @ [ later ] in
  let got db = List.map (fun info -> info.Database.id) (Database.tuples db) in
  Alcotest.(check (list int)) "live tuples in insertion order" want (got db);
  Alcotest.(check (list int)) "copy keeps the order" want (got (Database.copy db))

let test_database_max_const () =
  let db = Database.create () in
  ignore (Database.add db "R" [| 3; 42 |]);
  Alcotest.(check int) "max const" 42 (Database.max_const db);
  Alcotest.(check int) "empty" 0 (Database.max_const (Database.create ()))

(* --- Parser ---------------------------------------------------------------- *)

let test_parser_basics () =
  let q = Cq_parser.parse "Q2 :- R(x,y), S(y,z)" in
  Alcotest.(check string) "name" "Q2" q.Cq.name;
  Alcotest.(check int) "atoms" 2 (Array.length q.Cq.atoms);
  Alcotest.(check (list string)) "vars" [ "x"; "y"; "z" ] (Cq.vars q);
  Alcotest.(check bool) "sj-free" true (Cq.self_join_free q);
  let q2 = Cq_parser.parse "R(x,y), R(y,z)" in
  Alcotest.(check bool) "self-join" false (Cq.self_join_free q2)

let test_parser_constants_exo () =
  let syms = Symbol.create () in
  let q = Cq_parser.parse ~symbols:syms "A!(x), R(x, 7), S(x, 'srv')" in
  Alcotest.(check bool) "exo atom" true q.Cq.atoms.(0).Cq.exo;
  Alcotest.(check bool) "endo atom" false q.Cq.atoms.(1).Cq.exo;
  (match q.Cq.atoms.(1).Cq.terms.(1) with
  | Cq.Const 7 -> ()
  | _ -> Alcotest.fail "int constant");
  (match q.Cq.atoms.(2).Cq.terms.(1) with
  | Cq.Const c -> Alcotest.(check string) "interned" "srv" (Symbol.name syms c)
  | _ -> Alcotest.fail "string constant")

let test_parser_errors () =
  let bad s =
    match Cq_parser.parse s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  List.iter bad [ ""; "R(x"; "r(x)"; "R()"; "R(x,)"; "R(x) S(y)"; "R(X)" ]

(* Against a database, an atom whose arity differs from its stored
   relation is a parse error pointing at the atom, not a crash later in
   evaluation. *)
let test_parser_arity () =
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 2 |]);
  ignore (Database.add db "S" [| 2 |]);
  Alcotest.check_raises "S used with two terms"
    (Invalid_argument
       "Cq_parser: relation S has arity 1 but this atom has arity 2 at position 14 in \"Q :- R(x, \
        y), S(y, z)\"")
    (fun () -> ignore (Cq_parser.parse_with db "Q :- R(x, y), S(y, z)"));
  (* unknown relations stay legal (empty, so the query is simply false),
     and parsing without a database checks nothing *)
  Alcotest.(check int) "unknown relation" 2
    (Array.length (Cq_parser.parse_with db "R(x, y), T(y, z, w)").Cq.atoms);
  Alcotest.(check int) "no database" 2 (Array.length (Cq_parser.parse "R(x), S(y, z)").Cq.atoms)

let test_parser_roundtrip () =
  let q = Cq_parser.parse "Q :- A!(x), R(x,y)" in
  let s = Cq.to_string q in
  let q' = Cq_parser.parse s in
  Alcotest.(check bool) "roundtrip" true (Cq.equal q q')

(* --- CQ structure ----------------------------------------------------------- *)

let test_cq_structure () =
  let q = Cq_parser.parse "R(x,y), S(y,z), T(z,x)" in
  Alcotest.(check bool) "connected" true (Cq.connected q);
  Alcotest.(check int) "components" 1 (List.length (Cq.components q));
  let disc = Cq_parser.parse "R(x,y), S(u,v)" in
  Alcotest.(check bool) "disconnected" false (Cq.connected disc);
  Alcotest.(check int) "two components" 2 (List.length (Cq.components disc));
  Alcotest.(check (list int)) "atoms sharing y" [ 0; 1 ] (Cq.atoms_sharing q "y");
  (* triangle: R and S connect directly via y, which avoids var(T)={z,x} *)
  Alcotest.(check bool) "path avoiding T" true
    (Cq.atoms_connected_avoiding q 0 1 ~avoid:[ "z"; "x" ]);
  (* but R and T cannot avoid var(S)={y,z}: they share only x... which is fine *)
  Alcotest.(check bool) "path avoiding S" true
    (Cq.atoms_connected_avoiding q 0 2 ~avoid:[ "y"; "z" ]);
  let star = Cq_parser.parse "R(x), S(y), W(x,y)" in
  (* R to S must go through W, but every connection uses x or y *)
  Alcotest.(check bool) "no path avoiding W" false
    (Cq.atoms_connected_avoiding star 0 1 ~avoid:[ "x"; "y" ])

let test_var_reachability () =
  let q = Cq_parser.parse "R(x,y), S(y,z), T(z,u)" in
  (* y reaches T only through z; blocking z cuts it *)
  Alcotest.(check bool) "y reaches T" true (Cq.var_reaches_atom_avoiding q "y" 2 ~blocked:[]);
  Alcotest.(check bool) "blocked" false (Cq.var_reaches_atom_avoiding q "y" 2 ~blocked:[ "z" ])

let test_rename_set_exo () =
  let q = Cq_parser.parse "R(x,y), S(y,z)" in
  let q' = Cq.rename_rel q "R" "R2" in
  Alcotest.(check (list string)) "renamed" [ "R2"; "S" ] (Cq.rel_names q');
  let q'' = Cq.set_exo q 1 true in
  Alcotest.(check bool) "exo set" true q''.Cq.atoms.(1).Cq.exo;
  Alcotest.(check bool) "original untouched" false q.Cq.atoms.(1).Cq.exo

(* --- Evaluation --------------------------------------------------------------- *)

let test_eval_chain () =
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 2 |]);
  ignore (Database.add db "S" [| 2; 3 |]);
  ignore (Database.add db "S" [| 2; 4 |]);
  let q = Cq_parser.parse "R(x,y), S(y,z)" in
  let ws = Eval.witnesses q db in
  Alcotest.(check int) "two witnesses" 2 (List.length ws);
  Alcotest.(check bool) "holds" true (Eval.holds q db);
  Alcotest.(check int) "unique tuple sets" 2 (List.length (Eval.unique_tuple_sets ws));
  let valuation = Eval.valuation q db in
  let vals = List.map (fun w -> List.assoc "z" (valuation w)) ws |> List.sort compare in
  Alcotest.(check (list int)) "z values" [ 3; 4 ] vals

let test_eval_self_join () =
  (* Example 1 of the paper: R(x,y), R(y,z) over {(1,1),(2,3),(3,4)} *)
  let db = Database.create () in
  let r11 = Database.add db "R" [| 1; 1 |] in
  ignore (Database.add db "R" [| 2; 3 |]);
  ignore (Database.add db "R" [| 3; 4 |]);
  let q = Cq_parser.parse "R(x,y), R(y,z)" in
  let ws = Eval.witnesses q db in
  Alcotest.(check int) "two witnesses" 2 (List.length ws);
  (* the (1,1,1) witness uses a single tuple *)
  let sizes = List.map (fun w -> List.length (Eval.tuple_set w)) ws |> List.sort compare in
  Alcotest.(check (list int)) "tuple set sizes" [ 1; 2 ] sizes;
  Alcotest.(check int) "r11 in one witness" 1
    (List.length (List.filter (fun w -> List.mem r11 (Eval.tuple_set w)) ws))

let test_eval_repeated_var () =
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 1 |]);
  ignore (Database.add db "R" [| 1; 2 |]);
  let q = Cq_parser.parse "R(x,x)" in
  Alcotest.(check int) "diagonal only" 1 (Eval.count q db)

let test_eval_constants () =
  let db = Database.create () in
  ignore (Database.add_named db "AccessLog" [| "1"; "IMAP"; "S" |]);
  ignore (Database.add_named db "AccessLog" [| "1"; "IMAP"; "X" |]);
  let q = Cq_parser.parse_with db "AccessLog(x, y, 'S')" in
  Alcotest.(check int) "selection" 1 (Eval.count q db)

let test_eval_empty () =
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 2 |]);
  let q = Cq_parser.parse "R(x,y), S(y,z)" in
  Alcotest.(check bool) "no S tuples" false (Eval.holds q db);
  Alcotest.(check int) "no witnesses" 0 (Eval.count q db)

let test_eval_cartesian () =
  let db = Database.create () in
  for i = 1 to 3 do
    ignore (Database.add db "R" [| i |])
  done;
  for i = 1 to 4 do
    ignore (Database.add db "S" [| i |])
  done;
  let q = Cq_parser.parse "R(x), S(y)" in
  Alcotest.(check int) "cross product" 12 (Eval.count q db)

(* Oracle: naive evaluation by enumerating all tuple combinations. *)
let naive_count q db =
  let atoms = Array.to_list q.Cq.atoms in
  let rec go binding = function
    | [] -> 1
    | (a : Cq.atom) :: rest ->
      List.fold_left
        (fun acc info ->
          let binding' = ref (Some binding) in
          Array.iteri
            (fun i term ->
              match !binding' with
              | None -> ()
              | Some b -> (
                let v = info.Database.args.(i) in
                match term with
                | Cq.Const c -> if c <> v then binding' := None
                | Cq.Var x -> (
                  match List.assoc_opt x b with
                  | Some v' -> if v <> v' then binding' := None
                  | None -> binding' := Some ((x, v) :: b))))
            a.Cq.terms;
          match !binding' with Some b -> acc + go b rest | None -> acc)
        0
        (Database.tuples_of db a.Cq.rel)
  in
  go [] atoms

let arb_instance =
  let gen =
    QCheck.Gen.(
      let* nr = int_range 1 8 in
      let* ns = int_range 1 8 in
      let* rs = list_repeat nr (pair (int_range 0 3) (int_range 0 3)) in
      let* ss = list_repeat ns (pair (int_range 0 3) (int_range 0 3)) in
      return (rs, ss))
  in
  QCheck.make gen

let prop_eval_matches_naive =
  QCheck.Test.make ~name:"indexed join = naive join" ~count:300 arb_instance (fun (rs, ss) ->
      let db = Database.create () in
      List.iter (fun (a, b) -> ignore (Database.add db "R" [| a; b |])) rs;
      List.iter (fun (a, b) -> ignore (Database.add db "S" [| a; b |])) ss;
      List.for_all
        (fun qs ->
          let q = Cq_parser.parse qs in
          Eval.count q db = naive_count q db)
        [ "R(x,y), S(y,z)"; "R(x,y), S(x,z)"; "R(x,y), R(y,z)"; "R(x,x)"; "R(x,y), S(y,x)" ])

(* A fresh insert's delta join finds exactly the post-insert witnesses that
   use the tuple, each once: the self-joins find some witnesses from several
   pivots, and a skipped pivot loses those only it reaches. *)
let prop_delta_insert_matches_witnesses =
  let queries =
    List.map Cq_parser.parse
      [ "R(x,y), S(y,z)"; "R(x,y), S(y,z), T(z,x)"; "R(x,y), R(y,z)"; "R(x,y), R(y,z), R(z,x)";
        "R(x,x), S(x,1)" ]
  in
  Harness.seeded_prop ~count:300 "delta_insert = post-insert witnesses with the tuple"
    (fun rng ->
      let db = Database.create () in
      let rels = [| "R"; "S"; "T" |] in
      let pick () = [| Random.State.int rng 4; Random.State.int rng 4 |] in
      Array.iter
        (fun rel ->
          for _ = 1 to 1 + Random.State.int rng 8 do
            ignore (Database.add db rel (pick ()))
          done)
        rels;
      let rec fresh () =
        let rel = rels.(Random.State.int rng 3) and args = pick () in
        if Database.find db rel args = None then (rel, args) else fresh ()
      in
      let rel, args = fresh () in
      let id = Database.add db rel args in
      let rows ws = List.sort compare (List.map (fun w -> Array.to_list w.Eval.tuples) ws) in
      let ok =
        List.for_all
          (fun q ->
            rows (Eval.delta_insert q db id)
            = rows (List.filter (fun w -> Array.mem id w.Eval.tuples) (Eval.witnesses q db)))
          queries
      in
      Database.remove db id;
      ok && List.for_all (fun q -> Eval.delta_insert q db id = []) queries)

(* --- Homomorphism / minimization -------------------------------------------- *)

let test_hom_exists () =
  let chain2 = Cq_parser.parse "R(x,y), R(y,z)" in
  let chain3 = Cq_parser.parse "R(x,y), R(y,z), R(z,u)" in
  Alcotest.(check bool) "2-chain -> 3-chain" true (Homomorphism.exists chain2 chain3);
  (* the directed 3-chain does NOT fold into the 2-chain *)
  Alcotest.(check bool) "3-chain -> 2-chain: no" false (Homomorphism.exists chain3 chain2);
  let fork = Cq_parser.parse "R(x,y), R(z,y)" in
  let edge = Cq_parser.parse "R(x,y)" in
  Alcotest.(check bool) "fork folds onto one edge" true (Homomorphism.exists fork edge);
  let tri = Cq_parser.parse "R(x,y), R(y,z), R(z,x)" in
  Alcotest.(check bool) "chain -> triangle" true (Homomorphism.exists chain2 tri);
  Alcotest.(check bool) "triangle -> chain: no" false (Homomorphism.exists tri chain2)

let test_minimize () =
  let q = Cq_parser.parse "R(x,y), R(y,z), R(x,u)" in
  let qmin = Homomorphism.minimize q in
  Alcotest.(check int) "folded to 2 atoms" 2 (Array.length qmin.Cq.atoms);
  Alcotest.(check bool) "minimal now" true (Homomorphism.is_minimal qmin);
  let tri = Cq_parser.parse "R(x,y), S(y,z), T(z,x)" in
  Alcotest.(check bool) "triangle is minimal" true (Homomorphism.is_minimal tri);
  Alcotest.(check bool) "query equivalent" true
    (Homomorphism.exists q qmin && Homomorphism.exists qmin q)

let test_canonical_db () =
  let q = Cq_parser.parse "A!(x), R(x,y), S(y,z)" in
  let db, mapping = Homomorphism.canonical_db q in
  Alcotest.(check int) "one tuple per atom" 3 (Database.num_tuples db);
  Alcotest.(check int) "three constants" 3 (List.length mapping);
  Alcotest.(check bool) "query holds on canonical db" true (Eval.holds q db);
  let a = List.hd (Database.tuples_of db "A") in
  Alcotest.(check bool) "exo carried over" true a.Database.exo

(* --- Database_io ------------------------------------------------------------- *)

let test_database_io () =
  let text = "# comment\nR(1, 2)\nS('alice', 7) x3\nA(1) !\n\n" in
  let db = Database_io.parse_string text in
  Alcotest.(check int) "three tuples" 3 (Database.num_tuples db);
  let s = List.hd (Database.tuples_of db "S") in
  Alcotest.(check int) "mult" 3 s.Database.mult;
  let a = List.hd (Database.tuples_of db "A") in
  Alcotest.(check bool) "exo" true a.Database.exo;
  (* print/parse roundtrip *)
  let printed = Database_io.print_tuple db s.Database.id in
  let db2 = Database.create ~symbols:(Database.symbols db) () in
  ignore (Database_io.parse_line db2 printed);
  let s2 = List.hd (Database.tuples_of db2 "S") in
  Alcotest.(check bool) "roundtrip args" true (s2.Database.args = s.Database.args);
  Alcotest.(check int) "roundtrip mult" 3 s2.Database.mult

(* --- Provenance -------------------------------------------------------------- *)

let test_provenance_dnf () =
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 2 |]);
  ignore (Database.add db "S" [| 2; 3 |]);
  ignore (Database.add db "S" [| 2; 4 |]);
  let q = Cq_parser.parse "R(x,y), S(y,z)" in
  let dnf = Provenance.why q db in
  Alcotest.(check int) "two clauses" 2 (List.length dnf);
  List.iter (fun c -> Alcotest.(check int) "binary clauses" 2 (List.length c)) dnf

let test_provenance_factorize_star () =
  (* r * (s1 + s2): a read-once star *)
  let db = Database.create () in
  let r = Database.add db "R" [| 1; 2 |] in
  ignore (Database.add db "S" [| 2; 3 |]);
  ignore (Database.add db "S" [| 2; 4 |]);
  let q = Cq_parser.parse "R(x,y), S(y,z)" in
  match Provenance.read_once q db with
  | Some e ->
    Alcotest.(check int) "each tuple once" 3 (List.length (Provenance.tuples_of e));
    (* shape: And [r; Or [s; s]] after simplification *)
    (match e with
    | Provenance.And [ Provenance.Tuple t; Provenance.Or [ _; _ ] ] ->
      Alcotest.(check int) "factored tuple is r" r t
    | _ -> Alcotest.fail "unexpected factorization shape")
  | None -> Alcotest.fail "star must be read-once"

let test_provenance_grid_not_read_once () =
  (* the 2x2 grid (a+b)(c+d) expanded is read-once via the cross product,
     but the chain grid r11-s17 / r11-s18 / r21-s17 is NOT *)
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 1 |]);
  ignore (Database.add db "R" [| 2; 1 |]);
  ignore (Database.add db "S" [| 1; 7 |]);
  ignore (Database.add db "S" [| 1; 8 |]);
  let q = Cq_parser.parse "R(x,y), S(y,z)" in
  (* witnesses = full 2x2 grid: (a+b)(c+d) — read-once by AND-split! *)
  (match Provenance.read_once q db with
  | Some e -> Alcotest.(check int) "cross product factorizes" 4 (List.length (Provenance.tuples_of e))
  | None -> Alcotest.fail "2x2 grid is a cross product, hence read-once");
  (* remove one S tuple's pairing by splitting the join value: now a true P4 *)
  let db2 = Database.create () in
  ignore (Database.add db2 "R" [| 1; 1 |]);
  ignore (Database.add db2 "R" [| 2; 1 |]);
  ignore (Database.add db2 "R" [| 2; 2 |]);
  ignore (Database.add db2 "S" [| 1; 7 |]);
  ignore (Database.add db2 "S" [| 2; 8 |]);
  (* witnesses: {r11,s17} {r21,s17} {r22,s28} — path sharing, still
     read-once: s17*(r11+r21) + r22*s28 ... build a genuine non-read-once:
     P4 = x1y1, y1x2, x2y2 chain of co-occurrence *)
  let db3 = Database.create () in
  ignore (Database.add db3 "R" [| 1; 1 |]);
  ignore (Database.add db3 "R" [| 1; 2 |]);
  ignore (Database.add db3 "S" [| 1; 7 |]);
  ignore (Database.add db3 "S" [| 2; 7 |]);
  ignore (Database.add db3 "S" [| 2; 8 |]);
  (* witnesses: r11s17; r12s27; r12s28 — clauses r11*s17 + r12*s27 + r12*s28
     = r11*s17 + r12*(s27+s28): read-once again!  The smallest non-read-once
     needs the grid minus a corner: *)
  let db4 = Database.create () in
  ignore (Database.add db4 "R" [| 1; 1 |]);
  ignore (Database.add db4 "R" [| 2; 1 |]);
  ignore (Database.add db4 "R" [| 2; 2 |]);
  ignore (Database.add db4 "S" [| 1; 7 |]);
  ignore (Database.add db4 "S" [| 2; 7 |]);
  (* y=1: r11,r21 x s17; y=2: r22 x s27... different S tuples: witnesses
     {r11,s17},{r21,s17},{r22,s27} — still read-once.  Use self-join chain
     R(1,1),R(1,2),R(2,2): witnesses r11*r11? ... *)
  ignore db2;
  ignore db4;
  (* A guaranteed non-read-once DNF, fed to factorize directly:
     ab + bc + cd (the P4 itself). *)
  Alcotest.(check bool) "P4 DNF is not read-once" true
    (Provenance.factorize [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ] = None)

let test_provenance_cross_product () =
  match Provenance.factorize [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ] with
  | Some e ->
    (match e with
    | Provenance.And [ Provenance.Or [ _; _ ]; Provenance.Or [ _; _ ] ] -> ()
    | _ -> Alcotest.fail "expected (1+2)(3+4)")
  | None -> Alcotest.fail "cross product must factorize"

let arb_dnf =
  let gen =
    QCheck.Gen.(
      let* nclauses = int_range 1 6 in
      list_repeat nclauses (list_size (int_range 1 4) (int_range 0 6)))
  in
  QCheck.make gen

let prop_factorization_equivalent =
  QCheck.Test.make ~name:"factorization is logically equivalent to the DNF" ~count:500 arb_dnf
    (fun clauses ->
      let clauses = List.map (List.sort_uniq compare) clauses |> List.sort_uniq compare in
      (* make irredundant *)
      let clauses =
        List.filter
          (fun c ->
            not
              (List.exists (fun c' -> c' <> c && List.for_all (fun t -> List.mem t c) c') clauses))
          clauses
      in
      match Provenance.factorize clauses with
      | None -> true
      | Some e ->
        (* each tuple at most once *)
        let occurrences =
          let rec count acc = function
            | Provenance.Tuple _ -> acc + 1
            | Provenance.And es | Provenance.Or es -> List.fold_left count acc es
          in
          count 0 e
        in
        occurrences = List.length (Provenance.tuples_of e)
        &&
        (* equivalence over all assignments of the mentioned tuples *)
        let vars = List.concat clauses |> List.sort_uniq compare in
        let n = List.length vars in
        let ok = ref true in
        for mask = 0 to (1 lsl n) - 1 do
          let assignment t =
            let rec idx i = function
              | [] -> false
              | v :: rest -> if v = t then mask land (1 lsl i) <> 0 else idx (i + 1) rest
            in
            idx 0 vars
          in
          if Provenance.eval e assignment <> Provenance.eval_dnf clauses assignment then
            ok := false
        done;
        !ok)

let prop_factorize_implies_integral_lp =
  (* Theorem J.1: read-once instances have integral LP relaxations.  (The
     P4 pattern test in Resilience.Instance is a *sufficient* condition for
     balancedness only: a 2x2 cross-product grid factorizes although it
     contains the pattern, so we test against the LP directly.) *)
  Harness.seeded_prop ~count:200 "read-once factorization => LP[RES*] integral" (fun rng ->
      let db = Database.create () in
      for _ = 1 to 5 do
        ignore (Database.add db "R" [| Random.State.int rng 3; Random.State.int rng 3 |])
      done;
      for _ = 1 to 5 do
        ignore (Database.add db "S" [| Random.State.int rng 3; Random.State.int rng 3 |])
      done;
      let q = Cq_parser.parse "R(x,y), S(y,z)" in
      match Provenance.read_once q db with
      | None -> true
      | Some _ -> (
        match
          ( Resilience.Solve.resilience Resilience.Problem.Set q db,
            Resilience.Solve.resilience_lp Resilience.Problem.Set q db )
        with
        | Resilience.Solve.Solved a, Some lp ->
          Float.abs (float_of_int a.Resilience.Solve.res_value -. lp) < 1e-6
        | Resilience.Solve.Query_false, None -> true
        | _ -> false))

let () =
  let q = Harness.qtest in
  Alcotest.run "relalg"
    [
      ("symbol", [ Alcotest.test_case "interning" `Quick test_symbol ]);
      ( "database",
        [
          Alcotest.test_case "basics" `Quick test_database_basics;
          Alcotest.test_case "copy/restrict" `Quick test_database_copy_restrict;
          Alcotest.test_case "max_const" `Quick test_database_max_const;
          Alcotest.test_case "removals keep insertion order" `Quick
            test_database_removals_keep_order;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basics" `Quick test_parser_basics;
          Alcotest.test_case "constants and exogenous" `Quick test_parser_constants_exo;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "arity against the database" `Quick test_parser_arity;
          Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
        ] );
      ( "cq",
        [
          Alcotest.test_case "structure" `Quick test_cq_structure;
          Alcotest.test_case "variable reachability" `Quick test_var_reachability;
          Alcotest.test_case "rename / set_exo" `Quick test_rename_set_exo;
        ] );
      ( "eval",
        [
          Alcotest.test_case "chain" `Quick test_eval_chain;
          Alcotest.test_case "self-join" `Quick test_eval_self_join;
          Alcotest.test_case "repeated variable" `Quick test_eval_repeated_var;
          Alcotest.test_case "constants" `Quick test_eval_constants;
          Alcotest.test_case "empty relation" `Quick test_eval_empty;
          Alcotest.test_case "cartesian" `Quick test_eval_cartesian;
          q prop_eval_matches_naive;
          q prop_delta_insert_matches_witnesses;
        ] );
      ( "homomorphism",
        [
          Alcotest.test_case "existence" `Quick test_hom_exists;
          Alcotest.test_case "minimization" `Quick test_minimize;
          Alcotest.test_case "canonical database" `Quick test_canonical_db;
        ] );
      ("io", [ Alcotest.test_case "text format" `Quick test_database_io ]);
      ( "provenance",
        [
          Alcotest.test_case "why DNF" `Quick test_provenance_dnf;
          Alcotest.test_case "star factorizes" `Quick test_provenance_factorize_star;
          Alcotest.test_case "P4 does not factorize" `Quick test_provenance_grid_not_read_once;
          Alcotest.test_case "cross product factorizes" `Quick test_provenance_cross_product;
          q prop_factorization_equivalent;
          q prop_factorize_implies_integral_lp;
        ] );
    ]
