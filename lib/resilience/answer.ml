open Relalg
open Obs.Json

type question = Res | Rsp

let status s = ("status", Str s)

let tuples db tids = List (List.map (fun tid -> Str (Database_io.print_tuple db tid)) tids)

let stats (s : Session.stats) =
  Obj
    [
      ("nodes", Int s.Session.nodes);
      ("root_lp", Float s.Session.root_lp);
      ("root_integral", Bool s.Session.root_integral);
      ("certified", Bool s.Session.certified);
      ("pivots", Int s.Session.pivots);
      ("refactors", Int s.Session.refactors);
      ("solve_ms", Float (1000. *. s.Session.solve_time));
    ]

let res db (a : Session.res_answer) =
  Obj
    [
      status "solved";
      ("value", Int a.Session.res_value);
      ("contingency", tuples db a.Session.contingency);
      ("stats", stats a.Session.res_stats);
    ]

let rsp db (a : Session.rsp_answer) =
  Obj
    [
      status "solved";
      ("value", Int a.Session.rsp_value);
      ("responsibility", Float (1.0 /. (1.0 +. float_of_int a.Session.rsp_value)));
      ("contingency", tuples db a.Session.responsibility_set);
      ("stats", stats a.Session.rsp_stats);
    ]

let family_stats (s : Enumerate.stats) =
  Obj
    [
      ("cuts", Int s.Enumerate.cuts);
      ("solves", Int s.Enumerate.solves);
      ("nodes", Int s.Enumerate.nodes);
      ("first_pivots", Int s.Enumerate.first_pivots);
      ("cut_pivots", Int s.Enumerate.cut_pivots);
      ("refactors", Int s.Enumerate.refactors);
      ("solve_ms", Float (1000. *. s.Enumerate.time));
    ]

let crit_row db (c : Enumerate.criticality) =
  Obj
    [
      ("tuple", Str (Database_io.print_tuple db c.Enumerate.crit_tuple));
      ("count", Int c.Enumerate.crit_count);
      ("total", Int c.Enumerate.crit_total);
      ("criticality", Float c.Enumerate.crit_float);
      ("exact", Str (Numeric.Rat.to_string c.Enumerate.crit_exact));
    ]

let family db ~shown (fam : Enumerate.family) =
  Obj
    [
      status "solved";
      ("value", Int fam.Enumerate.opt);
      ("count", Int (List.length fam.Enumerate.sets));
      ("exhausted", Bool fam.Enumerate.exhausted);
      ("sets", List (List.map (tuples db) shown));
      ("criticality", List (List.map (crit_row db) (Enumerate.criticality fam)));
      ("stats", family_stats fam.Enumerate.fstats);
    ]

let outcome question answer = function
  | Session.Solved a -> answer a
  | Session.Query_false -> (
    match question with
    | Res -> Obj [ status "query_false"; ("value", Int 0) ]
    | Rsp -> Obj [ status "query_false" ])
  | Session.No_contingency -> Obj [ status "no_contingency" ]
  | Session.Budget_exhausted _ -> Obj [ status "budget_exhausted" ]

let rank_row db ?criticality (tid, k, rho) =
  Obj
    ([
       ("tuple", Str (Database_io.print_tuple db tid));
       ("k", Int k);
       ("responsibility", Float rho);
     ]
    @ match criticality with Some c -> [ ("criticality", Float c) ] | None -> [])
