open Relalg

type relaxation = Ilp | Milp | Lp

type encoding = {
  model : Lp.Model.t;
  tuple_of_var : (Lp.Model.var * Database.tuple_id) list;
  var_of_tuple : (Database.tuple_id, Lp.Model.var) Hashtbl.t;
  witness_vars : Lp.Model.var list;
}

type outcome = Encoded of encoding | Trivial of int | Impossible

(* Declare a tuple decision variable on demand. *)
let tuple_var model semantics db integer var_of_tuple tuple_of_var tid =
  match Hashtbl.find_opt var_of_tuple tid with
  | Some v -> v
  | None ->
    let info = Database.tuple db tid in
    let name = Printf.sprintf "X_%s_%d" info.Database.rel tid in
    (* The binary bound is declared honestly (Model rejects unbounded
       integer variables).  It costs the solver no row: [Lp.Simplex] keeps
       finite upper bounds natively as per-column bounds, so the dual
       simplex still sees exactly one row per witness. *)
    let v =
      Lp.Model.add_var ~name ~integer ~upper:1 ~obj:(Problem.weight semantics info) model
    in
    Hashtbl.add var_of_tuple tid v;
    tuple_of_var := (v, tid) :: !tuple_of_var;
    v

let res_of_witnesses relax semantics q db witnesses =
  if witnesses = [] then Trivial 0
  else begin
    let integer = match relax with Ilp -> true | Milp | Lp -> false in
    let model = Lp.Model.create () in
    let var_of_tuple = Hashtbl.create 64 in
    let tuple_of_var = ref [] in
    let impossible = ref false in
    let sets = Eval.unique_tuple_sets witnesses in
    List.iter
      (fun tuple_set ->
        let endo = List.filter (fun tid -> not (Problem.tuple_exo q db tid)) tuple_set in
        if endo = [] then impossible := true
        else begin
          let expr =
            List.map
              (fun tid -> (tuple_var model semantics db integer var_of_tuple tuple_of_var tid, 1))
              endo
          in
          Lp.Model.add_constr model expr Lp.Model.Geq 1
        end)
      sets;
    if !impossible then Impossible
    else Encoded { model; tuple_of_var = List.rev !tuple_of_var; var_of_tuple; witness_vars = [] }
  end

let res relax semantics q db = res_of_witnesses relax semantics q db (Eval.witnesses q db)

let rsp_of_witnesses relax semantics q db witnesses t =
  let with_t, without_t =
    List.partition (fun w -> List.mem t (Eval.tuple_set w)) witnesses
  in
  if with_t = [] then Impossible
  else begin
    let tuple_integer = match relax with Ilp -> true | Milp | Lp -> false in
    let witness_integer = match relax with Ilp | Milp -> true | Lp -> false in
    let model = Lp.Model.create () in
    let var_of_tuple = Hashtbl.create 64 in
    let tuple_of_var = ref [] in
    let impossible = ref false in
    (* Resilience constraints over the witnesses not containing t.  Only the
       tuples of these witnesses are candidates for deletion; t itself never
       is (it must survive to be counterfactual). *)
    let tracked = Hashtbl.create 64 in
    let without_sets = Eval.unique_tuple_sets without_t in
    List.iter
      (fun tuple_set ->
        let endo =
          List.filter (fun tid -> tid <> t && not (Problem.tuple_exo q db tid)) tuple_set
        in
        if endo = [] then impossible := true
        else begin
          let expr =
            List.map
              (fun tid ->
                Hashtbl.replace tracked tid ();
                (tuple_var model semantics db tuple_integer var_of_tuple tuple_of_var tid, 1))
              endo
          in
          Lp.Model.add_constr model expr Lp.Model.Geq 1
        end)
      without_sets;
    if !impossible then Impossible
    else begin
      (* Witness indicators for the (distinct) witnesses containing t, with
         tracking constraints X[w] >= X[t'] for the tracked tuples they
         use. *)
      let with_sets = Eval.unique_tuple_sets with_t in
      let witness_vars =
        List.mapi
          (fun i tuple_set ->
            let wv =
              Lp.Model.add_var
                ~name:(Printf.sprintf "W_%d" i)
                ~integer:witness_integer ~upper:1 model
            in
            List.iter
              (fun tid ->
                if tid <> t && Hashtbl.mem tracked tid then begin
                  let tv = Hashtbl.find var_of_tuple tid in
                  (* X[w] - X[t'] >= 0 *)
                  Lp.Model.add_constr model [ (wv, 1); (tv, -1) ] Lp.Model.Geq 0
                end)
              tuple_set;
            wv)
          with_sets
      in
      (* Counterfactual: at least one witness containing t survives. *)
      Lp.Model.add_constr model
        (List.map (fun wv -> (wv, 1)) witness_vars)
        Lp.Model.Leq
        (List.length witness_vars - 1);
      Encoded { model; tuple_of_var = List.rev !tuple_of_var; var_of_tuple; witness_vars }
    end
  end

let rsp relax semantics q db t = rsp_of_witnesses relax semantics q db (Eval.witnesses q db) t

(* --- Shared super-model --------------------------------------------------- *)

type shared = {
  sfz : Lp.Frozen.t;
  stuple_of_var : (Lp.Model.var * Database.tuple_id) list;
  svar_of_tuple : (Database.tuple_id, Lp.Model.var) Hashtbl.t;
  switnesses : (Lp.Model.var * Database.tuple_id list) list;
  sz : Lp.Model.var;
}

type shared_outcome = Shared of shared | Shared_trivial | Shared_impossible

let shared_of_witnesses relax semantics q db witnesses =
  if witnesses = [] then Shared_trivial
  else begin
    let sets = Eval.unique_tuple_sets witnesses in
    let endo_of =
      List.map (fun set -> List.filter (fun tid -> not (Problem.tuple_exo q db tid)) set) sets
    in
    if List.exists (fun endo -> endo = []) endo_of then Shared_impossible
    else begin
      let tuple_integer = match relax with Ilp -> true | Milp | Lp -> false in
      let witness_integer = match relax with Ilp | Milp -> true | Lp -> false in
      let model = Lp.Model.create () in
      let var_of_tuple = Hashtbl.create 64 in
      let tuple_of_var = ref [] in
      (* One indicator per distinct witness tuple set, tied to its endogenous
         tuples from both sides:
         - tracking    W[w] - X[t'] >= 0   (deleting t' destroys w);
         - destruction sum X[t'] - W[w] >= 0  (w only counts as destroyed if
           some tuple of it was actually deleted).
         Fixing every W to 1 collapses the rows to the plain covering program
         ILP[RES*]; fixing Z to 0 and the W of every witness avoiding t to 1
         yields ILP[RSP*](t) — so one frozen matrix serves the whole batch as
         bound overlays ({!Lp.Frozen.Delta}). *)
      let next_w = ref 0 in
      let witness_vars =
        List.map2
          (fun tuple_set endo ->
            let i = !next_w in
            incr next_w;
            let wv =
              Lp.Model.add_var
                ~name:(Printf.sprintf "W_%d" i)
                ~integer:witness_integer ~upper:1 model
            in
            let expr =
              List.map
                (fun tid ->
                  let tv =
                    tuple_var model semantics db tuple_integer var_of_tuple tuple_of_var tid
                  in
                  Lp.Model.add_constr model [ (wv, 1); (tv, -1) ] Lp.Model.Geq 0;
                  (tv, 1))
                endo
            in
            Lp.Model.add_constr model ((wv, -1) :: expr) Lp.Model.Geq 0;
            (wv, tuple_set))
          sets endo_of
      in
      (* Counterfactual with an escape hatch: sum W - Z <= |W| - 1.  With
         Z = 1 the row is vacuous (resilience); with Z = 0 it demands a
         surviving witness (responsibility). *)
      let z = Lp.Model.add_var ~name:"Z" ~upper:1 model in
      Lp.Model.add_constr model
        ((z, -1) :: List.map (fun (wv, _) -> (wv, 1)) witness_vars)
        Lp.Model.Leq
        (List.length witness_vars - 1);
      Shared
        {
          sfz = Lp.Frozen.of_model model;
          stuple_of_var = List.rev !tuple_of_var;
          svar_of_tuple = var_of_tuple;
          switnesses = witness_vars;
          sz = z;
        }
    end
  end

let contingency enc x =
  List.filter_map
    (fun (v, tid) -> if x.(v) > 0.5 then Some tid else None)
    enc.tuple_of_var
