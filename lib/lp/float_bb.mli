(** {!Branch_bound.Make} at floats, compiled from the same source as a
    monomorphic unit over {!Float_simplex} (see lib/lp/dune).  The
    production branch-and-bound, exported as {!Solvers.Float_bb}: nodes,
    pivots and answers are bit for bit those of
    [Branch_bound.Make (Numeric.Field.Float_field)]. *)

include Branch_bound.S with type elt = float
