(** {!Simplex.Make} at floats, compiled from the same source as a
    monomorphic unit whose field operations inline and stay unboxed, over
    the {!Float_lu} kernel (see lib/lp/dune).  The production LP solver,
    exported as {!Solvers.Float_simplex}: pivots, refactorisations and
    answers are bit for bit those of
    [Simplex.Make (Numeric.Field.Float_field)]. *)

include Simplex.S with type elt = float
