(** {!Basis.Sparse_lu} at floats, compiled from the same source as a
    monomorphic unit whose field operations inline and stay unboxed (see
    lib/lp/dune).  The production solver's kernel; the functor instance
    [Basis.Sparse_lu (Numeric.Field.Float_field)] computes the identical
    results, only slower. *)

include Basis.S with type elt = float
