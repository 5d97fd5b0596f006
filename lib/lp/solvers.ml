(** Pre-instantiated solver stacks.

    {!Float_simplex}/{!Float_bb} are the production solvers: the bodies of
    {!Simplex.Make} and {!Branch_bound.Make} compiled as monomorphic float
    units (see lib/lp/dune), bit for bit the functor instances at
    {!Numeric.Field.Float_field}, without a boxed float or an indirect call
    per field operation.  The exact variants run the identical algorithms
    over arbitrary-precision rationals and serve as correctness oracles in
    the test suite and for certifying LP-integrality claims on small
    instances. *)

module Float_simplex = Float_simplex
module Exact_simplex = Simplex.Make (Numeric.Field.Rat_field)
module Float_bb = Float_bb
module Exact_bb = Branch_bound.Make (Numeric.Field.Rat_field)

(** A branch-and-bound session over one frozen program, packed with its
    field's instantiation.  Callers unpack it and write their solve once
    against {!Branch_bound.S}; converting to float happens once per
    answer. *)
type engine = Engine : (module Branch_bound.S with type session = 's) * 's -> engine

(** The one place that picks float or exact arithmetic. *)
let engine ?kernel ~exact fz =
  if exact then Engine ((module Exact_bb), Exact_bb.create_session ?kernel fz)
  else Engine ((module Float_bb), Float_bb.create_session ?kernel fz)
