(** The ordered-field abstraction the simplex solver is written against.

    Two instances are provided: {!Float_field} (fast, epsilon comparisons)
    and {!Rat_field} (exact rationals, used as a correctness oracle and to
    certify LP-relaxation integrality on small instances). *)

module type S = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val of_ratio : int -> int -> t

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val abs : t -> t

  val sign : t -> int
  (** [-1], [0] or [1], up to the instance's tolerance: the float instance
      treats magnitudes below its epsilon as zero. *)

  val pivot_tol : t
  (** Minimum magnitude the simplex accepts for a pivot element: large
      enough to keep the float basis inverse well-conditioned, exactly zero
      for exact fields (any nonzero rational pivots safely). *)

  val compare : t -> t -> int
  (** Consistent with {!sign} of the difference. *)

  val is_integral : t -> bool
  (** Whether the value is (within tolerance) an integer. *)

  val round : t -> int
  (** Nearest integer; only meaningful on values that fit in [int]. *)

  val to_float : t -> float
  val to_string : t -> string

  (** {2 Bulk kernels}

      Whole-vector loops for code that runs through the functor: one call
      per vector instead of one per element, and on the float instance a
      raw loop over a flat float array.  The dense reference kernel and the
      simplex's dense-pattern fallbacks use them.  The production float
      solver does not depend on them for speed: its units are compiled
      with these operations defined in the unit itself (see float_ops.ml),
      so every scalar operation there is inlined and unboxed. *)

  val axpy : t -> t array -> t array -> unit
  (** [axpy a x y] adds [a * x] into [y] elementwise; no-op when [a] = 0. *)

  val div_inplace : t array -> t -> unit
  (** Divide every element by a scalar. *)

  val dot : t array -> t array -> t

  val to_floats : t array -> float array
  (** Float view of a vector: the array itself on the float instance (no
      copy — callers must not mutate one through the other), an
      elementwise {!to_float} otherwise. *)
end

module Float_field : S with type t = float = Float_ops
(* Defined in float_ops.ml so that the solver's float units can splice the
   same text in and inline it (see that file). *)

module Rat_field : S with type t = Rat.t = struct
  type t = Rat.t

  let zero = Rat.zero
  let one = Rat.one
  let of_int = Rat.of_int
  let of_ratio = Rat.of_ints
  let add = Rat.add
  let sub = Rat.sub
  let mul = Rat.mul
  let div = Rat.div
  let neg = Rat.neg
  let abs = Rat.abs
  let sign = Rat.sign
  let pivot_tol = Rat.zero
  let compare = Rat.compare
  let is_integral = Rat.is_integer

  let round x =
    let fl = Rat.floor x in
    let frac = Rat.sub x (Rat.of_bigint fl) in
    let fl = if Rat.compare frac (Rat.of_ints 1 2) >= 0 then Bigint.add fl Bigint.one else fl in
    match Bigint.to_int_opt fl with
    | Some n -> n
    | None -> invalid_arg "Rat_field.round: out of int range"

  let to_float = Rat.to_float
  let to_string = Rat.to_string

  let axpy a x y =
    if not (Rat.is_zero a) then
      for i = 0 to Array.length x - 1 do
        y.(i) <- Rat.add y.(i) (Rat.mul a x.(i))
      done

  let div_inplace x a =
    for i = 0 to Array.length x - 1 do
      x.(i) <- Rat.div x.(i) a
    done

  let dot x y =
    let acc = ref Rat.zero in
    for i = 0 to Array.length x - 1 do
      acc := Rat.add !acc (Rat.mul x.(i) y.(i))
    done;
    !acc

  let to_floats x = Array.map Rat.to_float x
end
