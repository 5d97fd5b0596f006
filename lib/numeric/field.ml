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

      The simplex inner loops run through these so that the float instance
      executes raw unboxed-float-array loops ([t array] is a flat float
      array when [t = float]) instead of one closure call per element. *)

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

module Float_field : S with type t = float = struct
  type t = float

  let eps = 1e-7
  let zero = 0.0
  let one = 1.0
  let of_int = float_of_int
  let of_ratio a b = float_of_int a /. float_of_int b
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -.x
  let abs = Float.abs
  let sign x = if x > eps then 1 else if x < -.eps then -1 else 0
  let pivot_tol = 1e-6
  let compare x y = sign (x -. y)
  let round x = int_of_float (Float.round x)
  let is_integral x = Float.abs (x -. Float.round x) <= 1e-6
  let to_float x = x
  let to_string = string_of_float

  let axpy a x y =
    if a <> 0.0 then
      for i = 0 to Array.length x - 1 do
        y.(i) <- y.(i) +. (a *. x.(i))
      done

  let div_inplace x a =
    for i = 0 to Array.length x - 1 do
      x.(i) <- x.(i) /. a
    done

  let dot x y =
    let acc = ref 0.0 in
    for i = 0 to Array.length x - 1 do
      acc := !acc +. (x.(i) *. y.(i))
    done;
    !acc

  let to_floats x = x
end

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
