(* The float field's operations, the one definition behind
   {!Field.Float_field}.  The build also splices this text, as
   [module F = struct ... end], into the float units of the solver (see
   lib/lp/dune): defined inside the unit that calls them, these one-line
   operations inline and their floats stay unboxed, which a call into
   another compilation unit does not allow without flambda.  So the file
   must stay self-contained: the standard library only. *)

type t = float

let eps = 1e-7
let zero = 0.0
let one = 1.0
let of_int = float_of_int
let of_ratio a b = float_of_int a /. float_of_int b
let[@inline] add a b = a +. b
let[@inline] sub a b = a -. b
let[@inline] mul a b = a *. b
let[@inline] div a b = a /. b
let[@inline] neg x = -.x
let[@inline] abs x = Float.abs x
let[@inline] sign x = if x > eps then 1 else if x < -.eps then -1 else 0
let pivot_tol = 1e-6
let[@inline] compare x y = sign (x -. y)
let round x = int_of_float (Float.round x)
let[@inline] is_integral x = Float.abs (x -. Float.round x) <= 1e-6
let[@inline] to_float x = x
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

let[@inline] to_floats x = x
