(* Kept only as a name for code outside the library that still says
   [Serve.Json]; the module is {!Obs.Json}. *)
include Obs.Json
