(** A small concrete syntax for Boolean conjunctive queries.

    Grammar (whitespace-insensitive):
    {v
      query  ::=  [name  ':-']  atom (',' atom)*
      atom   ::=  relname ['!'] '(' term (',' term)* ')'
      term   ::=  variable | constant
    v}

    - [relname] starts with an uppercase letter ([R], [AccessLog], ...);
    - a trailing ['!'] marks the atom exogenous;
    - a [variable] starts with a lowercase letter ([x], [movie], ...);
    - a [constant] is either an integer literal ([17]) or a single-quoted
      string (['S']), interned through the given symbol table.

    Examples: ["R(x,y), S(y,z)"], ["Q :- A!(x), R(x,y), R(y,y)"],
    ["Users(x,n), AccessLog(x,y,'S'), Requests(y,d)"]. *)

val parse : ?symbols:Symbol.t -> ?arity:(string -> int option) -> string -> Cq.t
(** @raise Invalid_argument with a position-annotated message on bad
    syntax, or on an atom whose term count differs from [arity rel] when
    that is known (by default no relation's arity is).  String constants
    require [symbols] (a fresh table is created otherwise, which is only
    useful if the data uses the same table). *)

val parse_with : Database.t -> string -> Cq.t
(** Parses against a database's symbol table, so string constants in the
    query line up with {!Database.add_named} data, and against its
    relation arities ({!Database.arity}), so an atom that could never
    match a stored tuple is rejected at parse time. *)
