(** The interprocedural copy-propagation lattice: the constant lattice of
    {!Clattice} extended with one extra kind of fact, [Copy x] — "this
    value equals the value symbol [x] had on entry to the current
    procedure".

    The literature observation this instance exists to check (see
    arXiv:2207.03894) is that copy propagation {e subsumes} constant
    propagation: every constant the ⊤/c/⊥ lattice proves is also proved
    by the copy lattice, which additionally names the uses that are exact
    copies of an entry symbol even when that symbol's value is unknown.

    Soundness of the [Copy] element is frame-local by construction:

    - the {e interprocedural} solver only ever builds values from
      {!const}, the entry seed, and jump-function evaluation over those —
      all of which are closed over [{⊤, Const, ⊥}].  A [Copy] therefore
      never crosses a call edge through a VAL set, and
      [Solver.Make (Copyprop)] computes exactly the CONSTANTS sets of
      [Solver.Make (Clattice)] (a property test);
    - [Copy x] is introduced only {e intraprocedurally}, by binding a
      procedure's entry symbol [x] to [Copy x] when the solver could not
      prove it constant.  Within that frame the fact flows through plain
      copies, algebraic identities (see below) and — via return jump
      functions that are identity polynomials — through calls that return
      an argument unchanged, which is interprocedural copy propagation in
      the paper's jump-function style.

    The transfer functions preserve [Copy] through the identity cases the
    polynomial evaluator produces when folding a pass-through jump
    function ([0 + 1·x¹]): [x + 0], [x − 0], [x · 1], [x¹], [x / 1], and
    the commuted variants.  Everything else falls back on the flat-lattice
    behaviour: constants fold exactly, any other combination is ⊥. *)

module Ast = Ipcp_frontend.Ast

type t = Top | Const of int | Copy of string | Bottom

let name = "copyprop"

let top = Top

let bot = Bottom

let const c = Const c

let is_const = function Const c -> Some c | _ -> None

(** The entry-copy fact for symbol [x]. *)
let copy x = Copy x

(** [Some x] iff the element is exactly "the entry value of [x]". *)
let copy_of = function Copy x -> Some x | _ -> None

let equal a b =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Const x, Const y -> x = y
  | Copy x, Copy y -> String.equal x y
  | _ -> false

(** Path merge: the flat-lattice meet with [Copy] as a third kind of
    incomparable midlevel element — two different facts merge to ⊥. *)
let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Bottom, _ | _, Bottom -> Bottom
  | _ -> if equal a b then a else Bottom

(** Least upper bound — two facts known to hold simultaneously;
    incompatible facts are an infeasible state, i.e. ⊤.  [Const c ⊔
    Copy x] is ⊤ (they are incomparable midlevel elements), which is
    sound for refinement: refinement may only raise. *)
let join a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Top, _ | _, Top -> Top
  | _ -> if equal a b then a else Top

let leq a b = equal (meet a b) a

let unop op v =
  match v with
  | Top -> Top
  | Bottom | Copy _ -> Bottom
  | Const c -> Const (Ast.eval_unop op c)

(* zero absorbs a product before ⊥ poisons it, and ⊤ then beats ⊥, as
   in {!Clattice.binop}: the two lattices must fold alike for copyprop to
   subsume const *)
let binop op a b =
  match (a, b) with
  | (Const 0, _ | _, Const 0) when op = Ast.Mul -> Const 0
  | (Top, _ | _, Top) when op = Ast.Mul -> Top
  | Bottom, _ | _, Bottom -> Bottom
  | Top, _ | _, Top -> Top
  | Const x, Const y -> (
      match Ast.eval_binop op x y with Some r -> Const r | None -> Bottom)
  (* identity cases: the polynomial evaluator folds a pass-through jump
     function as [0 + 1·x¹], so these are what keep copies alive *)
  | (Copy _ as c), Const 0 when op = Ast.Add || op = Ast.Sub -> c
  | Const 0, (Copy _ as c) when op = Ast.Add -> c
  | (Copy _ as c), Const 1 when op = Ast.Mul || op = Ast.Div || op = Ast.Pow
    ->
      c
  | Const 1, (Copy _ as c) when op = Ast.Mul -> c
  | Copy _, _ | _, Copy _ -> Bottom

let intrin i args =
  if
    List.exists
      (fun v -> match v with Bottom | Copy _ -> true | _ -> false)
      args
  then Bottom
  else if List.exists (fun v -> equal v Top) args then Top
  else
    let cs = List.filter_map is_const args in
    match Ast.eval_intrin i cs with Some r -> Const r | None -> Bottom

(* Like the constant lattice, depth 2: refinement and widening are exact
   identities, so the fixpoint engines run the plain descending
   iteration. *)
let filter _op a b = (a, b)

let widen _old next = next

let narrow _wide refit = refit

let finite_height = true

let pp ppf = function
  | Top -> Fmt.string ppf "⊤"
  | Const c -> Fmt.int ppf c
  | Copy x -> Fmt.pf ppf "entry(%s)" x
  | Bottom -> Fmt.string ppf "⊥"

let to_string t = Fmt.str "%a" pp t
