(** The constant-propagation lattice of the paper's Figure 1.

    Elements are ⊤ (no information yet — a procedure or value not yet
    reached by the propagation), a single integer constant, or ⊥ (not known
    to be constant).  The lattice is infinite but of depth 2: any value can
    be lowered at most twice, which bounds the interprocedural iteration
    (the complexity argument of the paper's §3.1.5 rests on exactly this). *)

module Ast = Ipcp_frontend.Ast

type t = Top | Const of int | Bottom

let name = "const"

let top = Top

let bot = Bottom

let const c = Const c

let equal a b =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Const x, Const y -> x = y
  | _ -> false

(** The meet (⊓) of Figure 1: [⊤ ⊓ x = x]; [c ⊓ c = c]; [ci ⊓ cj = ⊥] for
    [ci ≠ cj]; [⊥ ⊓ x = ⊥]. *)
let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Bottom, _ | _, Bottom -> Bottom
  | Const x, Const y -> if x = y then a else Bottom

(** Least upper bound — the dual of {!meet}, used for refinement: two
    facts known to hold simultaneously.  Incompatible constants are an
    infeasible state, i.e. ⊤. *)
let join a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Top, _ | _, Top -> Top
  | Const x, Const y -> if x = y then a else Top

let is_const = function Const c -> Some c | _ -> None

(** Partial order induced by [meet]: [leq a b] iff [a ⊓ b = a]. *)
let leq a b = equal (meet a b) a

(** Height of an element: number of times it can still be lowered. *)
let height = function Top -> 2 | Const _ -> 1 | Bottom -> 0

(* Transfer functions, SCCP-style: an overdefined operand poisons the
   result; all-constant operands fold with the concrete evaluator (an
   operation that would fault produces no value, so ⊥ over-approximates
   it); anything still ⊤ stays ⊤ pending more propagation.  Zero absorbs
   a product before the poisoning, as the symbolic jump functions fold
   [0 * x] to 0; monotonicity then requires [⊤ * ⊥ = ⊤], since the ⊤
   operand may still become 0. *)

let unop op v =
  match v with
  | Top -> Top
  | Bottom -> Bottom
  | Const c -> Const (Ast.eval_unop op c)

let binop op a b =
  match (a, b) with
  | (Const 0, _ | _, Const 0) when op = Ast.Mul -> Const 0
  | (Top, _ | _, Top) when op = Ast.Mul -> Top
  | Bottom, _ | _, Bottom -> Bottom
  | Top, _ | _, Top -> Top
  | Const x, Const y -> (
      match Ast.eval_binop op x y with Some r -> Const r | None -> Bottom)

let intrin i args =
  if List.exists (fun v -> equal v Bottom) args then Bottom
  else if List.exists (fun v -> equal v Top) args then Top
  else
    let cs = List.filter_map is_const args in
    match Ast.eval_intrin i cs with Some r -> Const r | None -> Bottom

(* A depth-2 lattice gains nothing from branch refinement or widening;
   the fixpoint engines rely on these being exact identities so the
   [Const] instance reproduces the historical behaviour bit for bit. *)
let filter _op a b = (a, b)

let widen _old next = next

let narrow _wide refit = refit

let finite_height = true

let pp ppf = function
  | Top -> Fmt.string ppf "⊤"
  | Const c -> Fmt.int ppf c
  | Bottom -> Fmt.string ppf "⊥"

let to_string t = Fmt.str "%a" pp t
