(** The analysis registry: every monotone-framework instance the
    pipeline knows how to run, under one name-indexed interface.

    An {!entry} packages a runnable analysis (a function from the
    driver's shared artifacts to a {!report} with deterministic text and
    JSON renderings) together with a {!laws} capsule — a first-class
    description of the instance's lattice and a few of its transfer
    functions, which the property-test harness checks generically
    (meet-semilattice laws, absorption against the join when one exists,
    monotonicity of the transfers).  Adding an analysis means writing
    its domain or flow instance and appending one entry here; the CLI
    ([ipcp analyze --domain=NAME]), the API ([Ipcp.Domains]) and the
    test harness pick it up from the registry.

    Two kinds of instance coexist:

    - {e value domains} ({!Ipcp_domains.Domain.S}): run through the full
      interprocedural {!Valueflow} pipeline — [const], [interval],
      [copyprop];
    - {e flow problems} ({!Ipcp_dataflow.Monotone.FRAMEWORK}): run per
      procedure by the generic engine — [live], [avail]. *)

open Ipcp_frontend.Names
module Loc = Ipcp_frontend.Loc
module Ast = Ipcp_frontend.Ast
module Symtab = Ipcp_frontend.Symtab
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Liveness = Ipcp_ir.Liveness
module Live = Ipcp_dataflow.Live
module Avail = Ipcp_dataflow.Avail
module Json = Ipcp_obs.Json
module C = Ipcp_domains.Copyprop
module I = Ipcp_domains.Interval
module CL = Ipcp_domains.Clattice

type report = { r_text : string; r_json : Json.t }

(* ------------------------------------------------------------------ *)
(* Lattice-law capsules *)

(** What the generic property-test harness needs from an instance: the
    lattice operations the engines rely on, a deterministic element
    generator, and a few named transfer functions that must be monotone
    w.r.t. [leq] (where [leq a b ⇔ meet a b = a]). *)
module type LAWS = sig
  type t

  val name : string

  val top : t
  (** must be the identity of [meet] *)

  val bot : t option
  (** absorbing element of [meet], when the instance has one *)

  val equal : t -> t -> bool

  val meet : t -> t -> t

  val join : (t -> t -> t) option
  (** when present, must satisfy the absorption laws against [meet] *)

  val leq : t -> t -> bool

  val elem : int -> t
  (** deterministic element from a seed; should cover every constructor *)

  val transfers : (string * (t -> t)) list
  (** named monotone functions, drawn from the instance's own transfer
      functions *)

  val pp : t Fmt.t
end

type laws = Laws : (module LAWS with type t = 'a) -> laws

(** Laws capsule of a full value domain, with transfers drawn from its
    arithmetic. *)
module Domain_laws (D : Ipcp_domains.Domain.S) (E : sig
  val elem : int -> D.t
end) : LAWS with type t = D.t = struct
  type t = D.t

  let name = D.name

  let top = D.top

  let bot = Some D.bot

  let equal = D.equal

  let meet = D.meet

  let join = Some D.join

  let leq = D.leq

  let elem = E.elem

  let transfers =
    [
      ("neg", D.unop Ast.Neg);
      ("add1", fun v -> D.binop Ast.Add v (D.const 1));
      ("mul2", fun v -> D.binop Ast.Mul v (D.const 2));
      ("mul-bot", fun v -> D.binop Ast.Mul v D.bot);
      ("meet-const3", fun v -> D.meet v (D.const 3));
    ]

  let pp = D.pp
end

module Const_laws = Domain_laws (CL) (struct
  let elem seed =
    match abs seed mod 4 with
    | 0 -> CL.top
    | 1 -> CL.bot
    | _ -> CL.const ((seed mod 7) - 3)
end)

module Copyprop_laws = Domain_laws (C) (struct
  let vars = [| "i"; "j"; "n" |]

  let elem seed =
    match abs seed mod 5 with
    | 0 -> C.top
    | 1 -> C.bot
    | 2 -> C.copy vars.(abs seed mod 3)
    | _ -> C.const ((seed mod 7) - 3)
end)

module Interval_laws = Domain_laws (I) (struct
  let elem seed =
    let s = abs seed in
    match s mod 5 with
    | 0 -> I.top
    | 1 -> I.bot
    | 2 -> I.const ((seed mod 9) - 4)
    | 3 -> I.Range (I.Fin ((seed mod 5) - 2), I.Pinf)
    | _ ->
        let lo = (seed mod 5) - 2 in
        I.of_bounds lo (lo + (s mod 7))
end)

(* a tiny fixed variable universe keeps set elements enumerable *)
let law_universe = [| "a"; "b"; "c"; "d"; "e"; "f" |]

let law_subset seed =
  let s = abs seed in
  Array.to_list law_universe
  |> List.filteri (fun i _ -> (s lsr i) land 1 = 1)
  |> SS.of_list

module Live_laws : LAWS with type t = SS.t = struct
  type t = SS.t

  let name = "live"

  let top = Live.F.top

  let bot = None (* the variable universe is unbounded *)

  let equal = Live.F.equal

  let meet = Live.F.meet

  let join = Some SS.inter

  let leq a b = SS.equal (SS.union a b) a

  let elem = law_subset

  (* a backward gen/kill transfer: gen ∪ (x ∖ kill) *)
  let transfers =
    [
      ( "gen-kill",
        fun v ->
          SS.union
            (SS.of_list [ "a"; "b" ])
            (SS.diff v (SS.singleton "c")) );
      ("gen-only", SS.union (SS.singleton "d"));
    ]

  let pp = Live.F.pp
end

module Avail_laws : LAWS with type t = Avail.elt = struct
  type t = Avail.elt

  let name = "avail"

  let top = Avail.F.top

  let bot = Some (Avail.Set SS.empty)

  let equal = Avail.F.equal

  let meet = Avail.F.meet

  let join = None

  let leq a b = Avail.F.equal (Avail.F.meet a b) a

  let elem seed =
    if abs seed mod 7 = 0 then Avail.Univ else Avail.Set (law_subset seed)

  (* a forward gen/kill transfer over a fixed universe *)
  let transfers =
    [
      ( "gen-kill",
        fun v ->
          let s =
            match v with
            | Avail.Univ -> SS.of_list (Array.to_list law_universe)
            | Avail.Set s -> s
          in
          Avail.Set (SS.union (SS.singleton "a") (SS.diff s (SS.singleton "b")))
      );
    ]

  let pp = Avail.F.pp
end

(* ------------------------------------------------------------------ *)
(* Shared per-procedure inputs *)

(** Scalar formals of a procedure (arrays carry no scalar value). *)
let scalar_formals (symtab : Symtab.t) p =
  let psym = Symtab.proc symtab p in
  List.filter
    (fun f -> not (Symtab.is_array (Symtab.var_exn psym f)))
    (Symtab.formals psym)

(* ------------------------------------------------------------------ *)
(* const: the constant-lattice VAL sets, straight off the driver *)

let run_const (d : Driver.t) : report =
  let vals = d.Driver.solver.Solver.vals in
  let consts = SM.mapi (fun p _ -> Driver.constants d p) vals in
  let total = SM.fold (fun _ m n -> n + SM.cardinal m) consts 0 in
  let text =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    SM.iter
      (fun p m ->
        Fmt.pf ppf "CONSTANTS(%s) = {%a}@." p
          Fmt.(
            list ~sep:(any ", ") (fun ppf (n, v) -> Fmt.pf ppf "%s = %d" n v))
          (SM.bindings m))
      consts;
    Fmt.pf ppf "constants: %d entries across %d procedures@." total
      (SM.cardinal consts);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let json =
    Json.Obj
      [
        ("domain", Json.Str "const");
        ( "procedures",
          Json.Arr
            (SM.bindings consts
            |> List.map (fun (p, m) ->
                   Json.Obj
                     [
                       ("procedure", Json.Str p);
                       ( "constants",
                         Json.Obj
                           (List.map
                              (fun (n, v) -> (n, Json.Int v))
                              (SM.bindings m)) );
                     ])) );
        ( "summary",
          Json.Obj
            [
              ("procedures", Json.Int (SM.cardinal consts));
              ("constants", Json.Int total);
            ] );
      ]
  in
  { r_text = text; r_json = json }

(* ------------------------------------------------------------------ *)
(* interval: the ranges pipeline, reported verbatim *)

let run_interval (d : Driver.t) : report =
  let r = Driver.analyze_ranges d in
  { r_text = Fmt.str "%a" Ranges.render_text r; r_json = Ranges.json r }

(* ------------------------------------------------------------------ *)
(* copyprop: the copy lattice through the full value-flow pipeline *)

module CVF = Valueflow.Make (C)

(** Run the copy lattice through propagation and evaluation.  The entry
    binding is where [Copy] enters: an entry symbol the solver left ⊥
    becomes the fact "equals its own entry value" — sound only within
    the procedure's frame, which is exactly the evaluation's scope.  The
    solver itself computes over [{⊤, Const, ⊥}] (its values come from
    seeds, literals and jump-function arithmetic over those), so its
    constants coincide with the constant lattice's — the subsumption
    half of the differential test. *)
let copyprop_compute (d : Driver.t) : CVF.t =
  let entry_of solver p name =
    let v = CVF.S.val_of solver p name in
    if C.equal v C.bot then C.copy name else v
  in
  CVF.compute ~ns:"copyprop" ~config:d.Driver.config ~symtab:d.Driver.symtab
    ~cg:d.Driver.cg ~modref:d.Driver.modref ~rjfs:d.Driver.rjfs
    ~jfs:d.Driver.jfs ~convs:d.Driver.convs ~entry_of ()

let copyprop_classify (v : C.t) =
  if C.is_const v <> None then `Const
  else
    match C.copy_of v with
    | Some _ -> `Copy
    | None -> if C.equal v C.top then `Unreached else `Unknown

let run_copyprop (d : Driver.t) : report =
  let t = copyprop_compute d in
  let n_const = ref 0
  and n_copy = ref 0
  and n_unknown = ref 0
  and n_unreached = ref 0 in
  Loc.Map.iter
    (fun _ v ->
      match copyprop_classify v with
      | `Const -> incr n_const
      | `Copy -> incr n_copy
      | `Unknown -> incr n_unknown
      | `Unreached -> incr n_unreached)
    t.CVF.facts;
  let text =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    SM.iter
      (fun p entry ->
        Fmt.pf ppf "COPY(%s) = {%a}@." p
          Fmt.(
            list ~sep:(any ", ") (fun ppf (n, v) ->
                Fmt.pf ppf "%s = %a" n C.pp v))
          (SM.bindings entry))
      t.CVF.solver.CVF.S.vals;
    Loc.Map.iter
      (fun loc v -> Fmt.pf ppf "%a: %a@." Loc.pp loc C.pp v)
      t.CVF.facts;
    Fmt.pf ppf
      "facts: %d uses across %d procedures (%d constant, %d entry-copy, %d \
       unknown, %d unreached)@."
      (Loc.Map.cardinal t.CVF.facts)
      (SM.cardinal t.CVF.solver.CVF.S.vals)
      !n_const !n_copy !n_unknown !n_unreached;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let json =
    Json.Obj
      [
        ("domain", Json.Str "copyprop");
        ( "procedures",
          Json.Arr
            (SM.bindings t.CVF.solver.CVF.S.vals
            |> List.map (fun (p, entry) ->
                   Json.Obj
                     [
                       ("procedure", Json.Str p);
                       ( "entry",
                         Json.Obj
                           (List.map
                              (fun (n, v) -> (n, Json.Str (C.to_string v)))
                              (SM.bindings entry)) );
                     ])) );
        ( "facts",
          Json.Arr
            (Loc.Map.fold
               (fun loc v acc ->
                 Json.Obj
                   [
                     ("loc", Json.Str (Loc.to_string loc));
                     ("value", Json.Str (C.to_string v));
                   ]
                 :: acc)
               t.CVF.facts []
            |> List.rev) );
        ( "summary",
          Json.Obj
            [
              ("procedures", Json.Int (SM.cardinal t.CVF.solver.CVF.S.vals));
              ("facts", Json.Int (Loc.Map.cardinal t.CVF.facts));
              ("constant", Json.Int !n_const);
              ("entry_copy", Json.Int !n_copy);
              ("unknown", Json.Int !n_unknown);
              ("unreached", Json.Int !n_unreached);
            ] );
      ]
  in
  { r_text = text; r_json = json }

(* ------------------------------------------------------------------ *)
(* live: the backward instance, per procedure *)

let live_all (d : Driver.t) : Live.t SM.t =
  let globals = Symtab.global_names d.Driver.symtab in
  SM.mapi
    (fun p cfg ->
      Live.compute ~formals:(scalar_formals d.Driver.symtab p) ~globals cfg)
    d.Driver.cfgs

(** Source assignments whose stored value is dead: the definition has a
    source location (only scalar assignments do), a side-effect-free
    right-hand side, and a variable not live immediately after it.
    Ordered by location. *)
let dead_stores (d : Driver.t) : (string * string * Loc.t) list =
  let lv_by_proc = live_all d in
  let pure = function
    | Instr.Rcopy _ | Instr.Runop _ | Instr.Rbinop _ | Instr.Rintrin _
    | Instr.Rload _ ->
        true
    | Instr.Rread | Instr.Rresult _ | Instr.Rcalldef _ -> false
  in
  let out = ref [] in
  SM.iter
    (fun p (cfg : Cfg.t) ->
      let lv = SM.find p lv_by_proc in
      Array.iter
        (fun (b : Cfg.block) ->
          let live =
            ref
              (List.fold_left
                 (fun l v -> SS.add v l)
                 lv.Live.live_out.(b.Cfg.bid)
                 (Liveness.term_uses b.Cfg.term))
          in
          List.iter
            (fun i ->
              (match i with
              | Instr.Idef (v, rhs, Some loc)
                when pure rhs && not (SS.mem v !live) ->
                  out := (p, v, loc) :: !out
              | _ -> ());
              live := Liveness.transfer_instr !live i)
            (List.rev b.Cfg.instrs))
        cfg.Cfg.blocks)
    d.Driver.cfgs;
  List.sort
    (fun (_, v1, l1) (_, v2, l2) ->
      match Loc.compare l1 l2 with 0 -> String.compare v1 v2 | c -> c)
    !out

let run_live (d : Driver.t) : report =
  let lv_by_proc = live_all d in
  let dead = dead_stores d in
  let text =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    SM.iter
      (fun p (lv : Live.t) ->
        let entry = lv.Live.live_in.(0) in
        let total =
          Array.fold_left (fun n s -> n + SS.cardinal s) 0 lv.Live.live_in
        in
        Fmt.pf ppf "LIVE(%s): entry = {%a}, Σ|live-in| = %d over %d blocks@."
          p
          Fmt.(list ~sep:(any ", ") string)
          (SS.elements entry) total
          (Array.length lv.Live.live_in))
      lv_by_proc;
    List.iter
      (fun (p, v, loc) ->
        Fmt.pf ppf "%a: dead store to %s in %s@." Loc.pp loc v p)
      dead;
    Fmt.pf ppf "dead stores: %d across %d procedures@." (List.length dead)
      (SM.cardinal lv_by_proc);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let json =
    Json.Obj
      [
        ("domain", Json.Str "live");
        ( "procedures",
          Json.Arr
            (SM.bindings lv_by_proc
            |> List.map (fun (p, (lv : Live.t)) ->
                   Json.Obj
                     [
                       ("procedure", Json.Str p);
                       ( "entry_live",
                         Json.Arr
                           (List.map
                              (fun v -> Json.Str v)
                              (SS.elements lv.Live.live_in.(0))) );
                       ( "live_in_sizes",
                         Json.Arr
                           (Array.to_list lv.Live.live_in
                           |> List.map (fun s -> Json.Int (SS.cardinal s)))
                       );
                     ])) );
        ( "dead_stores",
          Json.Arr
            (List.map
               (fun (p, v, loc) ->
                 Json.Obj
                   [
                     ("loc", Json.Str (Loc.to_string loc));
                     ("variable", Json.Str v);
                     ("procedure", Json.Str p);
                   ])
               dead) );
        ( "summary",
          Json.Obj
            [
              ("procedures", Json.Int (SM.cardinal lv_by_proc));
              ("dead_stores", Json.Int (List.length dead));
            ] );
      ]
  in
  { r_text = text; r_json = json }

(* ------------------------------------------------------------------ *)
(* avail: the forward must-instance, per procedure *)

let run_avail (d : Driver.t) : report =
  let by_proc = SM.map Avail.compute d.Driver.cfgs in
  let universe p = (Avail.ctx (SM.find p d.Driver.cfgs)).Avail.universe in
  let text =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    SM.iter
      (fun p (av : Avail.t) ->
        let total =
          Array.fold_left (fun n s -> n + SS.cardinal s) 0 av.Avail.avail_in
        in
        Fmt.pf ppf
          "AVAIL(%s): universe = %d expressions, Σ|avail-in| = %d over %d \
           blocks@."
          p
          (SS.cardinal (universe p))
          total
          (Array.length av.Avail.avail_in))
      by_proc;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let json =
    Json.Obj
      [
        ("domain", Json.Str "avail");
        ( "procedures",
          Json.Arr
            (SM.bindings by_proc
            |> List.map (fun (p, (av : Avail.t)) ->
                   Json.Obj
                     [
                       ("procedure", Json.Str p);
                       ("universe", Json.Int (SS.cardinal (universe p)));
                       ( "avail_in_sizes",
                         Json.Arr
                           (Array.to_list av.Avail.avail_in
                           |> List.map (fun s -> Json.Int (SS.cardinal s)))
                       );
                     ])) );
        ("summary", Json.Obj [ ("procedures", Json.Int (SM.cardinal by_proc)) ]);
      ]
  in
  { r_text = text; r_json = json }

(* ------------------------------------------------------------------ *)
(* Explain: derivation trees for the value domains *)

type explanation = {
  x_text : string;
  x_json : Json.t;
  x_violations : Explain.violation list;
      (** differential re-evaluation failures; empty unless the
          provenance is inconsistent with the final fixpoint *)
}

(** One explain pipeline per value domain: validate the target, build
    the derivation trees, render both ways, and re-check every edge
    against the final fixpoint. *)
module Explain_via (D : Ipcp_domains.Domain.S) = struct
  module X = Explain.Make (D)

  let run ~(vals : D.t SM.t SM.t) ~(prov : Provenance.t option)
      ~(jfs : Jumpfn.site_jfs list SM.t) ~(seed : D.t SM.t) ~proc ?param () :
      (explanation, string) result =
    match prov with
    | None ->
        Error
          "no derivation provenance was recorded (the solve ran with \
           Provenance disabled)"
    | Some prov -> (
        match SM.find_opt proc vals with
        | None -> Error (Fmt.str "unknown procedure %s" proc)
        | Some entry -> (
            match param with
            | Some n when not (SM.mem n entry) ->
                Error
                  (Fmt.str "procedure %s tracks no scalar parameter %s" proc n)
            | _ ->
                let input = { X.vals; prov; jfs; seed } in
                let nodes = X.build input ~proc ?param () in
                Ok
                  {
                    x_text = Fmt.str "%a" X.render_text nodes;
                    x_json = X.json nodes;
                    x_violations = X.check input nodes;
                  }))
end

module XConst = Explain_via (CL)
module XCopy = Explain_via (C)
module XInt = Explain_via (I)

let explain_const (d : Driver.t) ~proc ?param () =
  let s = d.Driver.solver in
  XConst.run ~vals:s.Solver.vals ~prov:s.Solver.prov ~jfs:d.Driver.jfs
    ~seed:(Solver.main_seed d.Driver.symtab) ~proc ?param ()

let explain_copyprop (d : Driver.t) ~proc ?param () =
  let t = copyprop_compute d in
  let s = t.CVF.solver in
  XCopy.run ~vals:s.CVF.S.vals ~prov:s.CVF.S.prov ~jfs:d.Driver.jfs
    ~seed:(CVF.S.main_seed d.Driver.symtab) ~proc ?param ()

let explain_interval (d : Driver.t) ~proc ?param () =
  let r = Driver.analyze_ranges d in
  let s = r.Ranges.solver in
  XInt.run ~vals:s.Ranges.ISolver.vals ~prov:s.Ranges.ISolver.prov
    ~jfs:d.Driver.jfs
    ~seed:(Ranges.ISolver.main_seed d.Driver.symtab)
    ~proc ?param ()

(* ------------------------------------------------------------------ *)
(* The registry *)

type entry = {
  e_name : string;
  e_doc : string;
  e_laws : laws;
  e_run : Driver.t -> report;
  e_explain :
    (Driver.t -> proc:string -> ?param:string -> unit ->
    (explanation, string) result)
    option;
      (** derivation-tree explanation; value domains only — flow
          problems record no interprocedural provenance *)
}

let all : entry list =
  [
    {
      e_name = "const";
      e_doc = "interprocedural constant propagation (the paper's lattice)";
      e_laws = Laws (module Const_laws);
      e_run = run_const;
      e_explain = Some (fun d ~proc ?param () -> explain_const d ~proc ?param ());
    };
    {
      e_name = "interval";
      e_doc = "interprocedural value ranges (the ipcp-ranges pipeline)";
      e_laws = Laws (module Interval_laws);
      e_run = run_interval;
      e_explain =
        Some (fun d ~proc ?param () -> explain_interval d ~proc ?param ());
    };
    {
      e_name = "copyprop";
      e_doc = "interprocedural copy propagation (subsumes const)";
      e_laws = Laws (module Copyprop_laws);
      e_run = run_copyprop;
      e_explain =
        Some (fun d ~proc ?param () -> explain_copyprop d ~proc ?param ());
    };
    {
      e_name = "live";
      e_doc = "backward live variables, with dead-store detection";
      e_laws = Laws (module Live_laws);
      e_run = run_live;
      e_explain = None;
    };
    {
      e_name = "avail";
      e_doc = "forward available expressions (must-problem)";
      e_laws = Laws (module Avail_laws);
      e_run = run_avail;
      e_explain = None;
    };
  ]

let names = List.map (fun e -> e.e_name) all

let find name =
  List.find_opt (fun e -> String.equal e.e_name name) all

(** Explain [proc] (or [proc.param]) under the named registered domain:
    the derivation trees recorded by the last solve.  Requires
    {!Provenance} to have been enabled before the analysis ran. *)
let explain ~domain (d : Driver.t) ~proc ?param () :
    (explanation, string) result =
  match find domain with
  | None ->
      Error
        (Fmt.str "unknown domain %s (known: %s)" domain
           (String.concat ", " names))
  | Some { e_explain = None; _ } ->
      Error
        (Fmt.str
           "domain %s records no derivation provenance (explainable: %s)"
           domain
           (String.concat ", "
              (List.filter_map
                 (fun e ->
                   if e.e_explain <> None then Some e.e_name else None)
                 all)))
  | Some { e_explain = Some f; _ } -> f d ~proc ?param ()
