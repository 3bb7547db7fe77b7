(** The domain-generic interprocedural value-flow pipeline: the
    jump-function framework instantiated with any {!Ipcp_domains.Domain.S}.

    This is the machinery behind {!Ranges} (the {!Ipcp_domains.Interval}
    instance) factored out so every abstract domain gets the same three
    stages over the same shared artifacts — the symbolic jump functions,
    return jump functions and call graph are domain-independent and built
    once by the driver:

    1. {e interprocedural propagation}: [Solver.Make (D)] runs the
       SCC-ordered worklist over the jump functions, producing the VAL
       set of every procedure (widening/narrowing if the domain lacks
       finite height, see {!Solver});
    2. {e intraprocedural evaluation}: [Abseval.Make (D)] folds each
       procedure's SSA form through the domain transfer functions, entry
       symbols bound through [entry_of] (by default the VAL set), branch
       conditions refining values down the dominator tree (parallel
       across procedures when [config.jobs > 1]);
    3. {e recording}: every scalar-variable use that carries a source
       location gets a fact, keyed by location exactly like the
       substitution pass's constant uses.

    All telemetry — trace spans and solver counters — lives under the
    caller-chosen namespace [ns], so concurrent instances stay
    distinguishable ([ns = "ranges"] reproduces the historical ranges
    spans verbatim). *)

open Ipcp_frontend.Names
module Loc = Ipcp_frontend.Loc
module Symtab = Ipcp_frontend.Symtab
module Instr = Ipcp_ir.Instr
module Cfg = Ipcp_ir.Cfg
module Ssa = Ipcp_ir.Ssa
module Callgraph = Ipcp_callgraph.Callgraph
module Modref = Ipcp_summary.Modref
module Trace = Ipcp_obs.Trace
module Pool = Ipcp_par.Pool

module Make (D : Ipcp_domains.Domain.S) = struct
  module S = Solver.Make (D)
  module A = Abseval.Make (D)

  type t = {
    solver : S.t;  (** interprocedural VAL sets *)
    evals : A.t SM.t;  (** per-procedure abstract evaluations *)
    facts : D.t Loc.Map.t;  (** value per located scalar-variable use *)
  }

  (* every located scalar-variable use in the procedure, valued under the
     block's refinement environment; the operand set mirrors
     [Cfg.iter_value_operands], plus branch-condition operands (consulted
     by the constant-condition lint check) *)
  let proc_facts (ev : A.t) acc =
    let acc = ref acc in
    let add bid o =
      match o with
      | Instr.Ovar (_, Some loc) ->
          let v = A.operand_value_in ev bid o in
          acc :=
            Loc.Map.update loc
              (function None -> Some v | Some v0 -> Some (D.meet v0 v))
              !acc
      | _ -> ()
    in
    Array.iter
      (fun (b : Cfg.block) ->
        let bid = b.Cfg.bid in
        List.iter
          (fun i ->
            match i with
            | Instr.Idef (_, rhs, _) -> (
                match rhs with
                | Instr.Rcopy o | Instr.Runop (_, o) | Instr.Rload (_, o) ->
                    add bid o
                | Instr.Rbinop (_, x, y) ->
                    add bid x;
                    add bid y
                | Instr.Rintrin (_, ops) -> List.iter (add bid) ops
                | Instr.Rread | Instr.Rresult _ | Instr.Rcalldef _ -> ())
            | Instr.Istore (_, ix, v) ->
                add bid ix;
                add bid v
            | Instr.Icall s ->
                List.iter
                  (function
                    | Instr.Ascalar (_, Some (Instr.Avar _)) -> ()
                    | Instr.Ascalar (o, addr) -> (
                        add bid o;
                        match addr with
                        | Some (Instr.Aelem (_, ix)) -> add bid ix
                        | _ -> ())
                    | Instr.Aarray _ -> ())
                  s.Instr.args
            | Instr.Iprint ops -> List.iter (add bid) ops)
          b.Cfg.instrs;
        match b.Cfg.term with
        | Cfg.Tbranch (Cfg.Crel (_, x, y), _, _) ->
            add bid x;
            add bid y
        | _ -> ())
      ev.A.cfg.Cfg.blocks;
    !acc

  (** Run the three stages.  [entry_of] maps a procedure's entry symbol
      to its abstract entry value, given the solved VAL sets; the default
      reads the VAL set directly.  A domain with frame-local elements
      (e.g. the copy lattice) overrides it to introduce them here — the
      only sound injection point, since solver values cross call edges
      and these must not. *)
  let compute ~(ns : string) ~(config : Config.t) ~(symtab : Symtab.t)
      ~(cg : Callgraph.t) ~(modref : Modref.t option) ~(rjfs : Returnjf.t)
      ~(jfs : Jumpfn.site_jfs list SM.t) ~(convs : Ssa.conv SM.t)
      ?(entry_of = fun solver p name -> S.val_of solver p name) () : t =
    Trace.span ns @@ fun () ->
    let jobs = max 1 config.Config.jobs in
    let solver =
      Trace.span (ns ^ ":propagate") (fun () ->
          S.solve ~metrics_ns:(ns ^ ".solver") ~symtab ~cg ~jfs ())
    in
    let evals =
      Trace.span (ns ^ ":abseval") (fun () ->
          let run p (conv : Ssa.conv) =
            let psym = Symtab.proc symtab p in
            let policy = A.returnjf_policy ~symtab ~modref ~rjfs in
            let entry_binding name = Some (entry_of solver p name) in
            A.run ~entry_binding ~symtab ~psym ~policy conv.Ssa.ssa
          in
          if jobs <= 1 then SM.mapi run convs
          else
            Pool.map_sm ~jobs
              ~cost:(fun _ (conv : Ssa.conv) -> Cfg.weight conv.Ssa.ssa)
              ~seq_below:Pool.default_seq_cost run convs)
    in
    let facts =
      Trace.span (ns ^ ":record") (fun () ->
          SM.fold (fun _ ev acc -> proc_facts ev acc) evals Loc.Map.empty)
    in
    { solver; evals; facts }

  (** The value of the located use at [loc], if any. *)
  let fact (t : t) loc = Loc.Map.find_opt loc t.facts

  (** The VAL set on entry to [p]. *)
  let entry_values (t : t) p : D.t SM.t =
    Option.value ~default:SM.empty (SM.find_opt p t.solver.S.vals)
end
