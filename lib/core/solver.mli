(** Interprocedural propagation of VAL sets over the call graph: the
    worklist scheme of §2/§4.1.  Each call edge folds the evaluation of
    its jump functions into the callee's VAL via the domain meet;
    lowering a value re-enqueues the callee.  CONSTANTS(p) is read off the
    fixpoint.

    The solver is a functor over {!Ipcp_domains.Domain.S}; the top-level
    entry points are the constant-lattice instance [Make (Clattice)],
    unchanged in behaviour.  Domains without finite height get per-entry
    widening after a few lowerings and one narrowing pass after
    convergence.

    The worklist is by default a priority queue in reverse postorder over
    the call-graph SCC condensation (callers before callees); the paper's
    plain FIFO is kept as {!Fifo} for comparison.  Both disciplines reach
    the same fixpoint. *)

module Symtab = Ipcp_frontend.Symtab
module Callgraph = Ipcp_callgraph.Callgraph
module Scc = Ipcp_callgraph.Scc

type stats = {
  mutable pops : int;  (** worklist pops *)
  mutable jf_evals : int;  (** jump-function evaluations *)
  mutable jf_eval_cost : int;  (** Σ cost(J) over evaluations *)
  mutable lowerings : int;  (** VAL entries lowered (≤ 2 × entries) *)
}

type strategy = Scc_order | Fifo
(** Worklist discipline: SCC-condensation priority order (default) or
    the paper's FIFO. *)

val params_of : Symtab.t -> Symtab.proc_sym -> string list
(** Parameters tracked for a procedure: its scalar formals plus every
    scalar global of the program (the paper's extended definition of
    "parameter"). *)

val widen_after : int
(** Lowerings of one entry tolerated before the fixpoint engines switch
    it to [D.widen] (consulted only for domains without finite height);
    shared with the value-context tabulation engine. *)

(** The domain-generic solver. *)
module Make (D : Ipcp_domains.Domain.S) : sig
  type t = {
    vals : D.t Ipcp_frontend.Names.SM.t Ipcp_frontend.Names.SM.t;
        (** procedure -> parameter -> value *)
    stats : stats;
    prov : Provenance.t option;
        (** derivation edges, recorded only when {!Provenance.on} held at
            the start of the solve (see {!Provenance}) *)
  }

  val main_seed : Symtab.t -> D.t Ipcp_frontend.Names.SM.t
  (** The main program's entry values: DATA-initialised globals are
      constants, everything else ⊥. *)

  val solve :
    ?metrics_ns:string ->
    ?strategy:strategy ->
    ?scc:Scc.t ->
    ?jobs:int ->
    symtab:Symtab.t ->
    cg:Callgraph.t ->
    jfs:Jumpfn.site_jfs list Ipcp_frontend.Names.SM.t ->
    unit ->
    t
  (** [?scc] lets the caller reuse an already-computed condensation for
      the {!Scc_order} ranks; it is computed on demand otherwise.
      [?metrics_ns] (default ["solver"]) prefixes the telemetry counter
      names so concurrent instances stay distinguishable; only the
      default namespace feeds the convergence log.

      [?jobs] is accepted and ignored: propagation is one sequential
      worklist loop whatever the job count, so the fixpoint, {!stats}
      and the convergence log are jobs-invariant.  The argument remains
      only because the benchmark's layer replay ([perfbench/replay.ml])
      still passes it. *)

  val constants : t -> string -> int Ipcp_frontend.Names.SM.t
  (** CONSTANTS(p): the (name, value) pairs known constant on entry. *)

  val val_of : t -> string -> string -> D.t

  val pp : t Fmt.t
end

(** {2 The constant-lattice instance (historical interface)} *)

type t = {
  vals : Clattice.t Ipcp_frontend.Names.SM.t Ipcp_frontend.Names.SM.t;
      (** procedure -> parameter -> value *)
  stats : stats;
  prov : Provenance.t option;
      (** derivation edges, recorded only when {!Provenance.on} held at
          the start of the solve (see {!Provenance}) *)
}

val main_seed : Symtab.t -> Clattice.t Ipcp_frontend.Names.SM.t
(** The main program's entry values: DATA-initialised globals are
    constants, everything else ⊥. *)

val solve :
  ?metrics_ns:string ->
  ?strategy:strategy ->
  ?scc:Scc.t ->
  ?jobs:int ->
  symtab:Symtab.t ->
  cg:Callgraph.t ->
  jfs:Jumpfn.site_jfs list Ipcp_frontend.Names.SM.t ->
  unit ->
  t
(** [Make (Clattice)]'s [solve]. *)

val constants : t -> string -> int Ipcp_frontend.Names.SM.t
(** CONSTANTS(p): the (name, value) pairs known constant on entry. *)

val val_of : t -> string -> string -> Clattice.t

val pp : t Fmt.t
