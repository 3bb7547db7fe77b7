(** Interprocedural propagation of VAL sets over the call graph.

    This is the worklist scheme of the paper's §2/§4.1: with each procedure
    we associate VAL — a map from its scalar formals and the program's
    scalar globals to the abstract domain, initialised to ⊤.  The main
    program's entry is seeded (DATA-initialised globals are constants,
    everything else ⊥).  Each call edge folds the evaluation of its jump
    functions into the callee's VAL via the domain meet; lowering a value
    re-enqueues the callee so the jump functions that depend on it are
    re-evaluated.  For the constant lattice a value can be lowered at most
    twice, so the process terminates after O(Σ_s Σ_y cost(J_s^y)) work.

    {b Domains.}  Nothing in the scheme is constant-specific, so the solver
    is a functor {!Make} over {!Ipcp_domains.Domain.S}; the historical
    constant-lattice entry points are [Make (Clattice)] included at the top
    level.  A domain with infinite descending chains (intervals) cannot
    rely on the height argument: the functor counts lowerings per VAL entry
    and switches that entry to [D.widen] past a small threshold, then runs
    one narrowing pass after convergence — every entry is re-evaluated from
    scratch at the widened fixpoint and [D.narrow] recovers the borders the
    widening overshot.  Both hooks are identities for finite-height
    domains, which skip them entirely.

    {b Scheduling.}  The worklist is a priority queue keyed by reverse
    postorder over the call-graph SCC condensation ({!Scc.top_down_ranks}):
    within a condensation level a procedure is popped only after the
    callers that feed its VAL set, so most procedures see all their
    incoming lowerings in one visit — the Cooper–Kennedy ordering, and the
    same intuition as Wegman–Zadeck's SCC-aware SCCP scheduling.  The
    original FIFO discipline is kept as {!Fifo} for comparison; both reach
    the same fixpoint (the iteration is chaotic and the evaluations
    monotone), the priority order just needs fewer pops and fewer
    jump-function re-evaluations.

    {b Representation.}  During the fixpoint the VAL sets live in nested
    hash tables mutated in place — the inner loop was previously dominated
    by [SM.add]-path copying and per-pop environment closures.  The
    immutable [D.t SM.t SM.t] snapshot the rest of the pipeline reads is
    reconstructed once, after convergence.  The ⊤/constant/⊥ population
    for the convergence log is maintained incrementally at each lowering,
    so a log row is O(1) instead of a full rescan.

    CONSTANTS(p) is read off the fixpoint: the parameters whose VAL is a
    constant. *)

open Ipcp_frontend.Names
module Symtab = Ipcp_frontend.Symtab
module Loc = Ipcp_frontend.Loc
module Instr = Ipcp_ir.Instr
module Callgraph = Ipcp_callgraph.Callgraph
module Scc = Ipcp_callgraph.Scc
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics

type stats = {
  mutable pops : int;  (** worklist pops *)
  mutable jf_evals : int;  (** jump-function evaluations *)
  mutable jf_eval_cost : int;  (** Σ cost(J) over evaluations *)
  mutable lowerings : int;  (** VAL entries lowered *)
}

(** Worklist discipline: the SCC-condensation priority order (default),
    or the paper's plain FIFO (kept for the pops/evals comparison). *)
type strategy = Scc_order | Fifo

(** Parameters tracked for procedure [p]: scalar formals plus every scalar
    global of the program. *)
let params_of (symtab : Symtab.t) (psym : Symtab.proc_sym) : string list =
  let formals =
    List.filter
      (fun f -> not (Symtab.is_array (Symtab.var_exn psym f)))
      (Symtab.formals psym)
  in
  let globals =
    List.filter
      (fun g ->
        match SM.find_opt g symtab.Symtab.globals with
        | Some { Symtab.gdim = None; _ } -> true
        | _ -> false)
      (Symtab.global_names symtab)
  in
  formals @ globals

(* ------------------------------------------------------------------ *)
(* Worklists *)

(* A deduplicating worklist: [push] answers whether the procedure was
   newly queued, [pop] yields [None] at the fixpoint, [size] is the
   queue length for the convergence log. *)
type worklist = {
  push : string -> bool;
  pop : unit -> string option;
  size : unit -> int;
}

let fifo_worklist () : worklist =
  let queue = Queue.create () in
  let queued = Hashtbl.create 16 in
  {
    push =
      (fun p ->
        if Hashtbl.mem queued p then false
        else begin
          Hashtbl.replace queued p ();
          Queue.add p queue;
          true
        end);
    pop =
      (fun () ->
        match Queue.take_opt queue with
        | None -> None
        | Some p ->
            Hashtbl.remove queued p;
            Some p);
    size = (fun () -> Queue.length queue);
  }

(* Ranks are dense and unique per procedure, so the priority queue is a
   pending-bit per rank plus a cursor that only moves backwards on push;
   procedure counts are small enough that the forward scan is cheap. *)
let priority_worklist (ranks : int SM.t) : worklist =
  let n = SM.cardinal ranks in
  let by_rank = Array.make (max n 1) "" in
  SM.iter (fun p r -> by_rank.(r) <- p) ranks;
  let pending = Array.make (max n 1) false in
  let size = ref 0 in
  let cursor = ref 0 in
  {
    push =
      (fun p ->
        let r = SM.find p ranks in
        if pending.(r) then false
        else begin
          pending.(r) <- true;
          incr size;
          if r < !cursor then cursor := r;
          true
        end);
    pop =
      (fun () ->
        if !size = 0 then None
        else begin
          while not pending.(!cursor) do
            incr cursor
          done;
          let r = !cursor in
          pending.(r) <- false;
          decr size;
          Some by_rank.(r)
        end);
    size = (fun () -> !size);
  }

(* ------------------------------------------------------------------ *)
(* The solver, over any domain *)

(* lowerings of one VAL entry tolerated before switching it to widening
   (only consulted for domains without finite height) *)
let widen_after = 3

module Make (D : Ipcp_domains.Domain.S) = struct
  module JEval = Jumpfn.Eval (D)

  type t = {
    vals : D.t SM.t SM.t;  (** procedure -> parameter -> value *)
    stats : stats;
    prov : Provenance.t option;
        (** derivation edges, recorded only when {!Provenance.on} held
            at the start of the solve *)
  }

  (** The main program's entry values: globals are DATA constants or ⊥. *)
  let main_seed (symtab : Symtab.t) : D.t SM.t =
    List.fold_left
      (fun acc g ->
        match SM.find_opt g symtab.Symtab.globals with
        | Some { Symtab.gdim = None; init; _ } ->
            let v =
              match init with
              | Some c -> D.const c
              | None -> D.bot (* undefined at program start *)
            in
            SM.add g v acc
        | _ -> acc)
      SM.empty
      (Symtab.global_names symtab)

  (* population bucket for the convergence log and transition counters;
     coincides with the constructor classification for the constant
     lattice *)
  let class_of v =
    if D.equal v D.top then `Top
    else match D.is_const v with Some _ -> `Const | None -> `Other

  let solve ?(metrics_ns = "solver") ?(strategy = Scc_order) ?scc ?jobs:_
      ~(symtab : Symtab.t) ~(cg : Callgraph.t)
      ~(jfs : Jumpfn.site_jfs list SM.t) () : t =
    let m name = metrics_ns ^ name in
    let stats = { pops = 0; jf_evals = 0; jf_eval_cost = 0; lowerings = 0 } in
    let prov = if Provenance.on () then Some (Provenance.create ()) else None in
    let pretty v = Fmt.str "%a" D.pp v in
    (* VAL, as in-place hash tables for the duration of the fixpoint *)
    let vals : (string, (string, D.t) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 64
    in
    (* VAL-lattice population, maintained incrementally for the
       convergence log *)
    let n_top = ref 0 and n_const = ref 0 and n_bottom = ref 0 in
    let bump v d =
      match class_of v with
      | `Top -> n_top := !n_top + d
      | `Const -> n_const := !n_const + d
      | `Other -> n_bottom := !n_bottom + d
    in
    List.iter
      (fun p ->
        let psym = Symtab.proc symtab p in
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun name ->
            Hashtbl.replace tbl name D.top;
            incr n_top)
          (params_of symtab psym);
        Hashtbl.replace vals p tbl)
      cg.Callgraph.procs;
    (* seed the main program *)
    let () =
      let main_tbl = Hashtbl.find vals cg.Callgraph.main in
      SM.iter
        (fun g v ->
          (match Hashtbl.find_opt main_tbl g with
          | Some old -> bump old (-1)
          | None -> ());
          bump v 1;
          Hashtbl.replace main_tbl g v;
          match prov with
          | None -> ()
          | Some pr ->
              let init =
                match SM.find_opt g symtab.Symtab.globals with
                | Some { Symtab.init; _ } -> init
                | None -> None
              in
              Provenance.record pr ~proc:cg.Callgraph.main ~param:g
                ~kind:(Provenance.Seed { init })
                ~before:(pretty D.top) ~contrib:(pretty v) ~after:(pretty v))
        (main_seed symtab)
    in
    (* the environment the jump functions read: the VAL table of the
       procedure being processed, through one preallocated closure *)
    let env_tbl = ref (Hashtbl.create 1) in
    let env name =
      match Hashtbl.find_opt !env_tbl name with
      | Some v -> v
      | None -> D.bot
    in
    let wl =
      match strategy with
      | Fifo -> fifo_worklist ()
      | Scc_order ->
          let scc = match scc with Some s -> s | None -> Scc.compute cg in
          priority_worklist (Scc.top_down_ranks scc)
    in
    let enqueue p = if wl.push p then Metrics.incr (m ".pushes") in
    (* per-entry lowering counts, for the widening switch; a finite-height
       domain never needs them *)
    let lower_counts : (string * string, int) Hashtbl.t =
      Hashtbl.create (if D.finite_height then 1 else 64)
    in
    List.iter enqueue cg.Callgraph.procs;
    let rec iterate () =
      match wl.pop () with
      | None -> ()
      | Some p ->
          stats.pops <- stats.pops + 1;
          if Obs.on () then begin
            Metrics.incr (m ".pops");
            (* the convergence log is a single unlabelled sequence; only
               the primary (constant) solve feeds it *)
            if metrics_ns = "solver" then
              Metrics.converge ~worklist:(wl.size ()) ~top:!n_top
                ~const:!n_const ~bottom:!n_bottom
          end;
          env_tbl := Hashtbl.find vals p;
          List.iter
            (fun (sj : Jumpfn.site_jfs) ->
              let q = sj.Jumpfn.sj_site.Ipcp_ir.Instr.callee in
              let qtbl = Hashtbl.find vals q in
              let lowered = ref false in
              List.iter
                (fun ((param : Jumpfn.param), jf) ->
                  stats.jf_evals <- stats.jf_evals + 1;
                  stats.jf_eval_cost <- stats.jf_eval_cost + Jumpfn.cost jf;
                  if Obs.on () then begin
                    Metrics.incr (m ".jf_evals");
                    Metrics.incr (m ".jf_evals." ^ Jumpfn.kind_tag jf);
                    Metrics.add (m ".jf_eval_cost") (Jumpfn.cost jf)
                  end;
                  let v = JEval.eval jf env in
                  let name = param.Jumpfn.p_name in
                  let cur =
                    match Hashtbl.find_opt qtbl name with
                    | Some c -> c
                    | None -> D.top
                  in
                  let nv = D.meet cur v in
                  Metrics.incr (m ".meets");
                  if not (D.equal nv cur) then begin
                    let widened = ref false in
                    let nv =
                      if D.finite_height then nv
                      else begin
                        (* an entry that keeps lowering is on an infinite
                           descending chain: jump it past the thresholds *)
                        let key = (q, name) in
                        let c =
                          1
                          + Option.value ~default:0
                              (Hashtbl.find_opt lower_counts key)
                        in
                        Hashtbl.replace lower_counts key c;
                        if c > widen_after then begin
                          if Obs.on () then Metrics.incr (m ".widenings");
                          widened := true;
                          D.widen cur nv
                        end
                        else nv
                      end
                    in
                    bump cur (-1);
                    bump nv 1;
                    Hashtbl.replace qtbl name nv;
                    stats.lowerings <- stats.lowerings + 1;
                    lowered := true;
                    (match prov with
                    | None -> ()
                    | Some pr ->
                        let site = sj.Jumpfn.sj_site in
                        let support =
                          SS.elements (Jumpfn.support jf)
                          |> List.map (fun x -> (x, pretty (env x)))
                        in
                        Provenance.record pr ~proc:q ~param:name
                          ~kind:
                            (Provenance.Call
                               {
                                 caller = p;
                                 site_id = site.Instr.site_id;
                                 loc = Fmt.str "%a" Loc.pp site.Instr.s_loc;
                                 jf_kind = Jumpfn.kind_tag jf;
                                 jf = Fmt.str "%a" Jumpfn.pp jf;
                                 support;
                                 widened = !widened;
                               })
                          ~before:(pretty cur) ~contrib:(pretty v)
                          ~after:(pretty nv));
                    if Obs.on () then begin
                      Metrics.incr (m ".lowerings");
                      match (class_of cur, class_of nv) with
                      | `Top, `Const -> Metrics.incr (m ".trans.top_const")
                      | `Top, `Other -> Metrics.incr (m ".trans.top_bottom")
                      | `Const, `Other ->
                          Metrics.incr (m ".trans.const_bottom")
                      | _ -> Metrics.incr (m ".trans.other")
                    end
                  end)
                sj.Jumpfn.jfs;
              if !lowered then enqueue q)
            (Option.value ~default:[] (SM.find_opt p jfs));
          iterate ()
    in
    iterate ();
    (* one narrowing pass for widened domains: re-evaluate every entry
       from scratch at the widened fixpoint; [D.narrow] keeps the borders
       the fixpoint earned and recovers the ones the widening pushed to
       infinity.  Sound because the fresh value is F(x) of a
       post-fixpoint x, and narrow stays between the two. *)
    if not D.finite_height then begin
      let fresh : (string, (string, D.t) Hashtbl.t) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (fun p -> Hashtbl.replace fresh p (Hashtbl.create 16))
        cg.Callgraph.procs;
      let fold_in q name v =
        let tbl = Hashtbl.find fresh q in
        let cur =
          match Hashtbl.find_opt tbl name with Some c -> c | None -> D.top
        in
        Hashtbl.replace tbl name (D.meet cur v)
      in
      SM.iter (fun g v -> fold_in cg.Callgraph.main g v) (main_seed symtab);
      List.iter
        (fun p ->
          env_tbl := Hashtbl.find vals p;
          List.iter
            (fun (sj : Jumpfn.site_jfs) ->
              let q = sj.Jumpfn.sj_site.Ipcp_ir.Instr.callee in
              List.iter
                (fun ((param : Jumpfn.param), jf) ->
                  stats.jf_evals <- stats.jf_evals + 1;
                  stats.jf_eval_cost <- stats.jf_eval_cost + Jumpfn.cost jf;
                  fold_in q param.Jumpfn.p_name (JEval.eval jf env))
                sj.Jumpfn.jfs)
            (Option.value ~default:[] (SM.find_opt p jfs)))
        cg.Callgraph.procs;
      List.iter
        (fun q ->
          let wide_tbl = Hashtbl.find vals q in
          let fresh_tbl = Hashtbl.find fresh q in
          Hashtbl.iter
            (fun name wide ->
              let refit =
                match Hashtbl.find_opt fresh_tbl name with
                | Some v -> v
                | None -> D.top (* no incoming edge: keep the wide value *)
              in
              let narrowed = D.narrow wide refit in
              if not (D.equal narrowed wide) then begin
                if Obs.on () then Metrics.incr (m ".narrowed");
                (match prov with
                | None -> ()
                | Some pr ->
                    Provenance.record_narrow pr ~proc:q ~param:name
                      ~wide:(pretty wide) ~after:(pretty narrowed));
                Hashtbl.replace wide_tbl name narrowed
              end)
            (Hashtbl.copy wide_tbl))
        cg.Callgraph.procs
    end;
    (* reconstruct the immutable snapshot the pipeline reads, in canonical
       key order *)
    let snapshot =
      List.fold_left
        (fun acc p ->
          let tbl = Hashtbl.find vals p in
          let m = Hashtbl.fold (fun k v m -> SM.add k v m) tbl SM.empty in
          SM.add p m acc)
        SM.empty cg.Callgraph.procs
    in
    { vals = snapshot; stats; prov }

  (** CONSTANTS(p): the (name, value) pairs known constant on entry to
      [p]. *)
  let constants (t : t) p : int SM.t =
    match SM.find_opt p t.vals with
    | None -> SM.empty
    | Some m ->
        SM.fold
          (fun name v acc ->
            match D.is_const v with
            | Some c -> SM.add name c acc
            | None -> acc)
          m SM.empty

  let val_of (t : t) p name : D.t =
    match SM.find_opt p t.vals with
    | None -> D.bot
    | Some m -> Option.value ~default:D.bot (SM.find_opt name m)

  let pp ppf (t : t) =
    SM.iter
      (fun p m ->
        Fmt.pf ppf "VAL(%s): %a@." p
          Fmt.(
            list ~sep:(any ", ") (fun ppf (n, v) ->
                Fmt.pf ppf "%s=%a" n D.pp v))
          (SM.bindings m))
      t.vals
end

include Make (Ipcp_domains.Clattice)
