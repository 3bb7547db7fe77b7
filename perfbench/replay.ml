(* The traced run's replay: one operation, layer by layer, through the
   public entry point of each layer and in [Driver.analyze] order, on one
   domain.  The spans are the benchmark's own, around each call into a
   layer; the program itself is not instrumented. *)

open Ipcp_frontend.Names
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Sema = Ipcp_frontend.Sema
module Symtab = Ipcp_frontend.Symtab
module Lower = Ipcp_ir.Lower
module Ssa = Ipcp_ir.Ssa
module Cfg = Ipcp_ir.Cfg
module Verify = Ipcp_verify.Verify
module Callgraph = Ipcp_callgraph.Callgraph
module Scc = Ipcp_callgraph.Scc
module Modref = Ipcp_summary.Modref
module Returnjf = Ipcp_core.Returnjf
module Symeval = Ipcp_core.Symeval
module Jumpfn = Ipcp_core.Jumpfn
module Solver = Ipcp_core.Solver
module Substitute = Ipcp_opt.Substitute
module Incr = Ipcp_incr.Incr
module Lint = Ipcp_analysis.Lint
module Registry = Ipcp_contexts.Registry
module Acc = Meas.Acc

(* Seconds the replay spent on work the untraced operation does not do;
   the workload subtracts it from the traced operation's time. *)
let duplicate_key = "replay.duplicate.s"

(* What [Ipcp.analyze] does for a one-shot run: parse, [Driver]'s
   pipeline, constant substitution, and the session's two program
   fingerprints. *)
let analyze acc (config : Config.t) ~file text : Driver.t * Substitute.result =
  let layer name f = Acc.layer acc name f in
  let symtab = layer "frontend" (fun () -> Sema.parse_and_analyze ~file text) in
  let verify what check m =
    if config.Config.verify_ir then
      layer "verify" (fun () ->
          SM.iter (fun _ x -> Verify.expect_ok ~what (check x)) m)
  in
  let cfgs = layer "ir.lower" (fun () -> Lower.lower_program symtab) in
  verify "lowering" (Verify.check_lowered ~symtab) cfgs;
  let convs = layer "ir.ssa" (fun () -> SM.map Ssa.convert_full cfgs) in
  verify "SSA construction"
    (fun (c : Ssa.conv) -> Verify.check_ssa ~symtab c.Ssa.ssa)
    convs;
  let cg, scc =
    layer "callgraph" (fun () ->
        let cg =
          Callgraph.build ~main:symtab.Symtab.main ~order:symtab.Symtab.order
            cfgs
        in
        (cg, Scc.compute cg))
  in
  let modref =
    layer "summary.modref" (fun () ->
        if config.Config.use_mod then Some (Modref.compute symtab cfgs cg)
        else None)
  in
  let symbolic = config.Config.symbolic_returns in
  let rjfs =
    layer "core.returnjf" (fun () ->
        if config.Config.return_jfs then
          Returnjf.compute ~scc ~symtab ~modref ~convs ~cg ~symbolic ()
        else Returnjf.empty)
  in
  let policy = Returnjf.policy ~symtab ~modref ~rjfs ~symbolic in
  let evals =
    layer "core.symeval" (fun () ->
        SM.mapi
          (fun p (c : Ssa.conv) ->
            Symeval.run ~symtab ~psym:(Symtab.proc symtab p) ~policy c.Ssa.ssa)
          convs)
  in
  let jfs =
    layer "core.jumpfn" (fun () ->
        SM.map
          (fun (ev : Symeval.t) ->
            List.map
              (Jumpfn.of_site ~symtab ~kind:config.Config.jf ev)
              ev.Symeval.cfg.Cfg.sites)
          evals)
  in
  let solver =
    layer "core.solver" (fun () -> Solver.solve ~scc ~jobs:1 ~symtab ~cg ~jfs ())
  in
  let d =
    { Driver.config; symtab; cfgs; convs; cg; modref; rjfs; evals; jfs; solver }
  in
  (* [Substitute.apply] runs stage 4 (the final evaluations) itself.
     Stage 4 is timed once on its own and its cost moved out of the
     substitute layer; the separate run is marked as duplicate work. *)
  let (), fe_s, fe_w = Meas.timed ~words:Meas.domain_words (fun () ->
        ignore (Driver.final_evals d)) in
  let sub = layer "opt.substitute" (fun () -> Substitute.apply d) in
  Acc.add acc "core.final_evals.s" fe_s;
  Acc.add acc "core.final_evals.mw" (fe_w /. 1e6);
  Acc.add acc "opt.substitute.s" (-.fe_s);
  Acc.add acc "opt.substitute.mw" (-.fe_w /. 1e6);
  Acc.add acc duplicate_key fe_s;
  layer "incr.fingerprint" (fun () ->
      ignore (Incr.program_key config symtab : string);
      ignore (Incr.content_fingerprints symtab : (string * string) list));
  (d, sub)

(* [Result.ranges] then [Result.lints_with_verdicts ~ranges]. *)
let ranges_lint acc (d : Driver.t) =
  let rg = Acc.layer acc "core.ranges" (fun () -> Driver.analyze_ranges d) in
  Acc.layer acc "analysis.lint" (fun () -> Lint.run_with_verdicts ~ranges:rg d)

(* [Domains.run_contexts ~warm:false "const"]: the tabulation, then the
   report's rendering (left unattributed). *)
let contexts acc (d : Driver.t) =
  let t =
    Acc.layer acc "contexts.tabulation" (fun () ->
        Registry.run_const ~warm:false d)
  in
  ignore (Fmt.str "%a" Registry.TConst.render_text t : string);
  let json = Ipcp_obs.Json.to_string (Registry.TConst.json t) in
  (t, json)
