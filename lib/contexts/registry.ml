(** The context-sensitive analysis registry: one tabulation
    instantiation per value domain, under the same name-indexed,
    report-producing interface as the {!Ipcp_core.Framework} registry —
    [ipcp analyze --domain=NAME --contexts], the API's context methods
    and the serve wire method all select from here at runtime.

    Flow problems ([live], [avail]) have no entry environments to
    tabulate, so only the value domains appear.

    Each instantiation ({!Instance}) owns a process-global
    {!Ipcp_incr.Ctxcache}: a resident session that re-analyses a program
    adopts every converged context exit keyed by deep fingerprint +
    entry digest, collapsing the rounds of unchanged subtrees. *)

module Driver = Ipcp_core.Driver
module Framework = Ipcp_core.Framework
module Provenance = Ipcp_core.Provenance
module Ctxcache = Ipcp_incr.Ctxcache
module Json = Ipcp_obs.Json
open Ipcp_frontend.Names

type entry = {
  e_name : string;
  e_doc : string;
  e_run : ?ctx_limit:int -> ?warm:bool -> Driver.t -> Framework.report;
  e_cold : Driver.t -> Framework.report * Provenance.t option;
      (** a run without warm exits, and the provenance it recorded *)
}

(** One domain's tabulation, its warm store and its registry entry. *)
module Instance (D : Ipcp_domains.Domain.S) = struct
  module T = Tabulation.Make (D)

  let store : D.t Tabulation.RT.t Ctxcache.t = Ctxcache.create ()

  let cache (d : Driver.t) : T.cache =
    let deep =
      Ctxcache.deep_fingerprints ~config:d.Driver.config d.Driver.symtab
        d.Driver.cg
    in
    let key proc entry =
      SM.find_opt proc deep
      |> Option.map (fun fp -> Ctxcache.key ~deep_fp:fp ~entry)
    in
    {
      T.c_find =
        (fun ~proc ~entry ->
          Option.bind (key proc entry) (Ctxcache.find store));
      c_store =
        (fun ~proc ~entry exits ->
          Option.iter (fun k -> Ctxcache.add store k exits) (key proc entry));
    }

  let run ?ctx_limit ?(warm = true) (d : Driver.t) : T.t =
    T.run ?ctx_limit ?cache:(if warm then Some (cache d) else None) d

  let report t =
    { Framework.r_text = Fmt.str "%a" T.render_text t; r_json = T.json t }

  let entry what =
    {
      e_name = D.name;
      e_doc = Fmt.str "context-sensitive %s (value contexts)" what;
      e_run = (fun ?ctx_limit ?warm d -> report (run ?ctx_limit ?warm d));
      e_cold =
        (fun d ->
          let t = run ~warm:false d in
          (report t, t.T.prov));
    }
end

module Const = Instance (Ipcp_domains.Clattice)
module Interval = Instance (Ipcp_domains.Interval)
module Copy = Instance (Ipcp_domains.Copyprop)
module TConst = Const.T
module TInterval = Interval.T

let run_const = Const.run
let run_interval = Interval.run

let reset_caches () =
  Ctxcache.clear Const.store;
  Ctxcache.clear Interval.store;
  Ctxcache.clear Copy.store

let all : entry list =
  [
    Const.entry "constant propagation";
    Interval.entry "value ranges";
    Copy.entry "copy propagation";
  ]

let names = List.map (fun e -> e.e_name) all

let find name = List.find_opt (fun e -> String.equal e.e_name name) all

(* ------------------------------------------------------------------ *)
(* Explain: the context table plus its creation edges *)

let edge_json (e : Provenance.edge) : Json.t =
  let kind_fields =
    match e.Provenance.e_kind with
    | Provenance.Seed _ -> [ ("kind", Json.Str "root") ]
    | Provenance.Call { caller; site_id; loc; _ } ->
        [
          ("kind", Json.Str "call");
          ("caller", Json.Str caller);
          ("site", Json.Int site_id);
          ("loc", Json.Str loc);
        ]
  in
  Json.Obj
    ([
       ("procedure", Json.Str e.Provenance.e_proc);
       ("context", Json.Str e.Provenance.e_param);
       ("entry", Json.Str e.Provenance.e_contrib);
     ]
    @ kind_fields)

let render_edges ppf (edges : Provenance.edge list) =
  List.iter
    (fun (e : Provenance.edge) ->
      match e.Provenance.e_kind with
      | Provenance.Seed _ ->
          Fmt.pf ppf "%s %s created as root, entry %s@." e.Provenance.e_proc
            e.Provenance.e_param e.Provenance.e_contrib
      | Provenance.Call { caller; loc; site_id; _ } ->
          Fmt.pf ppf "%s %s created by %s at %s (site %d), entry %s@."
            e.Provenance.e_proc e.Provenance.e_param caller loc site_id
            e.Provenance.e_contrib)
    edges

(** Run the named domain's tabulation with provenance forced on and
    report the context table together with every context-creation edge
    (who created which context, at which call site, with which entry
    values).  The run is cold — adopting warm exits would skip the
    settling whose derivation the edges describe. *)
let explain ~domain (d : Driver.t) : (Framework.report, string) result =
  match find domain with
  | None ->
      Error
        (Fmt.str "unknown context-sensitive domain %s (known: %s)" domain
           (String.concat ", " names))
  | Some e ->
      let table, prov = Provenance.with_enabled (fun () -> e.e_cold d) in
      let edges = Option.fold ~none:[] ~some:Provenance.edges prov in
      let r_text =
        table.Framework.r_text
        ^ Fmt.str "context creation edges: %d@.%a" (List.length edges)
            render_edges edges
      in
      let r_json =
        Json.Obj
          [
            ("contexts", table.Framework.r_json);
            ("creation_edges", Json.Arr (List.map edge_json edges));
          ]
      in
      Ok { Framework.r_text; r_json }
