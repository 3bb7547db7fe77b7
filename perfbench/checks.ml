(* Output checks.  Each one rests on the reference interpreter or on a
   property of the method, never on a stored copy of earlier output.  A
   failure raises [Failed] with a message naming the program, and the
   procedure and variable where there is one. *)

module Ipcp = Ipcp_api.Ipcp
module Config = Ipcp.Config
module Interp = Ipcp_interp.Interp
module Sema = Ipcp_frontend.Sema
module Symtab = Ipcp_frontend.Symtab
module Loc = Ipcp_frontend.Loc
module I = Ipcp_domains.Interval
module CL = Ipcp_domains.Clattice
module Ranges = Ipcp_core.Ranges
module Json = Ipcp_obs.Json

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* The one failure the benchmark expects: the keystone fault that
   contexts-1k keeps as a failed operation (README.md, "The keystone
   fault").  Any other failure of that operation is a problem. *)
exception Known_fault of string

type outcome = Passed | Known of string | Problem of string

let guard f =
  try
    f ();
    Passed
  with
  | Failed m -> Problem m
  | Known_fault m -> Known m

(* ------------------------------------------------------------------ *)
(* Claims against the interpreter's entry snapshots *)

(* Every claim [claims p = [(x, c); ...]] holds at every dynamic entry
   of [p], under each undefined-value seed. *)
let claims_hold ~prog ~what ~seeds symtab (claims : string -> (string * int) list) =
  List.iter
    (fun iseed ->
      let r = Interp.run ~seed:iseed symtab in
      List.iter
        (fun (snap : Interp.entry_snapshot) ->
          List.iter
            (fun (x, c) ->
              match List.assoc_opt x snap.Interp.e_vals with
              | None -> ()
              | Some (Some v) when v = c -> ()
              | Some (Some v) ->
                  fail
                    "%s: %s claim %s.%s = %d, but the interpreter (seed %d) \
                     entered %s with %s = %d"
                    prog what snap.Interp.e_proc x c iseed snap.Interp.e_proc x
                    v
              | Some None ->
                  fail
                    "%s: %s claim %s.%s = %d, but the interpreter (seed %d) \
                     entered %s with %s undefined"
                    prog what snap.Interp.e_proc x c iseed snap.Interp.e_proc x)
            (claims snap.Interp.e_proc))
        r.Interp.trace)
    seeds

let table_of pairs =
  let t = Hashtbl.create 64 in
  List.iter (fun (p, cs) -> if cs <> [] then Hashtbl.replace t p cs) pairs;
  fun p -> Option.value ~default:[] (Hashtbl.find_opt t p)

let constants_hold ~prog ~seeds symtab (r : Ipcp.Result.t) =
  claims_hold ~prog ~what:"CONSTANTS" ~seeds symtab
    (table_of
       (List.map (fun p -> (p, Ipcp.Result.constants r p))
          (Ipcp.Result.procedures r)))

(* ------------------------------------------------------------------ *)
(* The substituted program behaves like the original *)

(* A fault message is "file:line:col: kind"; the location may move when
   the substituted program is reprinted, the kind may not. *)
let fault_kind msg =
  let n = String.length msg in
  let rec find i =
    if i + 1 >= n then msg
    else if msg.[i] = ':' && msg.[i + 1] = ' ' then String.sub msg (i + 2) (n - i - 2)
    else find (i + 1)
  in
  find 0

let outcome (r : Interp.result) =
  match r.Interp.status with
  | Interp.Completed -> "completed"
  | Interp.Stopped -> "stopped"
  | Interp.Out_of_fuel -> "out of fuel"
  | Interp.Fault m -> "fault: " ^ fault_kind m

let substitution_preserves ~prog ~seeds symtab (r : Ipcp.Result.t) =
  let sub = Ipcp.Result.substitution r in
  let text = Ipcp_frontend.Pretty.program_to_string sub.Ipcp.Result.program in
  let symtab' = Sema.parse_and_analyze ~file:(prog ^ ".substituted") text in
  List.iter
    (fun iseed ->
      let a = Interp.run ~seed:iseed symtab and b = Interp.run ~seed:iseed symtab' in
      if a.Interp.output <> b.Interp.output then
        fail
          "%s: the substituted program (%d substitutions) prints %d values, \
           the original %d, and they differ (seed %d)"
          prog sub.Ipcp.Result.total (List.length b.Interp.output)
          (List.length a.Interp.output) iseed;
      if outcome a <> outcome b then
        fail "%s: the original ends %s, the substituted program %s (seed %d)"
          prog (outcome a) (outcome b) iseed)
    seeds

(* ------------------------------------------------------------------ *)
(* Observed values lie in their range facts *)

let ranges_contain ~prog ~seeds symtab (rg : Ranges.t) =
  List.iter
    (fun iseed ->
      let bad = ref None in
      let observe l v =
        if !bad = None then
          match Ranges.fact rg l with
          | Some iv when not (I.contains iv v) -> bad := Some (l, v, iv)
          | _ -> ()
      in
      ignore (Interp.run ~seed:iseed ~observe symtab);
      match !bad with
      | None -> ()
      | Some (l, v, iv) ->
          fail "%s: at %s the interpreter (seed %d) read %d, outside the range \
                fact %s"
            prog (Loc.to_string l) iseed v (I.to_string iv))
    seeds

(* ------------------------------------------------------------------ *)
(* The jump-function hierarchy: literal ⊆ intraprocedural ⊆
   pass-through ⊆ polynomial *)

let constant_set (r : Ipcp.Result.t) =
  List.concat_map
    (fun p -> List.map (fun (x, c) -> (p, x, c)) (Ipcp.Result.constants r p))
    (Ipcp.Result.procedures r)

let hierarchy_holds ~prog text =
  let kinds = Config.[ Literal; Intraconst; Passthrough; Polynomial ] in
  let sets =
    List.map
      (fun jf ->
        match
          Ipcp.analyze
            ~config:{ Config.default with Config.jf }
            (Ipcp.Source.of_string ~file:prog text)
        with
        | Ok r -> (jf, constant_set r)
        | Error e -> fail "%s: analysis failed: %s" prog e)
      kinds
  in
  let rec pairs = function
    | (k1, s1) :: ((k2, s2) :: _ as rest) ->
        let larger = Hashtbl.create 256 in
        List.iter (fun k -> Hashtbl.replace larger k ()) s2;
        List.iter
          (fun (p, x, c) ->
            if not (Hashtbl.mem larger (p, x, c)) then
              fail
                "%s: %s.%s = %d is proved with %s jump functions but not with %s"
                prog p x c (Config.jf_kind_name k1) (Config.jf_kind_name k2))
          s1;
        pairs rest
    | _ -> ()
  in
  pairs sets

(* ------------------------------------------------------------------ *)
(* Context tabulation, read from its JSON report *)

(* procedure -> variable -> merged value, as printed by the report *)
let merged_of_report json =
  match Json.parse json with
  | Error e -> fail "contexts report is not JSON: %s" e
  | Ok j ->
      let procs =
        Option.value ~default:[]
          (Option.bind (Json.member "procedures" j) Json.to_list)
      in
      List.filter_map
        (fun pj ->
          match
            (Option.bind (Json.member "procedure" pj) Json.to_str,
             Json.member "merged" pj)
          with
          | Some p, Some (Json.Obj kvs) ->
              Some
                ( p,
                  List.filter_map
                    (fun (x, v) -> Option.map (fun s -> (x, s)) (Json.to_str v))
                    kvs )
          | _ -> None)
        procs

let merged_constants merged =
  List.map
    (fun (p, kvs) ->
      (p, List.filter_map (fun (x, s) -> Option.map (fun c -> (x, c)) (int_of_string_opt s)) kvs))
    merged

(* Keystone: every solver constant of a procedure reachable from the
   main program survives tabulation — its merged value is the same
   constant, or ⊤ when no context reaches the procedure. *)
let keystone_violations (r : Ipcp.Result.t) merged =
  let d = Ipcp.Result.driver r in
  let reach =
    Ipcp_callgraph.Callgraph.reachable_from_main d.Ipcp_core.Driver.cg
  in
  let top = CL.to_string CL.top in
  List.concat_map
    (fun p ->
      if not (Ipcp_frontend.Names.SS.mem p reach) then []
      else
        match List.assoc_opt p merged with
        | None -> []
        | Some kvs ->
            List.filter_map
              (fun (x, c) ->
                let m = Option.value ~default:(CL.to_string CL.bot) (List.assoc_opt x kvs) in
                if m = string_of_int c || m = top then None
                else Some (Printf.sprintf "%s.%s solver=%d tabulation=%s" p x c m))
              (Ipcp.Result.constants r p))
    (Ipcp.Result.procedures r)
