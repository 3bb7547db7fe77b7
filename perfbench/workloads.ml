(* The four workloads.  Each one is a round of operations run through
   the public API: the timed run repeats whole rounds in a closed loop
   (one client, the next operation after the previous one returns), the
   traced run replays them layer by layer. *)

module Ipcp = Ipcp_api.Ipcp
module Config = Ipcp.Config
module Driver = Ipcp_core.Driver
module Server = Ipcp_serve.Server
module Json = Ipcp_obs.Json
module Obs = Ipcp_obs.Obs
module Metrics = Ipcp_obs.Metrics
module Acc = Meas.Acc

let fail = Checks.fail

let jobs1 = { Config.default with Config.jobs = 1 }

(* One operation.  [exec] is the timed part; it returns the output check,
   which runs untimed and raises [Checks.Failed].  The first checked run
   of an operation gets the deep checks (interpreter, hierarchy); every
   later run must reproduce its outputs.  No result outlives its check,
   so each operation starts from the same heap.  A [probe] is the
   known-fault operation: it is attempted and counted, but kept out of
   the time and allocation figures; only its keystone violation counts
   as the known fault. *)
type op = { label : string; probe : bool; exec : unit -> unit -> unit }

(* A traced operation: [traced acc] replays the op into [acc]. *)
type pair = { op : op; traced : (Acc.t -> unit -> unit) option }

type instance = {
  round : op array;
  proved : unit -> int;
      (** constants_proved, read from the deep-checked runs *)
  release : unit -> unit;  (** removes what the instance wrote to disk *)
}

type traced_instance = {
  pairs : pair array;
  work : unit -> (string * float) list;  (** per-op work counters *)
  t_release : unit -> unit;
}

let analyze ?(config = Config.default) ~file text =
  match Ipcp.analyze ~config (Ipcp.Source.of_string ~file text) with
  | Ok r -> r
  | Error e -> fail "%s: analysis failed: %s" file e

let symtab_of r = (Ipcp.Result.driver r).Driver.symtab

let substituted r = (Ipcp.Result.substitution r).Ipcp.Result.total

let constants_proved r = Ipcp.Result.total_constants r + substituted r

let result_digest r extra =
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      List.iter
        (fun (x, c) -> Printf.bprintf b " %s=%d" x c)
        (Ipcp.Result.constants r p);
      Buffer.add_char b '\n')
    (Ipcp.Result.procedures r);
  Printf.bprintf b "substituted %d %s" (substituted r) extra;
  Digest.string (Buffer.contents b)

(* The first run of the operation [name] gets the [deep] checks; every
   later run must give the outputs of the first. *)
let check_run seen name digest deep =
  match Hashtbl.find_opt seen name with
  | None ->
      deep ();
      Hashtbl.add seen name digest
  | Some d when String.equal d digest -> ()
  | Some _ -> fail "%s: outputs differ between two runs of the same operation" name

(* The interpreter-backed checks of one analyzed program. *)
let interp_checks ~seeds ~prog ?ranges r =
  let st = symtab_of r in
  Checks.constants_hold ~prog ~seeds st r;
  Checks.substitution_preserves ~prog ~seeds st r;
  Checks.ranges_contain ~prog ~seeds st
    (match ranges with Some rg -> rg | None -> Ipcp.Result.ranges r)

(* Deterministic counters of one analysis, from [Result.stats] with
   telemetry on. *)
let stats_work ~file text =
  Obs.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> analyze ~config:jobs1 ~file text)
  in
  let st = Ipcp.Result.stats r in
  let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k st)) in
  [
    ("work.symeval.runs", get "symeval.runs");
    ("work.symeval.steps", get "symeval.steps");
    ("work.solver.pops", get "solver.pops");
    ("work.solver.jf_evals", get "solver.jf_evals");
    ("work.substitute.substituted", get "substitute.substituted");
  ]

let average rows =
  let n = float_of_int (List.length rows) in
  match rows with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (k, _) ->
          (k, List.fold_left (fun s row -> s +. List.assoc k row) 0. rows /. n))
        first

(* ------------------------------------------------------------------ *)
(* suite: the [ipcp lint --ranges] path over the bundled programs *)

let suite_order seed =
  let progs = Array.of_list (Inputs.suite ()) in
  let n = Array.length progs in
  let s = ((seed mod n) + n) mod n in
  Array.init n (fun i -> progs.((s + i) mod n))

let lint_op ~config ~file text =
  let r = analyze ~config ~file text in
  let rg = Ipcp.Result.ranges r in
  let fs, v = Ipcp.Result.lints_with_verdicts ~ranges:rg r in
  ( r,
    rg,
    Printf.sprintf "lints %d safe %d fault %d unknown %d" (List.length fs)
      v.Ipcp_analysis.Lint.n_safe v.Ipcp_analysis.Lint.n_fault
      v.Ipcp_analysis.Lint.n_unknown )

let suite_setup ~config ~seed =
  let seeds = Inputs.interp_seeds seed in
  let seen = Hashtbl.create 16 and proved = ref 0 in
  let op (name, text) =
    {
      label = name;
      probe = false;
      exec =
        (fun () ->
          let r, rg, lints = lint_op ~config ~file:name text in
          fun () ->
            check_run seen name (result_digest r lints) (fun () ->
                interp_checks ~seeds ~prog:name ~ranges:rg r;
                Checks.hierarchy_holds ~prog:name text;
                proved := !proved + constants_proved r));
    }
  in
  let round = Array.map op (suite_order seed) in
  Array.iter (fun o -> ignore (o.exec () : unit -> unit)) round;
  { round; proved = (fun () -> !proved); release = ignore }

let suite_trace ~seed =
  let progs = suite_order seed in
  let pair (name, text) =
    {
      op =
        {
          label = name;
          probe = false;
          exec =
            (fun () ->
              ignore (lint_op ~config:jobs1 ~file:name text);
              ignore);
        };
      traced =
        Some
          (fun acc ->
            let d, _ = Replay.analyze acc jobs1 ~file:name text in
            ignore (Replay.ranges_lint acc d);
            ignore);
    }
  in
  {
    pairs = Array.map pair progs;
    work =
      (fun () ->
        average
          (Array.to_list
             (Array.map (fun (name, text) -> stats_work ~file:name text) progs)));
    t_release = ignore;
  }

(* ------------------------------------------------------------------ *)
(* gen-10k: one-shot analysis of the 10k-procedure program *)

let gen10k_file = "gen10k.f"

let gen10k_setup ~config ~seed =
  let text = Inputs.gen_10k () in
  let seen = Hashtbl.create 1 and proved = ref 0 in
  let op =
    {
      label = "gen-10k";
      probe = false;
      exec =
        (fun () ->
          let r = analyze ~config ~file:gen10k_file text in
          fun () ->
            check_run seen "gen-10k" (result_digest r "") (fun () ->
                interp_checks ~seeds:(Inputs.interp_seeds seed)
                  ~prog:"gen-10k" r;
                proved := constants_proved r));
    }
  in
  let (_ : unit -> unit) = op.exec () in
  { round = [| op |]; proved = (fun () -> !proved); release = ignore }

let gen10k_trace ~seed:_ =
  let text = Inputs.gen_10k () in
  {
    pairs =
      [|
        {
          op =
            {
              label = "gen-10k";
              probe = false;
              exec =
                (fun () ->
                  ignore (analyze ~config:jobs1 ~file:gen10k_file text);
                  ignore);
            };
          traced =
            Some
              (fun acc ->
                ignore (Replay.analyze acc jobs1 ~file:gen10k_file text);
                ignore);
        };
      |];
    work = (fun () -> stats_work ~file:gen10k_file text);
    t_release = ignore;
  }

(* ------------------------------------------------------------------ *)
(* contexts-1k: the [ipcp analyze --contexts] path, plus the keystone
   probe *)

let gen1k_file = "gen1k.f"

let contexts_op ~config ~file text =
  let r = analyze ~config ~file text in
  match Ipcp.Domains.run_contexts ~warm:false "const" r with
  | Some rep -> (r, rep.Ipcp.Domains.json)
  | None -> fail "no context-sensitive const domain"

(* With [known], the violation is the expected keystone fault. *)
let keystone ~known ~label r merged =
  match Checks.keystone_violations r merged with
  | [] -> ()
  | vs ->
      let m =
        Printf.sprintf
          "%s: keystone: tabulation lost %d jump-function constants: %s" label
          (List.length vs) (String.concat "; " vs)
      in
      raise (if known then Checks.Known_fault m else Checks.Failed m)

let contexts_setup ~config ~seed =
  let t1k = Inputs.gen_1k () and tfault = Inputs.keystone_fault () in
  let seeds = Inputs.interp_seeds seed in
  let seen = Hashtbl.create 2 and proved = ref 0 in
  (* the deep checks: tabulation's merged constants and the solver's hold
     in the interpreter; on the 1k program also the substitution, the
     ranges and the hierarchy *)
  let deep ~label r merged () =
    let ctx = Checks.merged_constants merged in
    Checks.claims_hold ~prog:label ~what:"tabulation merged constant" ~seeds
      (symtab_of r) (Checks.table_of ctx);
    Checks.constants_hold ~prog:label ~seeds (symtab_of r) r;
    if label = "gen-1k" then begin
      interp_checks ~seeds ~prog:label r;
      Checks.hierarchy_holds ~prog:label t1k;
      proved := List.fold_left (fun n (_, cs) -> n + List.length cs) 0 ctx
    end
  in
  let op ~label ~probe ~file text =
    {
      label;
      probe;
      exec =
        (fun () ->
          let r, json = contexts_op ~config ~file text in
          fun () ->
            let merged = Checks.merged_of_report json in
            check_run seen label (Digest.string json) (deep ~label r merged);
            keystone ~known:probe ~label r merged);
    }
  in
  let main = op ~label:"gen-1k" ~probe:false ~file:gen1k_file t1k in
  let probe =
    op ~label:"keystone-fault" ~probe:true ~file:"keystone-fault.f" tfault
  in
  (* the warm-up runs the short probe, unchecked *)
  let (_ : unit -> unit) = probe.exec () in
  { round = [| main; probe |]; proved = (fun () -> !proved); release = ignore }

let contexts_trace ~seed:_ =
  let t1k = Inputs.gen_1k () and tfault = Inputs.keystone_fault () in
  let summary = ref [] in
  let untraced ~label ~probe ~file text =
    {
      label;
      probe;
      exec =
        (fun () ->
          let r, json = contexts_op ~config:jobs1 ~file text in
          fun () ->
            keystone ~known:probe ~label r (Checks.merged_of_report json));
    }
  in
  let traced acc =
    let d, _ = Replay.analyze acc jobs1 ~file:gen1k_file t1k in
    let t, _ = Replay.contexts acc d in
    let s = t.Ipcp_contexts.Registry.TConst.summary in
    let f = float_of_int in
    let module T = Ipcp_contexts.Tabulation in
    summary :=
      [
        ("work.contexts.created", f s.T.s_created);
        ("work.contexts.evals", f s.T.s_evals);
        ("work.contexts.rounds", f s.T.s_rounds);
        ( "work.contexts.evals_per_context",
          f s.T.s_evals /. f (max 1 s.T.s_contexts) );
      ];
    ignore
  in
  {
    pairs =
      [|
        {
          op = untraced ~label:"gen-1k" ~probe:false ~file:gen1k_file t1k;
          traced = Some traced;
        };
        {
          op =
            untraced ~label:"keystone-fault" ~probe:true
              ~file:"keystone-fault.f" tfault;
          traced = None;
        };
      |];
    work = (fun () -> stats_work ~file:gen1k_file t1k @ !summary);
    t_release = ignore;
  }

(* ------------------------------------------------------------------ *)
(* serve-edit-1k: edit rounds against a resident session *)

(* Scratch space inside the working directory for the session's
   persistent cache. *)
let work_dir = ".perfbench-work"

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let dir_counter = ref 0

let fresh_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  incr dir_counter;
  let d =
    Filename.concat work_dir
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  if Sys.file_exists d then remove_tree d;
  Sys.mkdir d 0o755;
  d

let release_dir d =
  if Sys.file_exists d then remove_tree d;
  if Sys.file_exists work_dir && Sys.readdir work_dir = [||] then
    Sys.rmdir work_dir

type session = {
  sv : Server.t;
  sid : int;
  ed : Inputs.editable;
  names : string array;
  rng : Random.State.t;
  mutable edits : int;
  mutable generation : int;
  mutable next_id : int;
  mutable served : (string * Json.t * Json.t * string) option;
      (** the latest edit: text, analyze result, query result, queried
          procedure *)
}

let frame s meth params =
  s.next_id <- s.next_id + 1;
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int s.next_id);
         ("method", Json.Str meth);
         ("params", Json.Obj params);
       ])

let result_of meth line =
  match Json.parse line with
  | Error e -> fail "serve %s: response is not JSON: %s" meth e
  | Ok j -> (
      match (Json.member "result" j, Json.member "error" j) with
      | Some r, None -> r
      | _ -> fail "serve %s: error response %s" meth line)

let int_at path j =
  let rec go j = function
    | [] -> Json.to_int j
    | k :: rest -> Option.bind (Json.member k j) (fun j -> go j rest)
  in
  match go j path with
  | Some n -> n
  | None -> fail "serve: no integer at %s" (String.concat "." path)

let open_session ~config ~seed ~dir =
  let base = Inputs.gen_1k () in
  let sv = Server.create ~config () in
  let s0 =
    {
      sv;
      sid = 0;
      ed = Inputs.editable base;
      names = [||];
      rng = Random.State.make [| seed |];
      edits = 0;
      generation = 1;
      next_id = 0;
      served = None;
    }
  in
  let res =
    result_of "open"
      (Server.handle_line sv
         (frame s0 "open"
            [
              ("source", Json.Str base);
              ("file", Json.Str gen1k_file);
              ("cache_dir", Json.Str dir);
            ]))
  in
  let names =
    Array.of_list
      (List.filter_map Json.to_str
         (Option.value ~default:[]
            (Option.bind (Json.member "procedures" res) Json.to_list)))
  in
  if Array.length names <> Inputs.procs_of s0.ed then
    fail "serve: %d procedures served, %d found in the text" (Array.length names)
      (Inputs.procs_of s0.ed);
  { s0 with sid = int_at [ "session" ] res; names }

(* One edit round: append [PRINT *, k] to one procedure chosen from the
   seed, then update, analyze, ranges, lint and a constants query for
   that procedure.  With [acc], each frame is timed as its layer and the
   update's counters are read with telemetry on. *)
let edit_op ?acc s () =
  let i = Random.State.int s.rng (Array.length s.names) in
  s.edits <- s.edits + 1;
  Inputs.insert s.ed i (Printf.sprintf "PRINT *, %d" s.edits);
  let text = Inputs.text s.ed and proc = s.names.(i) in
  let session = ("session", Json.Int s.sid) in
  let call layer meth params =
    let line = frame s meth params in
    match acc with
    | None -> Server.handle_line s.sv line
    | Some acc -> Acc.layer acc layer (fun () -> Server.handle_line s.sv line)
  in
  let u = call "incr.update" "update" [ session; ("source", Json.Str text) ] in
  let counters =
    match acc with None -> [] | Some _ -> Metrics.snapshot ()
  in
  let a = call "serve.dispatch" "analyze" [ session ] in
  let g = call "serve.dispatch" "ranges" [ session ] in
  let l = call "serve.dispatch" "lint" [ session; ("ranges", Json.Bool true) ] in
  let q =
    call "serve.dispatch" "query"
      [ session; ("proc", Json.Str proc); ("what", Json.Str "constants") ]
  in
  fun () ->
    let u = result_of "update" u in
    ignore (result_of "ranges" g);
    ignore (result_of "lint" l);
    let gen = int_at [ "dirty"; "generation" ] u in
    if gen <> s.generation + 1 then
      fail "serve: update %d moved the generation from %d to %d" s.edits
        s.generation gen;
    s.generation <- gen;
    s.served <- Some (text, result_of "analyze" a, result_of "query" q, proc);
    match acc with
    | None -> ()
    | Some acc ->
        let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k counters)) in
        Acc.add acc "work.incr.dirty_procs" (float_of_int (int_at [ "dirty"; "dirty" ] u));
        Acc.add acc "work.incr.ir_reused" (get "incr.ir.reused");
        Acc.add acc "work.incr.procs" (get "incr.procs");
        List.iter
          (fun (k, c) -> Acc.add acc k (get c))
          [
            ("work.symeval.runs", "symeval.runs");
            ("work.symeval.steps", "symeval.steps");
            ("work.solver.pops", "solver.pops");
            ("work.solver.jf_evals", "solver.jf_evals");
            ("work.substitute.substituted", "substitute.substituted");
          ]

let served_constants (a : Json.t) =
  match Json.member "constants" a with
  | Some (Json.Obj ps) ->
      List.map
        (fun (p, cs) ->
          ( p,
            match cs with
            | Json.Obj kvs ->
                List.filter_map
                  (fun (x, v) -> Option.map (fun c -> (x, c)) (Json.to_int v))
                  kvs
            | _ -> [] ))
        ps
  | _ -> fail "serve analyze: no constants object"

(* The served outputs of the latest edit equal a fresh one-shot analysis
   of the same text; with [deep], the served constants also hold in the
   interpreter.  Returns the served constants plus substitutions. *)
let check_served ~seeds ~deep s =
  match s.served with
  | None -> fail "serve: no edit was served"
  | Some (text, a, q, proc) ->
      let prog = Printf.sprintf "gen-1k after edit %d" s.edits in
      let r = analyze ~file:gen1k_file text in
      let fresh =
        List.filter_map
          (fun p ->
            match Ipcp.Result.constants r p with [] -> None | cs -> Some (p, cs))
          (Ipcp.Result.procedures r)
      in
      let served = served_constants a in
      List.iter
        (fun (p, cs) ->
          List.iter
            (fun (x, c) ->
              match Option.bind (List.assoc_opt p served) (List.assoc_opt x) with
              | Some c' when c' = c -> ()
              | Some c' -> fail "%s: served %s.%s = %d, one-shot %d" prog p x c' c
              | None -> fail "%s: one-shot proves %s.%s = %d, serve does not" prog p x c)
            cs)
        fresh;
      if Ipcp.Result.total_constants r <> int_at [ "total_constants" ] a
         || substituted r <> int_at [ "substituted" ] a
         || List.length (List.concat_map snd fresh)
            <> List.length (List.concat_map snd served)
      then
        fail "%s: served %d constants and %d substitutions, one-shot %d and %d"
          prog (int_at [ "total_constants" ] a) (int_at [ "substituted" ] a)
          (Ipcp.Result.total_constants r) (substituted r);
      let queried =
        match Json.member "constants" q with
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (x, v) -> Option.map (fun c -> (x, c)) (Json.to_int v))
              kvs
        | _ -> fail "%s: the query for %s returned no constants" prog proc
      in
      if List.sort compare queried
         <> List.sort compare (Ipcp.Result.constants r proc)
      then
        fail "%s: the query for %s's constants differs from the one-shot result"
          prog proc;
      if deep then
        Checks.claims_hold ~prog ~what:"served CONSTANTS" ~seeds (symtab_of r)
          (Checks.table_of served);
      int_at [ "total_constants" ] a + int_at [ "substituted" ] a

let serve_setup ~config ~seed =
  let dir = fresh_dir () in
  let s = open_session ~config ~seed ~dir in
  if Inputs.text s.ed <> Inputs.gen_1k () then
    fail "serve: the editable text does not reproduce the program";
  (edit_op s) () ();
  let seeds = Inputs.interp_seeds seed and proved = ref None in
  let exec () =
    let check = edit_op s () in
    fun () ->
      check ();
      let n = check_served ~seeds ~deep:(!proved = None) s in
      if !proved = None then proved := Some n
  in
  {
    round = [| { label = "edit"; probe = false; exec } |];
    proved = (fun () -> Option.value ~default:0 !proved);
    release = (fun () -> release_dir dir);
  }

let serve_trace ~seed =
  let dir = fresh_dir () in
  let s = open_session ~config:jobs1 ~seed ~dir in
  let hits = ref 0 and lookups = ref 0 in
  let cache_counts () =
    let st = result_of "stats" (Server.handle_line s.sv (frame s "stats" [])) in
    (int_at [ "cache"; "hits" ] st, int_at [ "cache"; "misses" ] st)
  in
  let traced acc =
    let h0, m0 = cache_counts () in
    Obs.set_enabled true;
    let check =
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) (edit_op ~acc s)
    in
    fun () ->
      check ();
      let h1, m1 = cache_counts () in
      hits := !hits + (h1 - h0);
      lookups := !lookups + (h1 - h0) + (m1 - m0)
  in
  {
    pairs =
      [|
        { op = { label = "edit"; probe = false; exec = edit_op s }; traced = Some traced };
      |];
    work =
      (fun () ->
        [
          ( "work.serve.rcache_hit_ratio",
            float_of_int !hits /. float_of_int (max 1 !lookups) );
        ]);
    t_release = (fun () -> release_dir dir);
  }

(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  setup_reps : int;  (** set-ups per timed run; setup_s is their median *)
  setup : config:Config.t -> seed:int -> instance;
  trace : seed:int -> traced_instance;
}

let all =
  [
    { name = "suite"; setup_reps = 11; setup = suite_setup; trace = suite_trace };
    { name = "gen-10k"; setup_reps = 1; setup = gen10k_setup; trace = gen10k_trace };
    {
      name = "contexts-1k";
      setup_reps = 3;
      setup = contexts_setup;
      trace = contexts_trace;
    };
    {
      name = "serve-edit-1k";
      setup_reps = 3;
      setup = serve_setup;
      trace = serve_trace;
    };
  ]
