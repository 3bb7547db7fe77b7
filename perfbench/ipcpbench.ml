(* The benchmark's entry point.

     ipcpbench --workload NAME --seed N --seconds S --trace 0|1
     ipcpbench --check [--seed N]

   A timed run (--trace 0) sets the workload up [setup_reps] times, runs
   whole rounds of its operations for S seconds with [Config.default],
   checks the outputs and prints the end-to-end metrics.  A traced run
   (--trace 1) runs at jobs 1 and prints the per-layer metrics.  The
   last line of standard output is the result object.  --check runs
   every workload's output checks once, untimed. *)

module W = Workloads
module Acc = Meas.Acc

let usage () =
  prerr_endline
    "usage: ipcpbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       ipcpbench --check [--seed N]";
  exit 2

let find_workload name =
  match List.find_opt (fun (w : W.workload) -> w.W.name = name) W.all with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s (known: %s)\n" name
        (String.concat ", " (List.map (fun (w : W.workload) -> w.W.name) W.all));
      exit 2

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let report_problem m = Printf.eprintf "CHECK FAILED: %s\n%!" m

(* Run one op: its time and allocation, and the outcome of its check;
   [before_check] runs between the two.  Each op starts from a collected
   heap, so that one op's garbage does not bill the next; without this,
   op times in one process drifted by 25%. *)
let run_op ?(before_check = ignore) (op : W.op) =
  Gc.compact ();
  match Meas.timed op.W.exec with
  | exception Checks.Failed m -> (0., 0., Checks.Problem m)
  | check, dt, w ->
      before_check ();
      (dt, w, Checks.guard check)

(* ------------------------------------------------------------------ *)
(* Timed run *)

let timed_run (w : W.workload) ~seed ~seconds =
  let setup_times = ref [] and inst = ref None in
  for _ = 1 to w.W.setup_reps do
    Option.iter (fun (i : W.instance) -> i.W.release ()) !inst;
    inst := None;
    Gc.compact ();
    let i, dt, _ =
      Meas.timed (fun () -> w.W.setup ~config:Ipcp_api.Ipcp.Config.default ~seed)
    in
    setup_times := dt :: !setup_times;
    inst := Some i
  done;
  let inst = Option.get !inst in
  let busy = ref 0. and words = ref 0. in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let known = Hashtbl.create 2 and by_label = Hashtbl.create 16 in
  (* the peak resident set is read before the first check, since the
     deep checks hold a second copy of the program *)
  let rss = ref None in
  let before_check () =
    if !rss = None then rss := Some (Meas.peak_rss_mb ())
  in
  while !busy < seconds do
    Array.iter
      (fun (op : W.op) ->
        let dt, wds, outcome = run_op ~before_check op in
        incr attempted;
        (match outcome with
        | Checks.Passed -> ()
        | Checks.Known m ->
            incr failed;
            Hashtbl.replace known m ()
        | Checks.Problem m ->
            incr failed;
            problems := (op.W.label ^ ": " ^ m) :: !problems);
        if not op.W.probe then begin
          busy := !busy +. dt;
          words := !words +. wds;
          Hashtbl.replace by_label op.W.label
            (dt :: Option.value ~default:[] (Hashtbl.find_opt by_label op.W.label))
        end)
      inst.W.round
  done;
  (* per-op times on standard error, for reading a run's drift *)
  Hashtbl.iter
    (fun label ts ->
      let ts = List.rev ts in
      Printf.eprintf "op %s: %d runs, median %.4gs%s\n%!" label (List.length ts)
        (Meas.median ts)
        (if List.length ts > 20 then ""
         else ": " ^ String.concat " " (List.map (Printf.sprintf "%.4g") ts)))
    by_label;
  let rss = Option.value ~default:nan !rss in
  let proved = inst.W.proved () in
  inst.W.release ();
  Hashtbl.iter
    (fun m () -> Printf.eprintf "known fault (counted as failed): %s\n%!" m)
    known;
  List.iter report_problem (List.rev !problems);
  let times = Hashtbl.fold (fun _ ts acc -> ts @ acc) by_label [] in
  let n = float_of_int (List.length times) in
  print_result ~correct:(!problems = []) ~attempted:!attempted ~failed:!failed
    [
      ("setup_s", Meas.median !setup_times, "s");
      ("op_s_p50", Meas.median times, "s");
      ("ops_per_s", n /. !busy, "1/s");
      ("alloc_mw_per_op", !words /. n /. 1e6, "MW");
      ("peak_rss_mb", rss, "MB");
      ("constants_proved", float_of_int proved, "count");
    ]

(* ------------------------------------------------------------------ *)
(* Traced run *)

let layer_metrics =
  [
    ("frontend.s", "s"); ("frontend.mw", "MW");
    ("ir.lower.s", "s"); ("ir.lower.mw", "MW");
    ("ir.ssa.s", "s"); ("ir.ssa.mw", "MW");
    ("verify.s", "s"); ("verify.mw", "MW");
    ("callgraph.s", "s"); ("summary.modref.s", "s");
    ("core.returnjf.s", "s"); ("core.returnjf.mw", "MW");
    ("core.symeval.s", "s"); ("core.symeval.mw", "MW");
    ("core.jumpfn.s", "s");
    ("core.final_evals.s", "s"); ("core.final_evals.mw", "MW");
    ("core.solver.s", "s");
    ("opt.substitute.s", "s"); ("opt.substitute.mw", "MW");
    ("incr.fingerprint.s", "s"); ("incr.fingerprint.mw", "MW");
    ("core.ranges.s", "s"); ("core.ranges.mw", "MW");
    ("analysis.lint.s", "s"); ("analysis.lint.mw", "MW");
    ("contexts.tabulation.s", "s"); ("contexts.tabulation.mw", "MW");
    ("incr.update.s", "s"); ("serve.dispatch.s", "s");
  ]
[@@ocamlformat "disable"]

let work_metrics =
  [
    ("work.symeval.runs", "count"); ("work.symeval.steps", "count");
    ("work.solver.pops", "count"); ("work.solver.jf_evals", "count");
    ("work.substitute.substituted", "count");
    ("work.contexts.created", "count"); ("work.contexts.evals", "count");
    ("work.contexts.rounds", "count");
    ("work.contexts.evals_per_context", "ratio");
    ("work.incr.dirty_procs", "count"); ("work.incr.ir_reuse_ratio", "ratio");
    ("work.serve.rcache_hit_ratio", "ratio");
  ]
[@@ocamlformat "disable"]

let traced_run (w : W.workload) ~seed ~seconds =
  let t = w.W.trace ~seed in
  let acc = Acc.create () in
  let traced_s = ref 0. and untraced_s = ref 0. and n = ref 0 and busy = ref 0. in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let outcome (op : W.op) = function
    | Checks.Passed -> ()
    | Checks.Known _ -> incr failed
    | Checks.Problem m ->
        incr failed;
        problems := (op.W.label ^ ": " ^ m) :: !problems
  in
  (* one untimed round first, so that neither side of the overhead pays
     for the heap's growth *)
  Array.iter (fun (p : W.pair) -> ignore (run_op p.W.op)) t.W.pairs;
  while !busy < seconds || !n = 0 do
    Array.iter
      (fun (p : W.pair) ->
        let dt, _, o = run_op p.W.op in
        incr attempted;
        outcome p.W.op o;
        busy := !busy +. dt;
        match p.W.traced with
        | None -> ()
        | Some replay ->
            let dup0 = Acc.get acc Replay.duplicate_key in
            Gc.compact ();
            let check, dt', _ =
              Meas.timed ~words:Meas.domain_words (fun () -> replay acc)
            in
            let dup = Acc.get acc Replay.duplicate_key -. dup0 in
            (match Checks.guard check with
            | Checks.Passed -> ()
            | Checks.Known m | Checks.Problem m ->
                problems := (p.W.op.W.label ^ " (traced): " ^ m) :: !problems);
            busy := !busy +. dt';
            traced_s := !traced_s +. (dt' -. dup);
            untraced_s := !untraced_s +. dt;
            incr n)
      t.W.pairs
  done;
  let work = t.W.work () in
  t.W.t_release ();
  List.iter report_problem (List.rev !problems);
  let per_op x = x /. float_of_int !n in
  let covered =
    List.fold_left
      (fun s (k, u) -> if u = "s" then s +. Acc.get acc k else s)
      0. layer_metrics
  in
  let work_value k =
    match List.assoc_opt k work with
    | Some v -> v
    | None when k = "work.incr.ir_reuse_ratio" ->
        Acc.get acc "work.incr.ir_reused"
        /. Float.max 1. (Acc.get acc "work.incr.procs")
    | None -> per_op (Acc.get acc k)
  in
  Printf.eprintf "trace: %d ops, coverage %.4f, unattributed %.4gs per op\n%!"
    !n (covered /. !traced_s) (per_op (!traced_s -. covered));
  print_result ~correct:(!problems = []) ~attempted:!attempted ~failed:!failed
    (List.map (fun (k, u) -> (k, per_op (Acc.get acc k), u)) layer_metrics
    @ List.map (fun (k, u) -> (k, work_value k, u)) work_metrics
    @ [
        ("trace.coverage", covered /. !traced_s, "ratio");
        ("trace.overhead_s", per_op (!traced_s -. !untraced_s), "s");
      ])

(* ------------------------------------------------------------------ *)
(* Check-only mode *)

let check_all ~seed =
  List.iter
    (fun (name, text) ->
      let procs, stmts, bytes = Inputs.makeup ~file:name text in
      Printf.printf "input %-15s %6d procedures %8d statements %8d bytes\n"
        name procs stmts bytes)
    (Inputs.all_named ());
  let ok = ref true in
  List.iter
    (fun (w : W.workload) ->
      let t0 = Meas.now () in
      let problems =
        match w.W.setup ~config:Ipcp_api.Ipcp.Config.default ~seed with
        | exception Checks.Failed m -> [ m ]
        | inst ->
            let problems =
              Array.to_list inst.W.round
              |> List.filter_map (fun (op : W.op) ->
                     match run_op op with
                     | _, _, Checks.Passed -> None
                     | _, _, Checks.Known m ->
                         Printf.printf "  known fault: %s\n" m;
                         None
                     | _, _, Checks.Problem m -> Some (op.W.label ^ ": " ^ m))
            in
            inst.W.release ();
            problems
      in
      List.iter (Printf.printf "  FAIL %s\n") problems;
      if problems <> [] then ok := false;
      Printf.printf "%-14s %-4s %6.1fs\n%!" w.W.name
        (if problems = [] then "ok" else "FAIL")
        (Meas.now () -. t0))
    W.all;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and check = ref false in
  let rec parse = function
    | [] -> ()
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--workload" :: v :: rest ->
        workload := Some v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !check then check_all ~seed:!seed
  else
    match !workload with
    | None -> usage ()
    | Some name -> (
        let w = find_workload name in
        match !trace with
        | 0 -> timed_run w ~seed:!seed ~seconds:!seconds
        | 1 -> traced_run w ~seed:!seed ~seconds:!seconds
        | _ -> usage ())
