(* The multicore pipeline's two contracts:

   1. DETERMINISM — analysis results with [jobs = N] are identical to the
      sequential path ([jobs = 1]): the solver fixpoint, the census, the
      lint diagnostics, and the substituted source, on every bundled
      suite program and on randomly generated ones.  The pool makes this
      true by construction (per-task result slots, canonical-order
      joins), and these tests keep it true.

   2. SCHEDULING — the SCC-condensation priority worklist reaches the
      same fixpoint as the paper's FIFO discipline (chaotic iteration of
      monotone functions), and never needs more pops to get there. *)

open Ipcp_frontend
module Pool = Ipcp_par.Pool
module Config = Ipcp_core.Config
module Driver = Ipcp_core.Driver
module Solver = Ipcp_core.Solver
module Clattice = Ipcp_core.Clattice
module Substitute = Ipcp_opt.Substitute
module Lint = Ipcp_analysis.Lint
module Programs = Ipcp_suite.Programs
module Generator = Ipcp_gen.Generator
module SM = Names.SM

let cfg_jobs jobs = { Config.default with Config.jobs }

let vals_equal = SM.equal (SM.equal Clattice.equal)

(* ------------------------------------------------------------------ *)
(* Pool combinators *)

let pool_tests =
  [
    Alcotest.test_case "map_list matches List.map at every width" `Quick
      (fun () ->
        let f x = (x * 37) mod 101 in
        List.iter
          (fun n ->
            let xs = List.init n (fun i -> i) in
            let expect = List.map f xs in
            List.iter
              (fun jobs ->
                Alcotest.(check (list int))
                  (Fmt.str "n=%d jobs=%d" n jobs)
                  expect
                  (Pool.map_list ~jobs f xs))
              [ 1; 2; 3; 4; 8 ])
          [ 0; 1; 2; 7; 100 ]);
    Alcotest.test_case "map_sm is SM.mapi, any width" `Quick (fun () ->
        let m =
          List.fold_left
            (fun m i -> SM.add (Fmt.str "k%02d" i) i m)
            SM.empty
            (List.init 40 (fun i -> i))
        in
        let f k v = Fmt.str "%s=%d" k (v * v) in
        let expect = SM.mapi f m in
        List.iter
          (fun jobs ->
            Alcotest.(check bool)
              (Fmt.str "jobs=%d" jobs)
              true
              (SM.equal String.equal expect (Pool.map_sm ~jobs f m)))
          [ 1; 2; 4 ]);
    Alcotest.test_case "first exception in input order is re-raised" `Quick
      (fun () ->
        let boom i = if i >= 3 then failwith (Fmt.str "task %d" i) else i in
        List.iter
          (fun jobs ->
            match Pool.map_list ~jobs boom (List.init 10 (fun i -> i)) with
            | _ -> Alcotest.fail "expected an exception"
            | exception Failure msg ->
                (* tasks 3..9 all raise; input order picks task 3 *)
                Alcotest.(check string) (Fmt.str "jobs=%d" jobs) "task 3" msg)
          [ 1; 2; 4 ]);
    Alcotest.test_case "nested maps flatten and stay correct" `Quick
      (fun () ->
        let inner x = Pool.map_list ~jobs:4 (fun y -> x + y) [ 1; 2; 3 ] in
        let got = Pool.map_list ~jobs:4 inner [ 10; 20 ] in
        Alcotest.(check (list (list int)))
          "nested" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] got);
    Alcotest.test_case "iter_sm runs every task exactly once" `Quick
      (fun () ->
        let m =
          List.fold_left
            (fun m i -> SM.add (Fmt.str "k%02d" i) i m)
            SM.empty
            (List.init 30 (fun i -> i))
        in
        List.iter
          (fun jobs ->
            let hits = Array.make 30 0 in
            Pool.iter_sm ~jobs (fun _ v -> hits.(v) <- hits.(v) + 1) m;
            Alcotest.(check (array int))
              (Fmt.str "jobs=%d" jobs)
              (Array.make 30 1) hits)
          [ 1; 4 ]);
  ]

(* Chunked dispatch: batches large enough to group tasks into
   cost-balanced ranges, forced onto genuinely concurrent lanes with
   the oversubscription hook (the host may have one core).  Skewed
   costs make the chunk boundaries land unevenly, which is exactly
   where an off-by-one in range claiming would show. *)
let with_lanes f =
  Pool.oversubscribe := true;
  Fun.protect ~finally:(fun () -> Pool.oversubscribe := false) f

let chunking_tests =
  [
    Alcotest.test_case "skewed costs: map_array output order preserved"
      `Quick (fun () ->
        with_lanes @@ fun () ->
        let n = 257 in
        let xs = Array.init n (fun i -> i) in
        let costs =
          Array.init n (fun i -> if i mod 17 = 0 then 500 else 1)
        in
        let f x = (x * 31) mod 101 in
        let expect = Array.map f xs in
        List.iter
          (fun jobs ->
            Alcotest.(check (array int))
              (Fmt.str "jobs=%d" jobs)
              expect
              (Pool.map_array ~jobs ~costs f xs))
          [ 2; 3; 8 ]);
    Alcotest.test_case "chunked batches re-raise the first exception"
      `Quick (fun () ->
        with_lanes @@ fun () ->
        (* tasks 97..299 all raise; chunked or not, input order wins *)
        let xs = Array.init 300 (fun i -> i) in
        let costs = Array.init 300 (fun i -> if i < 97 then 50 else 1) in
        let boom i = if i >= 97 then failwith (Fmt.str "task %d" i) else i in
        match Pool.map_array ~jobs:8 ~costs boom xs with
        | _ -> Alcotest.fail "expected an exception"
        | exception Failure msg -> Alcotest.(check string) "first" "task 97" msg);
    Alcotest.test_case "run_chunked hits every index exactly once" `Quick
      (fun () ->
        with_lanes @@ fun () ->
        let n = 300 in
        let costs = Array.init n (fun i -> if i mod 13 = 0 then 200 else 1) in
        (* lanes claim disjoint index ranges, so plain writes suffice *)
        let hits = Array.make n 0 in
        Pool.run_chunked ~jobs:8 ~costs (fun i -> hits.(i) <- hits.(i) + 1);
        Alcotest.(check (array int)) "once each" (Array.make n 1) hits);
    Alcotest.test_case "seq_below keeps small batches on the caller" `Quick
      (fun () ->
        with_lanes @@ fun () ->
        let caller = (Domain.self () :> int) in
        let xs = Array.init 50 (fun i -> i) in
        let doms =
          Pool.map_array ~jobs:8 ~seq_below:max_int
            (fun _ -> (Domain.self () :> int))
            xs
        in
        Alcotest.(check (array int))
          "all on the calling domain" (Array.make 50 caller) doms);
  ]

(* ------------------------------------------------------------------ *)
(* Parallel determinism on the bundled suite *)

(* Everything an analysis run externalises, as comparable values. *)
let observe config (p : Programs.program) =
  let symtab, t =
    Driver.analyze_source ~config ~file:p.Programs.name p.Programs.source
  in
  let sub = Substitute.apply t in
  ( t.Driver.solver.Solver.vals,
    Driver.census t,
    Lint.render_text (Lint.run t),
    Pretty.program_to_string sub.Substitute.program,
    sub.Substitute.total,
    List.map (fun p -> SM.bindings (Driver.constants t p)) symtab.Symtab.order
  )

let determinism_tests =
  [
    Alcotest.test_case "jobs=4 results identical to jobs=1 (12 programs)"
      `Quick (fun () ->
        List.iter
          (fun (p : Programs.program) ->
            let vals1, census1, lint1, src1, total1, consts1 =
              observe (cfg_jobs 1) p
            in
            let vals4, census4, lint4, src4, total4, consts4 =
              observe (cfg_jobs 4) p
            in
            let name = p.Programs.name in
            Alcotest.(check bool)
              (name ^ ": solver fixpoint") true (vals_equal vals1 vals4);
            Alcotest.(check bool)
              (name ^ ": census") true (census1 = census4);
            Alcotest.(check string) (name ^ ": lint") lint1 lint4;
            Alcotest.(check string) (name ^ ": substituted source") src1 src4;
            Alcotest.(check int) (name ^ ": substituted count") total1 total4;
            Alcotest.(check bool)
              (name ^ ": CONSTANTS") true (consts1 = consts4))
          Programs.all);
  ]

(* Same determinism contract on generated programs: seeds and program
   sizes vary, so the partitioning and work skew vary with them. *)
let gen_determinism_prop (seed, n_procs) =
  let src =
    Generator.generate
      ~params:{ Generator.default with Generator.seed; n_procs }
      ()
  in
  let run jobs =
    let _, t =
      Driver.analyze_source ~config:(cfg_jobs jobs) ~file:"<gen>" src
    in
    let sub = Substitute.apply t in
    ( t.Driver.solver.Solver.vals,
      Pretty.program_to_string sub.Substitute.program )
  in
  let vals1, src1 = run 1 in
  let vals4, src4 = run 4 in
  if not (vals_equal vals1 vals4) then
    QCheck.Test.fail_reportf "seed %d procs %d: fixpoints differ" seed n_procs;
  if not (String.equal src1 src4) then
    QCheck.Test.fail_reportf "seed %d procs %d: substituted sources differ"
      seed n_procs;
  true

(* The same contract across call-graph shapes, at jobs=8 with
   oversubscribed lanes — this drives the chunked stage dispatch on
   genuinely concurrent domains even on a 1-core host.
   Observed surfaces are the ones CI diffs across job counts: the
   fixpoint, the substituted source, the lint report, and the interval
   JSON. *)
let shapes = Generator.[ Chain; Fanout; Cyclic; Mixed ]

let observe_shaped jobs src =
  let _, t = Driver.analyze_source ~config:(cfg_jobs jobs) ~file:"<gen>" src in
  let sub = Substitute.apply t in
  ( t.Driver.solver.Solver.vals,
    Pretty.program_to_string sub.Substitute.program,
    Lint.render_text (Lint.run t),
    Ipcp_obs.Json.to_string (Ipcp_core.Ranges.json (Driver.analyze_ranges t))
  )

let shaped_determinism_prop (seed, n_procs, shape) =
  let src =
    Generator.generate ~params:(Generator.scaled ~shape ~seed ~n_procs ()) ()
  in
  let vals1, src1, lint1, rng1 = observe_shaped 1 src in
  let vals8, src8, lint8, rng8 =
    with_lanes (fun () -> observe_shaped 8 src)
  in
  let where what =
    Fmt.str "seed %d procs %d shape %s: %s differ" seed n_procs
      (Generator.shape_name shape) what
  in
  if not (vals_equal vals1 vals8) then
    QCheck.Test.fail_report (where "fixpoints");
  if not (String.equal src1 src8) then
    QCheck.Test.fail_report (where "substituted sources");
  if not (String.equal lint1 lint8) then
    QCheck.Test.fail_report (where "lint reports");
  if not (String.equal rng1 rng8) then
    QCheck.Test.fail_report (where "interval JSON");
  true

let gen_determinism_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"generated programs: jobs=4 identical to jobs=1" ~count:20
         QCheck.(pair (make Gen.(int_bound 999)) (make Gen.(int_range 2 16)))
         gen_determinism_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"shaped programs: jobs=8 oversubscribed identical to jobs=1"
         ~count:8
         QCheck.(
           triple
             (make Gen.(int_bound 999))
             (make Gen.(int_range 12 40))
             (make (Gen.oneofl shapes)))
         shaped_determinism_prop);
  ]

(* ------------------------------------------------------------------ *)
(* Chunk boundaries must not disturb the global call-site numbering:
   parallel lowering gives each procedure a pre-computed site-id offset,
   so the ids must be exactly the sequential walk's no matter how the
   chunked dispatch splits the procedure list. *)

let site_numbering_tests =
  [
    Alcotest.test_case
      "parallel lowering keeps sequential call-site numbering" `Quick
      (fun () ->
        with_lanes @@ fun () ->
        let src =
          Generator.generate
            ~params:(Generator.scaled ~shape:Generator.Mixed ~n_procs:120 ())
            ()
        in
        let symtab = Sema.parse_and_analyze ~file:"<sites>" src in
        let ids cfgs =
          SM.map
            (fun (cfg : Ipcp_ir.Cfg.t) ->
              List.map
                (fun (s : Ipcp_ir.Instr.site) -> s.Ipcp_ir.Instr.site_id)
                cfg.Ipcp_ir.Cfg.sites)
            cfgs
        in
        let seq = ids (Ipcp_ir.Lower.lower_program symtab) in
        let _, t =
          Driver.analyze_source ~config:(cfg_jobs 8) ~file:"<sites>" src
        in
        Alcotest.(check bool)
          "site ids identical" true
          (SM.equal (List.equal Int.equal) seq (ids t.Driver.cfgs)))
  ]

(* ------------------------------------------------------------------ *)
(* Jobs invariance of everything a run reports, not only its fixpoint:
   the deterministic counters, the solver's statistics and convergence
   log, and the substitution totals.  Runs at jobs=4 with oversubscribed
   lanes, so the parallel stages really run concurrently even on a
   1-core host. *)

module Ipcp = Ipcp_api.Ipcp

let report jobs ~file src =
  match
    Ipcp.analyze ~config:(cfg_jobs jobs) (Ipcp.Source.of_string ~file src)
  with
  | Error e -> Alcotest.failf "%s: %s" file e
  | Ok r ->
      let sub = Ipcp.Result.substitution r in
      ( Ipcp.Result.stats r,
        Ipcp.Result.convergence r,
        Ipcp.Result.solver_stats r,
        (sub.Ipcp.Result.total, SM.bindings sub.Ipcp.Result.per_proc) )

let jobs_invariance_tests =
  [
    Alcotest.test_case "jobs=4 reports = jobs=1 reports" `Quick (fun () ->
        Ipcp_obs.Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Ipcp_obs.Obs.set_enabled false)
        @@ fun () ->
        with_lanes @@ fun () ->
        let check_src file src =
          let stats1, conv1, solver1, sub1 = report 1 ~file src in
          let stats4, conv4, solver4, sub4 = report 4 ~file src in
          Alcotest.(check bool)
            (file ^ ": counters present") true (stats1 <> []);
          Alcotest.(check (list (pair string int)))
            (file ^ ": stats") stats1 stats4;
          Alcotest.(check int)
            (file ^ ": convergence rows") (List.length conv1)
            (List.length conv4);
          Alcotest.(check bool)
            (file ^ ": convergence log") true (conv1 = conv4);
          Alcotest.(check bool)
            (file ^ ": solver stats") true (solver1 = solver4);
          Alcotest.(check (pair int (list (pair string int))))
            (file ^ ": substitution") sub1 sub4
        in
        List.iter
          (fun (p : Programs.program) ->
            check_src p.Programs.name p.Programs.source)
          Programs.all;
        List.iter
          (fun shape ->
            check_src
              (Generator.shape_name shape)
              (Generator.generate
                 ~params:(Generator.scaled ~shape ~n_procs:60 ())
                 ()))
          shapes);
  ]

(* ------------------------------------------------------------------ *)
(* Worklist scheduling *)

let solve_with strategy (t : Driver.t) =
  Solver.solve ~strategy ~symtab:t.Driver.symtab ~cg:t.Driver.cg
    ~jfs:t.Driver.jfs ()

let scheduling_tests =
  [
    Alcotest.test_case
      "SCC priority order: same fixpoint as FIFO, never more pops" `Quick
      (fun () ->
        List.iter
          (fun (p : Programs.program) ->
            let _, t =
              Driver.analyze_source ~config:(cfg_jobs 1)
                ~file:p.Programs.name p.Programs.source
            in
            let scc = solve_with Solver.Scc_order t in
            let fifo = solve_with Solver.Fifo t in
            let name = p.Programs.name in
            Alcotest.(check bool)
              (name ^ ": fixpoints agree") true
              (vals_equal scc.Solver.vals fifo.Solver.vals);
            let sp = scc.Solver.stats.Solver.pops in
            let fp = fifo.Solver.stats.Solver.pops in
            if sp > fp then
              Alcotest.failf "%s: SCC order used more pops (%d > %d)" name sp
                fp)
          Programs.all);
    Alcotest.test_case "driver's solver uses the SCC order" `Quick (fun () ->
        (* the pipeline result must equal a fresh solve under either
           discipline — the strategy is a schedule, not a semantics *)
        let p = List.hd Programs.all in
        let _, t =
          Driver.analyze_source ~config:(cfg_jobs 1) ~file:p.Programs.name
            p.Programs.source
        in
        let fifo = solve_with Solver.Fifo t in
        Alcotest.(check bool)
          "pipeline fixpoint = FIFO fixpoint" true
          (vals_equal t.Driver.solver.Solver.vals fifo.Solver.vals));
  ]

let suites =
  [
    ("par-pool", pool_tests);
    ("par-chunking", chunking_tests);
    ("par-determinism", determinism_tests);
    ("par-gen-determinism", gen_determinism_tests);
    ("par-sites", site_numbering_tests);
    ("par-jobs-invariance", jobs_invariance_tests);
    ("par-scheduling", scheduling_tests);
  ]
