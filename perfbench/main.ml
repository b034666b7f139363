(* The simulator's benchmark: one workload per process, chosen by
   [--workload], inputs derived from [--seed], whole rounds of the same
   operations until [--seconds] have been measured.  With [--trace 0]
   the last line of standard output carries the end-to-end metrics,
   with [--trace 1] the per-layer ones (see README.md).

     main.exe --workload sweep-rand50 --seed 1 --seconds 20 --trace 0 *)

module G = Topology.Graph
module C = Experiments.Common
module Ch = Experiments.Churn
module F = Experiments.Faults

type env = { seed : int; seconds : float; trace : bool }

(* What a workload hands [run_workload]. *)
type workload = {
  setup : unit -> unit;
      (** one build of the inputs, with the calls the experiment makes *)
  round : traced:bool -> float * int list;
      (** one round: its measured wall time and its failures per group *)
  traced_round : bool;
      (** false when the per-layer timings come from [finish] instead *)
  finish : unit -> bool;
      (** checks made after the rounds, outside the peak heap; the
          verdict on outputs that are not single operations *)
  ops : int list -> int * int;
      (** a round's (attempted, failed) from its failures, after [finish] *)
  work : float;  (** the fixed work of one round, in the workload's unit *)
  graph_layers : unit -> unit;
      (** trace mode: per-layer timings on the workload's own graph *)
}

(* Whole rounds until [seconds] have passed (at least one), calling
   [between] after each.  In trace mode the first untraced round is
   followed by one traced round, if the workload has one.  Returns the
   untraced rounds, then the traced one if any. *)
let rounds env w ~between =
  let t0 = Util.now () in
  let traced = ref None in
  let rec go acc =
    let acc = w.round ~traced:false :: acc in
    between ();
    if env.trace && w.traced_round && !traced = None then
      traced := Some (w.round ~traced:true);
    if Util.now () -. t0 >= env.seconds then List.rev acc else go acc
  in
  let untraced = go [] in
  (untraced, !traced)

(* GC work of the untraced rounds, per round. *)
let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  (r, s1.Gc.minor_words -. s0.Gc.minor_words,
   float_of_int (s1.Gc.major_collections - s0.Gc.major_collections))

(* ---- sweep-rand50 ---------------------------------------------------------- *)

let sweep_runs = 150

let sweep_name = function
  | C.Hbh -> "hbh"
  | C.Reunite -> "reunite"
  | C.Pim_ss -> "pim-ss"
  | C.Pim_sm -> "pim-sm"

(* Rebuild every tree of the sweep through the calls the sweep makes
   (same hash-derived draw per run), check each one, and total each
   protocol's cost and delay so they can be held against the sweep's
   series.  Per-call times go to [layer]. *)
let rebuild_sweep ~seed ~trace (cfg : C.config) layer =
  let failures = ref 0 in
  let totals = Hashtbl.create 64 in
  let analytic = List.map (fun p -> (p, ref 0.0)) C.all_protocols in
  let scenario = ref 0.0 and check = ref 0.0 and force = ref 0.0 in
  let forced = ref 0 in
  let t0 = Util.now () in
  List.iter
    (fun n ->
      for run = 0 to sweep_runs - 1 do
        let rng = Stats.Rng.derive2 ~seed ~a:n ~b:run in
        let graph = G.copy cfg.C.graph in
        let s =
          Util.timing scenario (fun () ->
              Workload.Scenario.make rng graph ~source:cfg.C.source
                ~candidates:cfg.C.candidates ~n)
        in
        let trees =
          List.map
            (fun p ->
              (p, Util.timing (List.assoc p analytic) (fun () -> C.build p rng s)))
            C.all_protocols
        in
        Util.timing check (fun () ->
            let sp = Check.distances_from graph cfg.C.source in
            List.iter
              (fun (p, tree) ->
                let ok =
                  Check.sweep_tree ~sp ~receivers:s.Workload.Scenario.receivers
                    ~shortest:(p = C.Hbh)
                    ~single_copy:(p = C.Hbh || p = C.Pim_ss)
                    tree
                in
                if not ok then incr failures;
                let m = Mcast.Metrics.of_distribution tree in
                let c, d =
                  Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt totals (p, n))
                in
                Hashtbl.replace totals (p, n)
                  (c +. float_of_int m.Mcast.Metrics.cost, d +. m.Mcast.Metrics.avg_delay))
              trees);
        if trace && run mod 10 = 0 then begin
          incr forced;
          Util.timing force (fun () ->
              Routing.Table.force_all (Routing.Table.compute graph))
        end
      done)
    cfg.C.sizes;
  List.iter
    (fun (p, t) -> Util.set layer ("analytic_s." ^ sweep_name p) "s" !t)
    analytic;
  Util.set layer "workload.scenario_s" "s" !scenario;
  Util.set layer "routing.force_s" "s" (!force /. float_of_int (max 1 !forced));
  Printf.printf "sweep check: %.3f s checking, %.3f s rebuilding\n" !check
    (Util.now () -. t0 -. !check -. !force);
  (!failures, totals)

(* The sweep's series, as (protocol, size) -> (mean cost, mean delay). *)
let sweep_means (r : C.result) =
  let find group p =
    List.find
      (fun s -> Stats.Series.name s = C.protocol_name p)
      (Stats.Series.group_series group)
  in
  List.concat_map
    (fun p ->
      List.map
        (fun n ->
          ( (p, n),
            ( Stats.Series.mean_at (find r.C.cost p) ~x:n,
              Stats.Series.mean_at (find r.C.delay p) ~x:n ) ))
        r.C.config.C.sizes)
    C.all_protocols

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* The paper's one 50-node topology: the one [hbh_sim fig7b] draws by
   default.  [--seed] drives the sweep's draws (costs and receivers of
   every run); a topology per seed would move the REUNITE build's cost
   by a third from seed to seed. *)
let rand50 () = C.rand50_config ~seed:42

let sweep_rand50 env layer =
  let seed = env.seed in
  let cfg = rand50 () in
  let trees = List.length cfg.C.sizes * sweep_runs * List.length C.all_protocols in
  let first = ref None and correct = ref true and failures = ref 0 in
  let round ~traced:_ =
    Layer.reset_counters ();
    let r, wall = Util.measured (fun () -> C.sweep ~runs:sweep_runs ~seed ~jobs:1 cfg) in
    let means = sweep_means r in
    (match !first with
    | None ->
        first := Some means;
        if env.trace then Layer.harvest layer
    | Some m -> if m <> means then correct := false);
    (wall, [])
  in
  (* Every tree is one operation.  The check rebuilds them all, after
     the rounds, so that its garbage is not in their peak heap: every
     round must reproduce the first round's series exactly, and the
     first must match the rebuilt trees' totals.  The rebuild also
     times each layer's calls, so the sweep has no traced round. *)
  let finish () =
    let f, totals = rebuild_sweep ~seed ~trace:env.trace cfg layer in
    failures := f;
    let runs = float_of_int sweep_runs in
    List.iter
      (fun ((p, n), (c, d)) ->
        let tc, td = Hashtbl.find totals (p, n) in
        if not (close c (tc /. runs) && close d (td /. runs)) then correct := false)
      (Option.get !first);
    !correct
  in
  {
    setup = (fun () -> ignore (rand50 ()));
    round;
    traced_round = false;
    finish;
    ops = (fun _ -> (trees, !failures));
    work = float_of_int trees;
    graph_layers =
      (fun () ->
        Util.set layer "topology.gen_s" "s" (Util.per_call (fun () -> ignore (rand50 ())));
        Layer.measure_graph layer (Stats.Rng.derive ~seed ~index:7) cfg.C.graph
          ~channels:1 ~source:cfg.C.source ~candidates:cfg.C.candidates);
  }

(* ---- churn-pl and churn-hpim ------------------------------------------------ *)

let churn_protocol_name = function
  | F.P_hbh -> "hbh"
  | F.P_reunite -> "reunite"
  | F.P_pim_ssm -> "pim-ssm"
  | F.P_hpim -> "hpim-dm"

(* The experiment's own inputs, built with the calls [Churn.run] makes
   before its event loop: topology with link costs, routing table,
   channel popularity and the merged churn schedule. *)
let churn_graph ~seed (p : Ch.params) =
  let g =
    Topology.Generators.power_law (Stats.Rng.derive2 ~seed ~a:0 ~b:0) ~n:p.Ch.routers
  in
  G.randomize_costs g (Stats.Rng.derive2 ~seed ~a:0 ~b:1) ~lo:1 ~hi:10;
  g

let endpoints g = match G.hosts g with s :: rest -> (s, rest) | [] -> assert false

let churn_schedule ~seed (p : Ch.params) ~candidates =
  let popularity = Workload.Zipf.create ~s:p.Ch.zipf_s ~n:p.Ch.channels () in
  Workload.Churn.multi ~seed ~channels:p.Ch.channels ~candidates ~rate:p.Ch.rate
    ~popularity ~mean_hold:p.Ch.mean_hold ~horizon:p.Ch.horizon

let churn_inputs ~seed p =
  let g = churn_graph ~seed p in
  (* Lazy: O(nodes) until the first query, as in the experiment. *)
  ignore (Routing.Table.compute g);
  let _, candidates = endpoints g in
  (g, churn_schedule ~seed p ~candidates)

(* The membership each sample must report, from the generated schedule
   alone: (instant, (live members over all channels, channels with at
   least one member)) at every instant the experiment samples, one
   every [sample_every] up to the horizon. *)
let expected_samples (p : Ch.params) sched =
  let per_channel = Array.init p.Ch.channels (Workload.Churn.project sched) in
  let rec go t acc =
    if t > p.Ch.horizon +. 1e-9 then List.rev acc
    else
      go (t +. p.Ch.sample_every)
        ((t, Check.scheduled_membership per_channel t) :: acc)
  in
  go p.Ch.sample_every []

(* The experiment's default seed, whatever [--seed] says.  The clock
   fault (README.md, known faults) fails a seed-dependent number of
   samples -- on churn-hpim, 2 of 4 at this seed and 1 of 4 at seed 2
   -- so only inputs fixed across runs fail the same share every run. *)
let churn_seed = 42

let churn env layer ~protocols ~routers ~channels =
  let seed = churn_seed in
  let params = { Ch.default_params with Ch.routers; channels } in
  (* Only the expected counts outlive the set-up, so the schedule and
     graph are not in the rounds' peak heap. *)
  let expected = expected_samples params (snd (churn_inputs ~seed params)) in
  (* Each sample is one operation: its member and active-channel counts
     must be the schedule's membership at its instant. *)
  let reported = ref false in
  let check_samples (o : Ch.outcome) =
    List.fold_left
      (fun acc (t, (members, active)) ->
        match List.find_opt (fun s -> s.Ch.s_time = t) o.Ch.o_samples with
        | Some s when s.Ch.s_members = members && s.Ch.s_active = active -> acc
        | found ->
            if not !reported then begin
              let name = churn_protocol_name o.Ch.o_proto in
              match found with
              | Some s ->
                  Printf.printf
                    "%s t=%.0f: %d members on %d channels, schedule says %d on %d\n"
                    name t s.Ch.s_members s.Ch.s_active members active
              | None -> Printf.printf "%s t=%.0f: no sample\n" name t
            end;
            acc + 1)
      0 expected
  in
  let round ~traced =
    let wall = ref 0.0 in
    let failures =
      List.map
        (fun proto ->
          Layer.reset_counters ();
          let outcomes, t =
            Util.measured (fun () ->
                Ch.run ~protocols:[ proto ] ~arms:[ false ] ~params ~jobs:1 ~seed ())
          in
          wall := !wall +. t;
          if traced then begin
            Layer.harvest layer;
            Util.set layer ("proto_s." ^ churn_protocol_name proto) "s" t
          end;
          List.fold_left (fun acc o -> acc + check_samples o) 0 outcomes)
        protocols
    in
    reported := true;
    (!wall, failures)
  in
  {
    setup = (fun () -> ignore (churn_inputs ~seed params));
    round;
    traced_round = true;
    finish = (fun () -> true);
    ops = (fun f -> (List.length expected * List.length protocols, List.fold_left ( + ) 0 f));
    work = float_of_int (channels * List.length protocols) *. params.Ch.horizon;
    graph_layers =
      (fun () ->
        let g = churn_graph ~seed params in
        let source, candidates = endpoints g in
        Util.set layer "topology.gen_s" "s"
          (Util.per_call (fun () -> ignore (churn_graph ~seed params)));
        Util.set layer "workload.schedule_s" "s"
          (Util.per_call (fun () -> ignore (churn_schedule ~seed params ~candidates)));
        Layer.measure_graph layer (Stats.Rng.derive ~seed:env.seed ~index:7) g
          ~channels ~source ~candidates);
  }

(* ---- verify-isp --------------------------------------------------------------- *)

let verify_protocols = Verif.Sut.[ Hbh; Reunite; Pim_ssm; Hpim_dm ]

let make_sut p =
  let graph = Topology.Isp.create () in
  Verif.Sut.make ~candidates:Topology.Isp.receiver_hosts p
    (Routing.Table.compute graph) ~source:Topology.Isp.source

(* Busy time inside the SUT's closures, by rebuilding the record with
   each verb timed. *)
type sut_timers = {
  save : float ref;
  restore : float ref;
  run_for : float ref;
  probe : float ref;
  digest : float ref;
  inject : float ref;
}

let timers () =
  {
    save = ref 0.0;
    restore = ref 0.0;
    run_for = ref 0.0;
    probe = ref 0.0;
    digest = ref 0.0;
    inject = ref 0.0;
  }

let wrap tm (s : Verif.Sut.t) =
  {
    s with
    Verif.Sut.save =
      (fun () ->
        let restore = Util.timing tm.save s.Verif.Sut.save in
        fun () -> Util.timing tm.restore restore);
    run_for = (fun d -> Util.timing tm.run_for (fun () -> s.Verif.Sut.run_for d));
    probe = (fun () -> Util.timing tm.probe s.Verif.Sut.probe);
    dump_tables = (fun () -> Util.timing tm.digest s.Verif.Sut.dump_tables);
    inject = (fun a -> Util.timing tm.inject (fun () -> s.Verif.Sut.inject a));
  }

(* The CI configuration, explorer seed included: other explorer seeds
   reach other state spaces (up to twice the work) and some of them
   hold HPIM-DM counterexamples (see README.md, known faults), so this
   workload does not vary with [--seed]. *)
let verify_config =
  {
    Verif.Explore.default_config with
    Verif.Explore.depth = 4;
    max_states = 1500;
    seed = 42;
  }

let verify_isp env layer =
  let round ~traced =
    let tm = timers () in
    let mk p = if traced then wrap tm (make_sut p) else make_sut p in
    let wall = ref 0.0 in
    (* [proto]: the protocol whose [proto_s] the exploration counts
       in; none for the planted search. *)
    let explore ?proto p =
      Layer.reset_counters ();
      let sut = mk p in
      let o, t = Util.measured (fun () -> Verif.Explore.run ~config:verify_config sut) in
      wall := !wall +. t;
      if traced then begin
        Option.iter (fun name -> Util.set layer ("proto_s." ^ name) "s" t) proto;
        Util.add layer "verif.states" "count" (float_of_int o.Verif.Explore.states);
        Util.add layer "verif.transitions" "count"
          (float_of_int o.Verif.Explore.transitions);
        Util.add layer "verif.oracle_checks" "count"
          (float_of_int o.Verif.Explore.oracle_checks)
      end;
      o
    in
    (* Unmodified protocols: no counterexample.  REUNITE's oscillations
       are reported apart and are not failures. *)
    let clean =
      List.map
        (fun p ->
          let name = Verif.Sut.protocol_name p in
          let o = explore ~proto:name p in
          if traced then Layer.harvest layer;
          match o.Verif.Explore.counterexamples with
          | [] -> 0
          | cxs ->
              Printf.printf "%s: %d counterexamples\n" name (List.length cxs);
              1)
        verify_protocols
    in
    (* The planted mark-decay bug must be found, and its minimized plan
       must still violate when replayed on a fresh session. *)
    let planted =
      Fun.protect
        ~finally:(fun () -> Proto.Softstate.freeze_marks := false)
        (fun () ->
          Proto.Softstate.freeze_marks := true;
          let o = explore Verif.Sut.Hbh in
          match o.Verif.Explore.counterexamples with
          | [] ->
              print_endline "mark-decay: not found";
              1
          | cx :: _ ->
              let shrunk, t =
                Util.timed (fun () ->
                    Verif.Shrink.minimize ~jobs:1 ~make_sut:(fun () -> mk Verif.Sut.Hbh) cx)
              in
              wall := !wall +. t;
              if traced then begin
                Util.set layer "verif.shrink_s" "s" t;
                Layer.harvest layer
              end;
              let replay =
                Verif.Scenario.replay_plan (make_sut Verif.Sut.Hbh)
                  (Verif.Scenario.to_plan shrunk)
              in
              Format.printf "mark-decay: minimized to %a, replay %s@."
                Verif.Scenario.pp_events shrunk
                (if replay = [] then "clean" else "violates");
              if replay = [] then 1 else 0)
    in
    if traced then begin
      let set n r = Util.set layer n "s" !r in
      set "verif.save_s" tm.save;
      set "verif.restore_s" tm.restore;
      set "verif.run_for_s" tm.run_for;
      set "verif.probe_s" tm.probe;
      set "verif.digest_s" tm.digest;
      set "verif.inject_s" tm.inject
    end;
    (!wall, clean @ [ planted ])
  in
  {
    setup = (fun () -> ignore (List.map make_sut verify_protocols));
    round;
    traced_round = true;
    finish = (fun () -> true);
    ops = (fun f -> (List.length f, List.fold_left ( + ) 0 f));
    work = float_of_int (List.length verify_protocols + 1);
    graph_layers =
      (fun () ->
        Util.set layer "topology.gen_s" "s"
          (Util.per_call (fun () -> ignore (Topology.Isp.create ())));
        Layer.measure_graph layer (Stats.Rng.derive ~seed:env.seed ~index:7)
          (Topology.Isp.create ()) ~channels:1 ~source:Topology.Isp.source
          ~candidates:Topology.Isp.receiver_hosts);
  }

(* ---- Running a workload ------------------------------------------------------ *)

let workloads = [ "sweep-rand50"; "churn-pl"; "churn-hpim"; "verify-isp" ]

let make env layer = function
  | "sweep-rand50" -> sweep_rand50 env layer
  | "churn-pl" ->
      churn env layer ~protocols:[ F.P_hbh; F.P_reunite; F.P_pim_ssm ] ~routers:2000
        ~channels:64
  | "churn-hpim" -> churn env layer ~protocols:[ F.P_hpim ] ~routers:500 ~channels:16
  | _ -> verify_isp env layer

(* The set-up is timed in batches before the first round and after
   every untraced round, so that its median spans the whole run, as
   [wall_s] does, rather than one moment of it. *)
let setup_batches w = Util.batches ~k:5 ~min_s:0.05 w.setup

let run_workload env name =
  let layer = Util.metrics () in
  let w = make env layer name in
  let setups = ref (if env.trace then [] else setup_batches w) in
  let minor = ref [] and major = ref [] in
  (* Read after the first round, so that it does not depend on how many
     rounds fit in the run. *)
  let peak_heap_mb = ref None in
  let round ~traced =
    if traced then w.round ~traced
    else begin
      let r, mw, mj = gc_delta (fun () -> w.round ~traced) in
      minor := mw :: !minor;
      major := mj :: !major;
      if !peak_heap_mb = None then peak_heap_mb := Some (Util.peak_heap_mb ());
      r
    end
  in
  let between () = if not env.trace then setups := setup_batches w @ !setups in
  let untraced, traced = rounds env { w with round } ~between in
  let correct = w.finish () in
  let attempted, failed =
    List.fold_left
      (fun (a, fl) (_, f) ->
        let a', f' = w.ops f in
        (a + a', fl + f'))
      (0, 0) untraced
  in
  let walls = List.map fst untraced in
  let wall = Util.median walls in
  Printf.printf "%s: %d round(s), wall %s s, %d/%d operations failed\n%!" name
    (List.length walls)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls))
    failed attempted;
  (* A per-layer metric that a workload does not set reads 0. *)
  let m =
    if env.trace then begin
      w.graph_layers ();
      Util.set layer "gc.minor_words" "words" (Util.mean !minor);
      Util.set layer "gc.major_collections" "count" (Util.mean !major);
      Option.iter
        (fun (traced_wall, _) -> Util.set layer "trace.overhead_s" "s" (traced_wall -. wall))
        traced;
      layer
    end
    else begin
      let e2e = Util.metrics () in
      Util.set e2e "wall_s" "s" wall;
      Util.set e2e "setup_s" "s" (Util.median !setups);
      Util.set e2e "peak_heap_mb" "MB" (Option.get !peak_heap_mb);
      Util.set e2e "work_per_s" "1/s" (w.work /. wall);
      e2e
    end
  in
  Util.print_result ~correct ~attempted ~failed m

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref 0 in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured time per run (required)");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !seconds < 1 then begin
    prerr_endline ("--seconds must be at least 1\n" ^ usage);
    exit 2
  end;
  run_workload
    { seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1 }
    !workload
