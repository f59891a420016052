(* The K searches, [Flow.run] and [Flow.run_adaptive], timed on a list
   of designs: the whole of the [window] and [saturated] workloads
   (fixed designs at scale 0.25) and the in-process half of [serve]. *)

module Flow = Cals_core.Flow
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Equiv = Cals_verify.Equiv
module Router = Cals_route.Router
module Sta = Cals_sta.Sta
module Rng = Cals_util.Rng

let library = Designs.library

type prepared = {
  name : string;
  utilization : float;
  seed : int;  (** The companion placement draws from [seed + 1]. *)
  subject : Subject.t;
  floorplan : Cals_place.Floorplan.t;
}

let prepared ~name ~utilization ~seed subject =
  { name; utilization; seed; subject; floorplan = Designs.floorplan_of subject utilization }

type driver = Linear | Adaptive

let run_linear p =
  Flow.run ~subject:p.subject ~library ~floorplan:p.floorplan ~rng:(Designs.rng_of ~seed:p.seed) ()

let run_adaptive p =
  Flow.run_adaptive ~subject:p.subject ~library ~floorplan:p.floorplan
    ~rng:(Designs.rng_of ~seed:p.seed) ()

let run_driver p = function Linear -> run_linear p | Adaptive -> fst (run_adaptive p)

let accepted_k (o : Flow.outcome) = Option.map (fun it -> it.Flow.k) o.Flow.accepted

let netlist (o : Flow.outcome) = Option.map Mapped.to_verilog o.Flow.mapped

(* ---------------- set-up: everything before the first Flow call ---------------- *)

(* Generate -> Optimize.script_light -> Decompose, the two library calls
   timed into [a]. *)
let setup_design a (d : Designs.design) =
  let network = Designs.generate d.Designs.name ~seed:Designs.fixture_seed in
  Traced.timed a "logic.optimize" (fun () -> Cals_logic.Optimize.script_light network);
  Traced.timed a "logic.decompose" (fun () -> Cals_logic.Decompose.subject_of_network network)

let setup designs =
  List.map
    (fun (d : Designs.design) ->
      prepared ~name:d.Designs.name ~utilization:d.Designs.utilization
        ~seed:Designs.fixture_seed
        (setup_design (Traced.acc ()) d))
    designs

let check_setup tally p subject =
  Measure.check tally
    (Printf.sprintf "%s: set-up is deterministic" p.name)
    (Subject.num_gates p.subject = Subject.num_gates subject)

(* Each design's set-up again, as a step that runs in every measured
   round; [setup_s] is from these repeats, not from [setup]. *)
let setup_steps tally designs prepared =
  List.map2
    (fun d p ->
      ( "setup " ^ p.name,
        fun () ->
          let subject, dt = Measure.time (fun () -> setup_design (Traced.acc ()) d) in
          check_setup tally p subject;
          dt ))
    designs prepared

(* ---------------- output checks ---------------- *)

let miter tally p (o : Flow.outcome) =
  match (o.Flow.accepted, o.Flow.mapped) with
  | Some it, Some mapped ->
    let verdict =
      Equiv.check ~rounds:8
        ~rng:(Rng.create (Flow.equiv_seed ~k:it.Flow.k))
        (Equiv.of_subject p.subject) (Equiv.of_mapped mapped)
    in
    Measure.check tally
      (Printf.sprintf "%s: accepted netlist passes the miter" p.name)
      (Result.is_ok verdict)
  | _ -> ()

let adaptive_matches_linear tally p ~linear ~adaptive =
  Measure.check tally
    (Printf.sprintf "%s: run_adaptive accepts the same K as Flow.run" p.name)
    (accepted_k linear = accepted_k adaptive);
  Measure.check tally
    (Printf.sprintf "%s: run_adaptive maps the same netlist as Flow.run" p.name)
    (netlist linear = netlist adaptive)

(* ---------------- workload properties ---------------- *)

type shares = { points : int; pruned : int; routed : int; regime_ii : int }

let shares outcomes =
  List.fold_left
    (fun s (o : Flow.outcome) ->
      let its = o.Flow.iterations in
      let count f = List.length (List.filter f its) in
      {
        points = s.points + List.length its;
        pruned = s.pruned + count (fun it -> it.Flow.estimated);
        routed =
          s.routed
          + count (fun it -> (not it.Flow.estimated) && it.Flow.hpwl_um < infinity);
        regime_ii = (s.regime_ii + if Designs.region o = "ii" then 1 else 0);
      })
    { points = 0; pruned = 0; routed = 0; regime_ii = 0 }
    outcomes

let print_properties ~workload prepared outcomes =
  let s = shares outcomes in
  List.iter2
    (fun p o ->
      Printf.printf "perfbench: %s %s u=%.3f gates=%d region %s, accepted K=%s, %d K points\n"
        workload p.name p.utilization
        (Subject.num_gates p.subject) (Designs.region o)
        (match accepted_k o with Some k -> Printf.sprintf "%g" k | None -> "none")
        (List.length o.Flow.iterations))
    prepared outcomes;
  Printf.printf
    "perfbench: %s properties: pruned_share=%.3f routed_share=%.3f of %d K points, regime_ii_share=%.3f\n"
    workload
    (Measure.share s.pruned s.points)
    (Measure.share s.routed s.points)
    s.points
    (Measure.share s.regime_ii (List.length outcomes))

(* ---------------- the untraced run ---------------- *)

let driver_name = function Linear -> "flow" | Adaptive -> "adaptive"

(* A step of a measured round: one K search, or a step of the workload's
   own that times itself and returns its seconds. *)
type step = Search of prepared * driver | Side of string * (unit -> float)

type measured = {
  rounds : int;
  samples : string -> float list;
      (** Per step, every repeat: ["<design>/flow"], ["<design>/adaptive"]
          or the side step's name. *)
  outcomes : Flow.outcome list;  (** [Flow.run]'s, per design. *)
  peak_rss_mb : float;  (** After the first [min_rounds] rounds. *)
}

let min_rounds = 3

(* One repeat of every design and driver, and of every side step, per
   round, the order rotated from round to round, until [seconds] have
   passed; then the output checks on the first repeat of each design.
   [Flow.run_adaptive] runs once for the checks if it is not among
   [drivers]. *)
let measure tally ~seconds ~drivers ~side prepared =
  let samples = Hashtbl.create 32 and reference = Hashtbl.create 32 in
  let record key dt =
    Hashtbl.replace samples key (dt :: Option.value (Hashtbl.find_opt samples key) ~default:[])
  in
  let steps =
    List.concat_map (fun p -> List.map (fun d -> Search (p, d)) drivers) prepared
    @ List.map (fun (key, f) -> Side (key, f)) side
  in
  (* The heap's high-water mark creeps up with every round, and a faster
     host fits more rounds in [seconds]; read at a fixed amount of work,
     the peak does not depend on the host's speed. *)
  let peak_rss_mb = ref 0.0 in
  let rounds =
    Measure.rounds ~seconds ~min_rounds (fun r ->
        if r = min_rounds then peak_rss_mb := Measure.peak_rss_mb ();
        List.iter
          (function
            | Side (key, f) -> Option.iter (record key) (Measure.attempt tally key f)
            | Search (p, driver) -> (
              match
                Measure.attempt tally p.name (fun () ->
                    Measure.time (fun () -> run_driver p driver))
              with
              | None -> ()
              | Some (outcome, dt) -> (
                record (p.name ^ "/" ^ driver_name driver) dt;
                match Hashtbl.find_opt reference (p.name, driver) with
                | None -> Hashtbl.add reference (p.name, driver) outcome
                | Some o0 ->
                  Measure.check tally
                    (Printf.sprintf "%s: repeats give the same outcome" p.name)
                    (accepted_k o0 = accepted_k outcome
                    && List.length o0.Flow.iterations = List.length outcome.Flow.iterations))))
          (Measure.rotate r steps))
  in
  if List.length rounds = min_rounds then peak_rss_mb := Measure.peak_rss_mb ();
  let outcomes =
    List.filter_map
      (fun p ->
        let adaptive =
          match Hashtbl.find_opt reference (p.name, Adaptive) with
          | Some o -> Some o
          | None ->
            Measure.attempt tally p.name (fun () -> fst (run_adaptive p))
        in
        match (Hashtbl.find_opt reference (p.name, Linear), adaptive) with
        | Some linear, Some adaptive ->
          adaptive_matches_linear tally p ~linear ~adaptive;
          miter tally p linear;
          Some linear
        | _ -> None)
      prepared
  in
  {
    rounds = List.length rounds;
    samples = (fun key -> Option.value (Hashtbl.find_opt samples key) ~default:[]);
    outcomes;
    peak_rss_mb = !peak_rss_mb;
  }

let fastest = List.fold_left Float.min infinity

(* A driver's timing: each design's [stat] over its repeats, summed.

   [flow_s] and [adaptive_s] take the fastest repeat. On a shared 2-core
   host the slow phases last longer than a round, often most of a run,
   and only ever add time: the median of the repeats followed them (25 %
   IQR/median over ten window runs), the fastest repeat much less. *)
let summed m prepared driver stat =
  List.fold_left (fun acc p -> acc +. stat (m.samples (p.name ^ "/" ^ driver_name driver))) 0.0 prepared

(* [setup_s]: each design's median set-up repeat, summed. *)
let setup_s m prepared =
  List.fold_left (fun acc p -> acc +. Measure.median (m.samples ("setup " ^ p.name))) 0.0 prepared

let print_timings ~workload m prepared drivers =
  Printf.printf "perfbench: %s %d rounds:%s\n" workload m.rounds
    (String.concat ""
       (List.map
          (fun d ->
            Printf.sprintf " %s fastest %.4f median %.4f" (driver_name d)
              (summed m prepared d fastest) (summed m prepared d Measure.median))
          drivers))

let run_untraced ~workload ~designs ~seconds =
  let tally = Measure.tally () in
  let prepared = setup designs in
  let drivers = [ Linear; Adaptive ] in
  let m = measure tally ~seconds ~drivers ~side:(setup_steps tally designs prepared) prepared in
  if List.length m.outcomes = List.length prepared then
    print_properties ~workload prepared m.outcomes;
  print_timings ~workload m prepared drivers;
  ( tally,
    [
      ("setup_s", setup_s m prepared);
      ("flow_s", summed m prepared Linear fastest);
      ("adaptive_s", summed m prepared Adaptive fastest);
      ("peak_rss_mb", m.peak_rss_mb);
    ] )

(* ---------------- the traced run ---------------- *)

(* Per round and design, in an order rotated from round to round: the
   set-up, [Flow.run] untraced, the traced replica of it, and
   [Flow.run_parallel ~jobs:2]. *)
let run_traced ~workload ~designs ~seconds =
  let tally = Measure.tally () in
  let prepared = setup designs in
  let refs =
    List.map
      (fun p ->
        let linear = run_linear p in
        let adaptive, stats = run_adaptive p in
        adaptive_matches_linear tally p ~linear ~adaptive;
        miter tally p linear;
        (p, linear, stats))
      prepared
  in
  let design_of = List.map2 (fun p d -> (p.name, d)) prepared designs in
  let replicas = Hashtbl.create 4 in
  let per_round =
    Measure.rounds ~seconds ~min_rounds:2 (fun r ->
        let a = Traced.acc () in
        let steps =
          List.concat_map
            (fun r -> [ (r, `Setup); (r, `Flow); (r, `Replica); (r, `Parallel) ])
            refs
        in
        List.iter
          (fun ((p, linear, _), step) ->
            let name = p.name in
            match step with
            | `Setup ->
              Gc.compact ();
              check_setup tally p (setup_design a (List.assoc name design_of))
            | `Flow ->
              Option.iter
                (fun (_, dt) -> Traced.add a "flow_s" dt)
                (Measure.attempt tally name (fun () -> Measure.time (fun () -> run_linear p)))
            | `Replica ->
              Gc.compact ();
              Option.iter
                (fun (s : Traced.search) ->
                  Measure.check tally
                    (Printf.sprintf "%s: traced search reports what Flow.run reports" name)
                    (Traced.same_iterations s.Traced.iterations linear.Flow.iterations);
                  if not (Hashtbl.mem replicas name) then Hashtbl.add replicas name s)
                (Measure.attempt tally name (fun () ->
                     Traced.search a ~subject:p.subject ~floorplan:p.floorplan
                       ~rng:(Designs.rng_of ~seed:p.seed) ~schedule:Flow.default_k_schedule))
            | `Parallel ->
              Option.iter
                (fun ((o : Flow.outcome), dt) ->
                  Traced.add a "parallel_s" dt;
                  Measure.check tally
                    (Printf.sprintf "%s: run_parallel accepts the same K" name)
                    (accepted_k o = accepted_k linear))
                (Measure.attempt tally name (fun () ->
                     Measure.time (fun () ->
                         Flow.run_parallel ~jobs:2 ~subject:p.subject ~library
                           ~floorplan:p.floorplan ~rng:(Designs.rng_of ~seed:p.seed) ()))))
          (Measure.rotate r steps);
        a)
  in
  (* Post-route STA and QoR at each accepted K, on the replica's result. *)
  let qor = Traced.acc () in
  List.iter
    (fun (p, _, _) ->
      match Hashtbl.find_opt replicas p.name with
      | Some { Traced.accepted = Some (it, mapped, placement, routing); _ } ->
        let report =
          Traced.timed qor "sta.analyze" (fun () ->
              Sta.analyze ~net_length_um:routing.Router.net_length_um mapped
                ~wire:Designs.wire ~placement)
        in
        Traced.add qor "accepted" 1.0;
        Traced.add qor "cell_area" it.Flow.cell_area;
        Traced.add qor "wirelength" routing.Router.wirelength_um;
        Traced.add qor "crit_path" report.Sta.critical.Sta.arrival_ns
      | _ -> ())
    refs;
  let outcomes = List.map (fun (_, o, _) -> o) refs in
  print_properties ~workload prepared outcomes;
  let s = shares outcomes in
  let sum_stats f = float_of_int (List.fold_left (fun acc (_, _, st) -> acc + f st) 0 refs) in
  Printf.printf "perfbench: %s %d traced rounds\n" workload (List.length per_round);
  let med key = Measure.median (List.map (fun a -> Traced.get a key) per_round) in
  ( tally,
    [
      ("logic.optimize_s", med "logic.optimize_s");
      ("logic.decompose_s", med "logic.decompose_s");
      ( "logic.subject_gates",
        float_of_int
          (List.fold_left (fun acc p -> acc + Subject.num_gates p.subject) 0 prepared) );
    ]
    @ Traced.layer_metrics ~workload per_round
    @ [
        ("sta.analyze_s", Traced.get qor "sta.analyze_s");
        ("core.adaptive_real_routes", sum_stats (fun st -> st.Flow.real_routes));
        ("core.adaptive_forecast_evals", sum_stats (fun st -> st.Flow.forecast_evals));
        ( "core.parallel_speedup",
          Measure.median
            (List.map (fun a -> Traced.ratio (Traced.get a "flow_s") (Traced.get a "parallel_s")) per_round) );
        ( "trace.overhead_s",
          Measure.median
            (List.map (fun a -> Traced.get a "search_s" -. Traced.get a "flow_s") per_round) );
        ("accepted_share", Measure.share (int_of_float (Traced.get qor "accepted")) (List.length refs));
        ("cell_area_um2", Traced.get qor "cell_area");
        ("wirelength_um", Traced.get qor "wirelength");
        ("crit_path_ns", Traced.get qor "crit_path");
        ("kpoints.pruned_share", Measure.share s.pruned s.points);
        ("kpoints.routed_share", Measure.share s.routed s.points);
        ("window.regime_ii_share", Measure.share s.regime_ii (List.length outcomes));
      ] )
