(* The [serve] workload: a fixed spool of small uncongested jobs drained
   by a real 2-worker [Shard] fleet with a persistent store, and the
   spool's designs searched in process. *)

module Proto = Cals_serve.Proto
module Shard = Cals_serve.Shard
module Scheduler = Cals_serve.Scheduler
module Job = Cals_serve.Job
module Rng = Cals_util.Rng

let workers = 2

(* Above the spool size, so queue depth never degrades a job. *)
let watermark = 1_000

(* ---------------- the spool ---------------- *)

type job = {
  id : string;
  line : string;  (** The JSON line submitted to the fleet. *)
  spec : Proto.spec;
  first_of_design : bool;  (** The spool's first job on its design. *)
}

let schedules =
  [|
    None;
    Some "[0.0, 0.0005, 0.005, 0.05]";
    Some "[0.0, 0.0001, 0.001, 0.01, 0.1, 1.0]";
  |]

(* The spool's designs are fixed, like the flow fixtures: presets at
   scale 0.05-0.1, synthetic [workload] circuits and BLIF files, all
   small enough that K=0 routes. They fix which worker each design
   hashes to, so the fleet's load split is the same on every seed. *)
let designs =
  [|
    `Preset ("spla", 0.05, 101);
    `Preset ("spla", 0.075, 102);
    `Preset ("spla", 0.1, 103);
    `Preset ("pdc", 0.05, 104);
    `Preset ("pdc", 0.075, 105);
    `Preset ("pdc", 0.1, 106);
    `Preset ("too_large", 0.05, 107);
    `Workload ("pla", 108, 14, 8, 120);
    `Workload ("multilevel", 109, 14, 8, 200);
    `Workload ("multilevel", 110, 12, 6, 150);
    `Blif (`Pla, 111, 12, 10, 150);
    `Blif (`Multilevel, 112, 16, 10, 160);
  |]

let design_fields ~dir i = function
  | `Preset (name, scale, seed) ->
    Printf.sprintf "\"preset\": %S, \"scale\": %g, \"seed\": %d" name scale seed
  | `Workload (family, seed, inputs, outputs, size) ->
    Printf.sprintf
      "\"workload\": {\"family\": %S, \"seed\": %d, \"inputs\": %d, \"outputs\": %d, \"size\": %d}"
      family seed inputs outputs size
  | `Blif (family, seed, inputs, outputs, size) ->
    let path = Filename.concat dir (Printf.sprintf "design%02d.blif" i) in
    Cals_logic.Blif.write_file path
      (Cals_workload.Gen.of_fuzz ~family ~seed ~inputs ~outputs ~size);
    Printf.sprintf "\"blif\": %S" path

let jobs_per_design = 4

(* Job [i] is on design [i mod 12]: the first twelve jobs build the
   designs, each as a plain job (default ladder, no timing, no checks),
   and the other three jobs of every design are one timing job, one
   cheap-check job and one plain job, over the three K schedules. The
   seed draws, per design, the order of those three jobs and which
   schedule each runs. Every seed thus asks for the same work on every
   design, and builds each design with the same job, which keeps the
   workers' heap history, and with it their peak RSS, nearly the same. *)
let spool ~seed ~dir =
  let rng = Rng.create seed in
  let fields = Array.mapi (design_fields ~dir) designs in
  let permuted a =
    let a = Array.copy a in
    Rng.shuffle rng a;
    a
  in
  let roles =
    Array.map
      (fun _ ->
        Array.map2 (fun role schedule -> (role, schedule))
          (permuted [| `Timing; `Checks; `Plain |])
          (permuted schedules))
      designs
  in
  List.init (Array.length designs * jobs_per_design) (fun i ->
      let d = i mod Array.length designs and repeat = i / Array.length designs in
      let role, schedule =
        if repeat = 0 then (`Plain, None) else roles.(d).(repeat - 1)
      in
      let id = Printf.sprintf "job-%02d" i in
      let options =
        (match role with
        | `Timing -> [ "\"timing\": true" ]
        | `Checks -> [ "\"checks\": \"cheap\"" ]
        | `Plain -> [])
        @ match schedule with None -> [] | Some s -> [ "\"k_schedule\": " ^ s ]
      in
      let line =
        Printf.sprintf "{%s}"
          (String.concat ", " (Printf.sprintf "\"id\": %S" id :: fields.(d) :: options))
      in
      let spec =
        match Proto.spec_of_string line with
        | Ok spec -> spec
        | Error e -> failwith (Printf.sprintf "spool line %s: %s" line e)
      in
      { id; line; spec; first_of_design = repeat = 0 })

(* ---------------- files ---------------- *)

let rec remove path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  remove path;
  Cals_util.Fsutil.mkdir_p path

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ---------------- the worker side ---------------- *)

let rss_prefix = "worker-rss-"

(* A fleet worker: [Shard.worker_main] until its stdin closes, then the
   process's peak RSS is left in the artifact root for the front-end. *)
let worker_main ~out ~cache_dir =
  Shard.worker_main { Scheduler.default_config with out_dir = out; cache_dir = Some cache_dir };
  Cals_util.Fsutil.write_file
    (Filename.concat out (Printf.sprintf "%s%d" rss_prefix (Unix.getpid ())))
    (Printf.sprintf "%.17g\n" (Measure.peak_rss_mb ()))

(* ---------------- one drain ---------------- *)

type result = {
  accepted_k : float option;
  cells : int;
  cell_area : float;
  wall_s : float;
  level : int;
  iterations : int;  (** K points evaluated. *)
  real_routes : int;
  forecast_evals : int;
  critical_path_ns : float option;
  preloaded : int;  (** Match sets the job's design build read from the store. *)
}

type drain = {
  wall : float;  (** Spawn to shutdown, the front-end's view. *)
  summary : Shard.summary;
  results : (string * result) list;  (** Per job id, from metrics.json. *)
  worker_rss_mb : float;
}

let num name json =
  match Proto.member name json with Some (Proto.Num f) -> Some f | _ -> None

let result_of_metrics json =
  let get name = Option.value (num name json) ~default:nan in
  let sub obj name =
    match Proto.member obj json with Some o -> num name o | None -> None
  in
  {
    accepted_k = num "accepted_k" json;
    cells = int_of_float (get "cells");
    cell_area = get "cell_area";
    wall_s = get "wall_s";
    level = Option.fold ~none:(-1) ~some:int_of_float (sub "degradation" "level");
    iterations = int_of_float (get "iterations");
    real_routes = int_of_float (get "real_routes");
    forecast_evals = Option.fold ~none:0 ~some:int_of_float (sub "adaptive" "forecast_evals");
    critical_path_ns = sub "timing" "critical_path_ns";
    preloaded = Option.fold ~none:0 ~some:int_of_float (sub "cache" "store_preloaded");
  }

let drain ~exe ~out ~cache_dir jobs =
  fresh_dir out;
  let config =
    {
      Shard.default_config with
      workers;
      worker_argv =
        [| exe; "serve-worker"; "--out"; out; "--cache-dir"; cache_dir |];
      out_dir = out;
      max_attempts = 1;
      queue_watermark = 0;
      high_watermark = watermark;
      overload_watermark = watermark;
      triage_watermark = watermark;
    }
  in
  Gc.compact ();
  let t0 = Measure.now () in
  let fleet = Shard.create config in
  List.iter (fun j -> ignore (Shard.submit_line fleet ~source:"perfbench" j.line)) jobs;
  let summary = Shard.drain fleet () in
  let wall = Measure.now () -. t0 in
  let results =
    List.filter_map
      (fun j ->
        let path = Filename.concat (Filename.concat out j.id) "metrics.json" in
        if not (Sys.file_exists path) then None
        else
          match Proto.parse_json (read_file path) with
          | Ok json -> Some (j.id, result_of_metrics json)
          | Error _ -> None)
      jobs
  in
  let worker_rss_mb =
    Array.fold_left
      (fun acc f ->
        if String.starts_with ~prefix:rss_prefix f then
          Float.max acc (float_of_string (String.trim (read_file (Filename.concat out f))))
        else acc)
      0.0 (Sys.readdir out)
  in
  { wall; summary; results; worker_rss_mb }

(* ---------------- checks ---------------- *)

let same_result (a : result) (b : result) =
  a.accepted_k = b.accepted_k && a.cells = b.cells && a.cell_area = b.cell_area

(* Every job completed at degradation level 0 and reports what the
   reference reports for it; over the warm store, every job's design was
   built from the store. *)
let check_drain tally ~what ~warm jobs ~reference d =
  Measure.check tally (what ^ ": every job completed")
    (d.summary.Shard.completed = List.length jobs
    && d.summary.Shard.quarantined = 0 && d.summary.Shard.shed = 0
    && List.length d.results = List.length jobs);
  List.iter
    (fun (id, r) ->
      Measure.check tally (Printf.sprintf "%s: %s ran at degradation level 0" what id) (r.level = 0);
      if warm then
        Measure.check tally
          (Printf.sprintf "%s: %s's design was preloaded from the store" what id)
          (r.preloaded > 0);
      match List.assoc_opt id reference with
      | Some r0 ->
        Measure.check tally
          (Printf.sprintf "%s: %s matches the reference drain" what id)
          (same_result r0 r)
      | None -> ())
    d.results

(* A float as metrics.json renders it. *)
let as_written x = Proto.print_json (Proto.Num x)

(* The same specs through an in-process [Scheduler.run_job], over the
   warm store: accepted K, cell count and area must equal the fleet's. *)
let in_process tally ~out ~cache_dir jobs ~fleet =
  fresh_dir out;
  let scheduler =
    Scheduler.create
      { Scheduler.default_config with out_dir = out; cache_dir = Some cache_dir }
  in
  List.map
    (fun j ->
      let job = Job.create ~now:(Measure.now ()) j.spec in
      let outcome, dt =
        Measure.stopwatch (fun () -> Scheduler.run_job scheduler ~level:0 job)
      in
      (match (outcome, List.assoc_opt j.id fleet) with
      | Scheduler.Success m, Some r ->
        Measure.check tally
          (Printf.sprintf "fleet job %s equals in-process Scheduler.run_job" j.id)
          (m.Scheduler.accepted_k = r.accepted_k && m.Scheduler.cells = r.cells
          && as_written m.Scheduler.cell_area = as_written r.cell_area)
      | Scheduler.Success _, None -> ()
      | Scheduler.Fault f, _ ->
        Measure.check tally
          (Printf.sprintf "in-process %s: %s" j.id (Job.fault_to_string f))
          false);
      (j, dt))
    jobs

(* ---------------- the drains ---------------- *)

let work = ".perfbench-run/serve"
let out = Filename.concat work "out"

(* The warm store, filled once by the reference drain. *)
let store = Filename.concat work "store"

(* Emptied before every cold drain. *)
let cold_store = Filename.concat work "cold-store"

type fleet = {
  jobs : job list;
  reference : (string * result) list;  (** The reference drain's. *)
  mutable cold : drain list;  (** Latest first; the reference drain is not one. *)
  mutable warm : drain list;
  reference_rss_mb : float;
}

(* Write the spool, then drain it once from an empty store: the
   reference results, and the warm store of every later warm drain. *)
let start tally ~exe ~seed =
  let inputs = Filename.concat work "inputs" in
  fresh_dir work;
  Cals_util.Fsutil.mkdir_p inputs;
  let jobs = spool ~seed ~dir:inputs in
  fresh_dir store;
  let d = drain ~exe ~out ~cache_dir:store jobs in
  check_drain tally ~what:"reference drain" ~warm:false jobs ~reference:d.results d;
  { jobs; reference = d.results; cold = []; warm = []; reference_rss_mb = d.worker_rss_mb }

(* A fresh fleet over [store] ([warm]: a restarted fleet whose design
   builds preload their match sets from disk) or from an empty store (a
   cold drain: it builds every design and writes the store). *)
let fleet_drain tally ~exe f ~warm =
  let cache_dir = if warm then store else (fresh_dir cold_store; cold_store) in
  let d = drain ~exe ~out ~cache_dir f.jobs in
  check_drain tally ~what:(if warm then "warm drain" else "cold drain") ~warm f.jobs
    ~reference:f.reference d;
  if warm then f.warm <- d :: f.warm else f.cold <- d :: f.cold;
  d

(* ---------------- the designs, in process ---------------- *)

let network_of (spec : Proto.spec) =
  match spec.Proto.input with
  | Proto.Blif path -> Cals_logic.Blif.read_file path
  | Proto.Preset { name; scale; seed } -> (
    match name with
    | "spla" -> Cals_workload.Presets.spla_like ~scale ~seed ()
    | "pdc" -> Cals_workload.Presets.pdc_like ~scale ~seed ()
    | _ -> Cals_workload.Presets.too_large_like ~scale ~seed ())
  | Proto.Workload p ->
    Cals_workload.Gen.of_fuzz
      ~family:(match p.Cals_verify.Fuzz.family with Cals_verify.Fuzz.Pla -> `Pla | _ -> `Multilevel)
      ~seed:p.Cals_verify.Fuzz.seed ~inputs:p.Cals_verify.Fuzz.inputs
      ~outputs:p.Cals_verify.Fuzz.outputs ~size:p.Cals_verify.Fuzz.size

(* The companion-placement seed the scheduler derives from a spec. *)
let placement_seed (spec : Proto.spec) =
  match spec.Proto.input with
  | Proto.Blif _ -> 1
  | Proto.Preset { seed; _ } -> seed
  | Proto.Workload p -> p.Cals_verify.Fuzz.seed

(* Each design as the scheduler builds it, named by its first job. *)
let prepared jobs =
  List.filter_map
    (fun j ->
      if not j.first_of_design then None
      else begin
        let spec = j.spec in
        let network = network_of spec in
        if spec.Proto.optimize then Cals_logic.Optimize.script_area network
        else Cals_logic.Optimize.script_light network;
        Some
          (Flows.prepared ~name:j.id ~utilization:spec.Proto.utilization
             ~seed:(placement_seed spec)
             (Cals_logic.Decompose.subject_of_network network))
      end)
    jobs

(* The largest fleet worker of any drain. *)
let worker_rss_mb f =
  List.fold_left
    (fun acc d -> Float.max acc d.worker_rss_mb)
    f.reference_rss_mb (f.cold @ f.warm)

let job_walls drains = List.concat_map (fun d -> List.map (fun (_, r) -> r.wall_s) d.results) drains

let print_properties f =
  let n = List.length f.jobs in
  let count p = List.length (List.filter p f.jobs) in
  let walls = job_walls f.warm in
  Printf.printf
    "perfbench: serve %d jobs on %d designs: warm_share=%.3f timing_share=%.3f checks_share=%.3f\n"
    n (Array.length designs)
    (Measure.share (count (fun j -> not j.first_of_design)) n)
    (Measure.share (count (fun j -> j.spec.Proto.timing <> None)) n)
    (Measure.share (count (fun j -> j.spec.Proto.checks <> Cals_verify.Check.Off)) n);
  let accepted = List.length (List.filter (fun (_, r) -> r.accepted_k <> None) f.reference) in
  let k0 = List.length (List.filter (fun (_, r) -> r.accepted_k = Some 0.0) f.reference) in
  let sum g = List.fold_left (fun acc (_, r) -> acc + g r) 0 f.reference in
  Printf.printf
    "perfbench: serve accepted_share=%.3f (K=0: %d of %d); routed_share=%.3f of %d K points\n"
    (Measure.share accepted n) k0 n
    (Measure.share (sum (fun r -> r.real_routes)) (sum (fun r -> r.iterations)))
    (sum (fun r -> r.iterations));
  Printf.printf "perfbench: serve job_p50_s=%.4f over %d samples of %d warm drains%s\n"
    (Measure.median walls) (List.length walls) (List.length f.warm)
    (match Measure.tail walls with
    | Some (p, v) -> Printf.sprintf ", job_tail_s=%.4f at p%.1f" v p
    | None -> "")

(* Every measured round drains the spool twice, a cold and a warm
   drain, and searches the spool's designs in process with [Flow.run],
   the uncongested regime of the K search. *)
let run_untraced ~exe ~seed ~seconds =
  let tally = Measure.tally () in
  let f = start tally ~exe ~seed in
  let prepared = prepared f.jobs in
  let side =
    [
      ("cold drain", fun () -> (fleet_drain tally ~exe f ~warm:false).wall);
      ("warm drain", fun () -> (fleet_drain tally ~exe f ~warm:true).wall);
    ]
  in
  let m = Flows.measure tally ~seconds ~drivers:[ Flows.Linear ] ~side prepared in
  ignore
    (in_process tally ~out:(Filename.concat work "in-process") ~cache_dir:store f.jobs
       ~fleet:f.reference);
  print_properties f;
  Flows.print_timings ~workload:"serve" m prepared [ Flows.Linear ];
  let cold = m.Flows.samples "cold drain" and warm = m.Flows.samples "warm drain" in
  Printf.printf "perfbench: serve drains: cold median %.4f, warm fastest %.4f median %.4f\n"
    (Measure.median cold) (Flows.fastest warm) (Measure.median warm);
  Printf.printf "perfbench: serve peak RSS: this process %.1f MB, fleet workers %.1f MB\n"
    m.Flows.peak_rss_mb (worker_rss_mb f);
  ( tally,
    [
      ("setup_s", Measure.median cold);
      ("flow_s", Flows.summed m prepared Flows.Linear Flows.fastest);
      ("adaptive_s", Flows.fastest warm);
      ("peak_rss_mb", m.Flows.peak_rss_mb);
    ] )

(* ---------------- the traced run ---------------- *)

(* One distinct design, layer by layer: the front end, the traced K
   search (checked against [Flow.run]), a warmed session's store
   round-trip, and the STA and miter its jobs ask for. *)
let probe_design tally ~(search : Traced.acc) ~(build : Traced.acc) ~dir jobs (j : job) =
  let spec = j.spec in
  let network = network_of spec in
  Traced.timed build "logic.optimize" (fun () ->
      if spec.Proto.optimize then Cals_logic.Optimize.script_area network
      else Cals_logic.Optimize.script_light network);
  let subject =
    Traced.timed build "logic.decompose" (fun () ->
        Cals_logic.Decompose.subject_of_network network)
  in
  Traced.add build "logic.subject_gates" (float_of_int (Cals_netlist.Subject.num_gates subject));
  let floorplan = Designs.floorplan_of subject spec.Proto.utilization in
  let seed = placement_seed spec in
  let schedule = Option.value spec.Proto.k_schedule ~default:Cals_core.Flow.default_k_schedule in
  let reference, reference_s =
    Measure.time (fun () ->
        Cals_core.Flow.run ~k_schedule:schedule ~subject ~library:Designs.library ~floorplan
          ~rng:(Designs.rng_of ~seed) ())
  in
  Traced.add search "flow_s" reference_s;
  Gc.compact ();
  let s =
    Traced.search search ~subject ~floorplan ~rng:(Designs.rng_of ~seed) ~schedule
  in
  Measure.check tally
    (Printf.sprintf "%s: traced search reports what Flow.run reports" j.id)
    (Traced.same_iterations s.Traced.iterations reference.Cals_core.Flow.iterations);
  (* What the scheduler's design build does with a session: warm it and
     write it to the store; a restarted worker preloads it. *)
  let key = Proto.design_key spec in
  let positions =
    Cals_place.Placement.place_subject subject ~floorplan ~rng:(Designs.rng_of ~seed)
  in
  let session =
    Traced.timed build "core.session" (fun () ->
        let session =
          Cals_core.Incremental.create ~subject ~library:Designs.library ~positions ()
        in
        Cals_core.Incremental.warm session;
        session)
  in
  let saved = Traced.timed build "serve.store_save" (fun () -> Cals_serve.Store.save ~dir ~key session) in
  Measure.check tally (Printf.sprintf "%s: store save" j.id) (Result.is_ok saved);
  let fresh = Cals_core.Incremental.create ~subject ~library:Designs.library ~positions () in
  let loaded = Traced.timed build "serve.store_load" (fun () -> Cals_serve.Store.load ~dir ~key fresh) in
  Measure.check tally (Printf.sprintf "%s: store load" j.id)
    (match loaded with
    | Cals_serve.Store.Loaded n -> n = (Cals_core.Incremental.stats session).Cals_core.Incremental.trees
    | Cals_serve.Store.Cold _ -> false);
  let same_design (o : job) = Proto.design_key o.spec = key in
  (match s.Traced.accepted with
  | Some (it, mapped, placement, routing) ->
    Traced.add build "accepted" 1.0;
    Traced.add build "wirelength" routing.Cals_route.Router.wirelength_um;
    if List.exists (fun o -> same_design o && o.spec.Proto.timing <> None) jobs then
      ignore
        (Traced.timed build "sta.analyze" (fun () ->
             Cals_sta.Sta.analyze ~net_length_um:routing.Cals_route.Router.net_length_um mapped
               ~wire:Designs.wire ~placement));
    if List.exists (fun o -> same_design o && o.spec.Proto.checks <> Cals_verify.Check.Off) jobs
    then
      Measure.check tally
        (Printf.sprintf "%s: accepted netlist passes the cheap miter" j.id)
        (Result.is_ok
           (Traced.timed build "verify.check" (fun () ->
                Cals_verify.Equiv.check
                  ~rounds:(Cals_verify.Check.rounds Cals_verify.Check.Cheap)
                  ~rng:(Rng.create (Cals_core.Flow.equiv_seed ~k:it.Cals_core.Flow.k))
                  (Cals_verify.Equiv.of_subject subject)
                  (Cals_verify.Equiv.of_mapped mapped))))
  | None -> ());
  s

let run_traced ~exe ~seed ~seconds =
  let tally = Measure.tally () in
  let f = start tally ~exe ~seed in
  ignore (Measure.rounds ~seconds ~min_rounds:3 (fun _ -> fleet_drain tally ~exe f ~warm:true));
  let jobs_timed =
    in_process tally ~out:(Filename.concat work "in-process") ~cache_dir:store f.jobs
      ~fleet:f.reference
  in
  let job_s first =
    Measure.median (List.filter_map (fun (j, dt) -> if j.first_of_design = first then Some dt else None) jobs_timed)
  in
  let parse_s =
    Measure.median
      (List.init 20 (fun _ ->
           snd
             (Measure.stopwatch (fun () ->
                  List.iter (fun j -> ignore (Proto.spec_of_string j.line)) f.jobs))))
  in
  let probe_dir = Filename.concat work "store-probe" in
  fresh_dir probe_dir;
  let search = Traced.acc () and build = Traced.acc () in
  let searches =
    List.filter_map
      (fun j ->
        if not j.first_of_design then None
        else Measure.attempt tally j.id (fun () -> probe_design tally ~search ~build ~dir:probe_dir f.jobs j))
      f.jobs
  in
  print_properties f;
  Printf.printf "perfbench: serve %d warm drains, traced\n" (List.length f.warm);
  let n = List.length f.jobs in
  let count p = List.length (List.filter p f.jobs) in
  let walls = job_walls f.warm in
  let tail_pct, tail_s = Option.value (Measure.tail walls) ~default:(0.0, 0.0) in
  let warm_wall = Measure.median (List.map (fun d -> d.wall) f.warm) in
  let one_warm = (List.hd f.warm).results in
  let sum_results g = List.fold_left (fun acc (_, r) -> acc +. g r) 0.0 in
  let points = List.concat_map (fun s -> s.Traced.iterations) searches in
  let count_points f = List.length (List.filter f points) in
  let layers =
    List.filter
      (fun (name, _) -> name <> "core.session_s")
      (Traced.layer_metrics ~workload:"serve" [ search ])
  in
  ( tally,
    [
      ("logic.optimize_s", Traced.get build "logic.optimize_s");
      ("logic.decompose_s", Traced.get build "logic.decompose_s");
      ("logic.subject_gates", Traced.get build "logic.subject_gates");
      ("core.session_s", Traced.get build "core.session_s");
    ]
    @ layers
    @ [
        ("sta.analyze_s", Traced.get build "sta.analyze_s");
        ("verify.check_s", Traced.get build "verify.check_s");
        ("core.adaptive_real_routes", sum_results (fun r -> float_of_int r.real_routes) one_warm);
        ("core.adaptive_forecast_evals", sum_results (fun r -> float_of_int r.forecast_evals) one_warm);
        ("serve.cold_job_s", job_s true);
        ("serve.warm_job_s", job_s false);
        ("serve.warm_share", Measure.share (count (fun j -> not j.first_of_design)) n);
        ( "serve.worker_busy_share",
          Measure.median
            (List.map
               (fun d -> sum_results (fun r -> r.wall_s) d.results /. (float_of_int workers *. d.wall))
               f.warm) );
        ("trace.overhead_s", Traced.get search "search_s" -. Traced.get search "flow_s");
        ("serve.store_save_s", Traced.get build "serve.store_save_s");
        ("serve.store_load_s", Traced.get build "serve.store_load_s");
        ("serve.parse_s", parse_s);
        ("serve.worker_rss_mb", worker_rss_mb f);
        ("serve.timing_share", Measure.share (count (fun j -> j.spec.Proto.timing <> None)) n);
        ("serve.checks_share", Measure.share (count (fun j -> j.spec.Proto.checks <> Cals_verify.Check.Off)) n);
        ("serve_jobs_per_s", float_of_int n /. warm_wall);
        ("job_p50_s", Measure.median walls);
        ("job_tail_s", tail_s);
        ("job_tail_pct", tail_pct);
        ("job_samples", float_of_int (List.length walls));
        ( "accepted_share",
          Measure.share (List.length (List.filter (fun (_, r) -> r.accepted_k <> None) f.reference)) n );
        ("cell_area_um2", sum_results (fun r -> if r.accepted_k <> None then r.cell_area else 0.0) f.reference);
        ("wirelength_um", Traced.get build "wirelength");
        ( "crit_path_ns",
          sum_results (fun r -> Option.value r.critical_path_ns ~default:0.0) f.reference );
        ( "kpoints.pruned_share",
          Measure.share (count_points (fun it -> it.Cals_core.Flow.estimated)) (List.length points) );
        ( "kpoints.routed_share",
          Measure.share
            (count_points (fun it ->
                 (not it.Cals_core.Flow.estimated) && it.Cals_core.Flow.hpwl_um < infinity))
            (List.length points) );
      ] )
