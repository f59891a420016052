(* perfbench: the three-regime benchmark of cals.

     main.exe --workload window|saturated|serve --seed N --seconds S --trace 0|1
     main.exe derive-window

   Prints human-readable lines, then one JSON result line. The untraced
   run (--trace 0) reports the end-to-end metrics; the traced run
   (--trace 1) reports the per-layer metrics, timed around the public
   calls into each layer. The exit code is non-zero when an operation
   failed or an output check did not hold. *)

let end_to_end = [ ("setup_s", "s"); ("flow_s", "s"); ("adaptive_s", "s"); ("peak_rss_mb", "MB") ]

(* Every traced run prints all of these; a metric that does not apply to
   the workload reads 0. *)
let per_layer =
  [
    ("logic.optimize_s", "s");
    ("logic.decompose_s", "s");
    ("logic.subject_gates", "count");
    ("place.companion_s", "s");
    ("place.legalize_s", "s");
    ("place.legalize_calls", "count");
    ("place.overflows", "count");
    ("core.session_s", "s");
    ("core.cover_s", "s");
    ("core.cover_calls", "count");
    ("core.match_hit_rate", "ratio");
    ("estimate.forecast_s", "s");
    ("estimate.forecast_calls", "count");
    ("estimate.pruned_share", "ratio");
    ("estimate.uncertain_share", "ratio");
    ("estimate.forecast_route_ratio", "ratio");
    ("route.route_s", "s");
    ("route.calls", "count");
    ("route.replay_share", "ratio");
    ("route.nets_rerouted", "count");
    ("route.share", "ratio");
    ("sta.analyze_s", "s");
    ("verify.check_s", "s");
    ("core.adaptive_real_routes", "count");
    ("core.adaptive_forecast_evals", "count");
    ("core.parallel_speedup", "ratio");
    ("serve.cold_job_s", "s");
    ("serve.warm_job_s", "s");
    ("serve.warm_share", "ratio");
    ("serve.worker_busy_share", "ratio");
    ("serve.store_save_s", "s");
    ("serve.store_load_s", "s");
    ("serve.parse_s", "s");
    ("serve.worker_rss_mb", "MB");
    ("serve.timing_share", "ratio");
    ("serve.checks_share", "ratio");
    ("serve_jobs_per_s", "1/s");
    ("job_p50_s", "s");
    ("job_tail_s", "s");
    ("job_tail_pct", "%");
    ("job_samples", "count");
    ("accepted_share", "ratio");
    ("cell_area_um2", "um2");
    ("wirelength_um", "um");
    ("crit_path_ns", "ns");
    ("fail_share", "ratio");
    ("kpoints.pruned_share", "ratio");
    ("kpoints.routed_share", "ratio");
    ("window.regime_ii_share", "ratio");
    ("trace.overhead_s", "s");
    ("layers.search_s", "s");
    ("layers.unattributed_s", "s");
    ("host.ref_s", "s");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload window|saturated|serve --seed N --seconds S --trace 0|1\n\
    \       main.exe derive-window";
  exit 2

let run ~workload ~seed ~seconds ~traced =
  let flows designs =
    if traced then Flows.run_traced ~workload ~designs ~seconds
    else Flows.run_untraced ~workload ~designs ~seconds
  in
  Measure.sample_host ();
  let tally, values =
    match workload with
    | "window" -> flows Designs.window
    | "saturated" -> flows Designs.saturated
    | "serve" ->
      let exe = Sys.executable_name in
      if traced then Fleet.run_traced ~exe ~seed ~seconds
      else Fleet.run_untraced ~exe ~seed ~seconds
    | _ -> usage ()
  in
  let fail_share = Measure.share tally.Measure.failed tally.Measure.attempted in
  Printf.printf "perfbench: %s %d operations, %d failed (fail_share %.4f)\n" workload
    tally.Measure.attempted tally.Measure.failed fail_share;
  Measure.sample_host ();
  let host = !Measure.host_samples in
  Printf.printf "perfbench: host.ref_s median %.4f, min %.4f, max %.4f over %d samples\n"
    (Measure.median host) (List.fold_left Float.min infinity host)
    (List.fold_left Float.max 0.0 host) (List.length host);
  let values = ("fail_share", fail_share) :: ("host.ref_s", Measure.median host) :: values in
  let names = if traced then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        { Measure.name; unit_; value = Option.value (List.assoc_opt name values) ~default:0.0 })
      names
  in
  print_endline (Measure.result_line tally metrics);
  exit (if tally.Measure.failed = 0 then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "serve-worker"; "--out"; out; "--cache-dir"; cache_dir ] -> Fleet.worker_main ~out ~cache_dir
  | [ "derive-window" ] -> Designs.derive_window ()
  | args ->
    let rec parse acc = function
      | [] -> acc
      | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((flag, value) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get flag = match List.assoc_opt flag opts with Some v -> v | None -> usage () in
    let int flag = match int_of_string_opt (get flag) with Some n -> n | None -> usage () in
    run ~workload:(get "--workload") ~seed:(int "--seed")
      ~seconds:(float_of_int (int "--seconds"))
      ~traced:(int "--trace" = 1)
