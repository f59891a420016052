(* The traced K search: the linear Figure-3 loop that [Flow.run] runs,
   rebuilt from the same public calls with a timer around each one. The
   library's own span ring stays off; every number here is taken from
   outside, around a call into one layer. *)

module Flow = Cals_core.Flow
module Incremental = Cals_core.Incremental
module Mapper = Cals_core.Mapper
module Placement = Cals_place.Placement
module Floorplan = Cals_place.Floorplan
module Estimate = Cals_estimate.Estimate
module Router = Cals_route.Router
module Congestion = Cals_route.Congestion
module Mapped = Cals_netlist.Mapped

let library = Designs.library
let wire = Designs.wire

(* Busy seconds ([<site>_s]), call counts ([<site>_calls]) and plain
   counters, summed over one round of traced searches. *)
type acc = (string, float) Hashtbl.t

let acc () : acc = Hashtbl.create 32
let get (a : acc) name = Option.value (Hashtbl.find_opt a name) ~default:0.0
let add (a : acc) name v = Hashtbl.replace a name (get a name +. v)

let timed a name f =
  let r, dt = Measure.stopwatch f in
  add a (name ^ "_s") dt;
  add a (name ^ "_calls") 1.0;
  r

(* The call sites of the K search itself: their busy time plus
   [layers.unattributed_s] is the search's wall time. *)
let search_sites =
  [ "place.companion"; "core.session"; "core.cover"; "place.legalize";
    "estimate.forecast"; "route.route" ]

type search = {
  iterations : Flow.iteration list;
  accepted : (Flow.iteration * Mapped.t * Placement.mapped_placement * Router.result) option;
  total_s : float;  (** Wall time of the whole search. *)
}

let overflow_report =
  {
    Congestion.violations = max_int;
    total_overflow = infinity;
    max_utilization = infinity;
    congested_gcell_fraction = 1.0;
    wirelength_um = infinity;
  }

(* [Flow.run] with its defaults (incremental mapping and routing
   sessions, [Prune] forecasts, no checks, T=0). *)
let search l ~subject ~floorplan ~rng ~schedule =
  let t0 = Measure.now () in
  let positions =
    timed l "place.companion" (fun () ->
        Placement.place_subject subject ~floorplan ~rng)
  in
  let session =
    timed l "core.session" (fun () ->
        Incremental.create ~subject ~library ~positions ())
  in
  let route_session = Incremental.route_session session in
  let point ~k ~cells ~cell_area ~utilization ~hpwl_um ~report ~estimated
      ~verdict =
    { Flow.k; cells; cell_area; utilization; hpwl_um; report; estimated; verdict }
  in
  let rec loop acc = function
    | [] -> (List.rev acc, None)
    | k :: rest -> (
      let result = timed l "core.cover" (fun () -> Incremental.map session ~k) in
      let mapped = result.Mapper.mapped in
      let cells = Mapped.num_cells mapped in
      let cell_area = Mapped.total_area mapped in
      let utilization = Floorplan.utilization floorplan ~cell_area in
      match
        timed l "place.legalize" (fun () ->
            match Placement.place_mapped_seeded mapped ~floorplan with
            | p -> Some p
            | exception Cals_place.Legalize.Overflow _ -> None)
      with
      | None ->
        add l "place.overflows" 1.0;
        let it =
          point ~k ~cells ~cell_area ~utilization ~hpwl_um:infinity
            ~report:overflow_report ~estimated:false ~verdict:None
        in
        loop (it :: acc) rest
      | Some placement ->
        let f =
          timed l "estimate.forecast" (fun () ->
              Estimate.forecast_mapped mapped ~floorplan ~wire ~placement)
        in
        let verdict = Some f.Estimate.verdict in
        if f.Estimate.verdict = Estimate.Uncertain then add l "estimate.uncertain" 1.0;
        if f.Estimate.verdict = Estimate.Unroutable then begin
          add l "estimate.pruned" 1.0;
          let report = Estimate.report f in
          let report =
            if report.Congestion.violations = 0 then
              { report with Congestion.violations = 1 }
            else report
          in
          let it =
            point ~k ~cells ~cell_area ~utilization
              ~hpwl_um:placement.Placement.hpwl ~report ~estimated:true ~verdict
          in
          loop (it :: acc) rest
        end
        else
          let routing =
            timed l "route.route" (fun () ->
                Router.route_mapped ~session:route_session mapped ~floorplan
                  ~wire ~placement)
          in
          let report = Congestion.of_result routing in
          let it =
            point ~k ~cells ~cell_area ~utilization
              ~hpwl_um:placement.Placement.hpwl ~report ~estimated:false ~verdict
          in
          if Congestion.acceptable report then
            (List.rev (it :: acc), Some (it, mapped, placement, routing))
          else loop (it :: acc) rest)
  in
  let iterations, accepted = loop [] schedule in
  let total_s = Measure.now () -. t0 in
  add l "search_s" total_s;
  let m = Incremental.stats session in
  add l "core.match_hits" (float_of_int m.Incremental.hits);
  add l "core.match_misses" (float_of_int m.Incremental.misses);
  let r = Router.Session.stats route_session in
  add l "route.session_calls" (float_of_int r.Router.Session.route_calls);
  add l "route.replays" (float_of_int r.Router.Session.replays);
  add l "route.nets_rerouted" (float_of_int r.Router.Session.nets_rerouted);
  { iterations; accepted; total_s }

(* The per-K reports the check compares against [Flow.run]'s. *)
let same_iterations (a : Flow.iteration list) (b : Flow.iteration list) =
  List.length a = List.length b && List.for_all2 ( = ) a b

(* ---------------- per-layer metrics from rounds of searches ---------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Medians over rounds; every value is a sum over one round's searches. *)
let layer_metrics ~workload (rounds : acc list) =
  let med f = Measure.median (List.map f rounds) in
  let sites a = List.fold_left (fun s site -> s +. get a (site ^ "_s")) 0.0 search_sites in
  let m key = med (fun a -> get a key) in
  let per_call a site = ratio (get a (site ^ "_s")) (get a (site ^ "_calls")) in
  let metrics =
    [
      ("place.companion_s", m "place.companion_s");
      ("place.legalize_s", m "place.legalize_s");
      ("place.legalize_calls", m "place.legalize_calls");
      ("place.overflows", m "place.overflows");
      ("core.session_s", m "core.session_s");
      ("core.cover_s", m "core.cover_s");
      ("core.cover_calls", m "core.cover_calls");
      ( "core.match_hit_rate",
        med (fun a ->
            ratio (get a "core.match_hits")
              (get a "core.match_hits" +. get a "core.match_misses")) );
      ("estimate.forecast_s", m "estimate.forecast_s");
      ("estimate.forecast_calls", m "estimate.forecast_calls");
      ( "estimate.pruned_share",
        med (fun a -> ratio (get a "estimate.pruned") (get a "estimate.forecast_calls")) );
      ( "estimate.uncertain_share",
        med (fun a -> ratio (get a "estimate.uncertain") (get a "estimate.forecast_calls")) );
      ( "estimate.forecast_route_ratio",
        med (fun a -> ratio (per_call a "estimate.forecast") (per_call a "route.route")) );
      ("route.route_s", m "route.route_s");
      ("route.calls", m "route.route_calls");
      ( "route.replay_share",
        med (fun a -> ratio (get a "route.replays") (get a "route.session_calls")) );
      ("route.nets_rerouted", m "route.nets_rerouted");
      ("route.share", med (fun a -> ratio (get a "route.route_s") (get a "search_s")));
      ("layers.search_s", m "search_s");
      (* Within each round the search minus its timed calls, never
         negative; the medians of the parts need not add up exactly, so the
         run prints that residual beside it. *)
      ("layers.unattributed_s", med (fun a -> get a "search_s" -. sites a));
    ]
  in
  let sum_of_medians = List.fold_left (fun s site -> s +. m (site ^ "_s")) 0.0 search_sites in
  Printf.printf
    "perfbench: %s traced search %.4f s = timed calls %.4f s (sum of medians) + %.4f s; \
     unattributed per round %.4f s\n"
    workload (m "search_s") sum_of_medians
    (m "search_s" -. sum_of_medians)
    (List.assoc "layers.unattributed_s" metrics);
  metrics
