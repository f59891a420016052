(* The benchmark's circuits: the two flow fixtures (window, saturated),
   the front end that turns them into subject graphs, and the helper that
   derives the window floorplans. *)

module Subject = Cals_netlist.Subject
module Floorplan = Cals_place.Floorplan
module Flow = Cals_core.Flow
module Presets = Cals_workload.Presets

let library = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry library
let wire = Cals_cell.Library.wire library

(* The workload seed of the fixtures: the designs are generated with it
   and the companion placement draws from [fixture_seed + 1], exactly as
   [cals flow --seed 1] does. *)
let fixture_seed = 1

let scale = 0.25

type design = {
  name : string;  (** ["pdc"], ["spla"] or ["too_large"]. *)
  utilization : float;
}

let generate name ~seed =
  match name with
  | "pdc" -> Presets.pdc_like ~scale ~seed ()
  | "spla" -> Presets.spla_like ~scale ~seed ()
  | "too_large" -> Presets.too_large_like ~scale ~seed ()
  | other -> invalid_arg ("unknown preset " ^ other)

(* The same floorplan rule as [cals flow --utilization u]. *)
let floorplan_of subject utilization =
  Floorplan.for_area
    ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
    ~utilization ~aspect:1.0 ~geometry

let rng_of ~seed = Cals_util.Rng.create (seed + 1)

(* ---------------- the window floorplans ---------------- *)

(* ROADMAP 4(a): raise the utilization from the bottom of a fixed
   bracket in fixed steps and stop at the first one whose K=0 netlist
   fails to route. The response is not monotonic (spla accepts nothing
   at u=0.45 but K=5e-4 at u=0.455), so the rule counts up from below
   rather than bisecting. *)
let bracket_lo = 0.40
let bracket_hi = 0.60
let bracket_step = 0.005

(* Stored output of [derive_window] (run with [main.exe derive-window]),
   so parent and change always run on the same floorplans. A new
   [fixture_seed] re-runs the helper once, at the parent commit, and
   replaces these constants. *)
let window = [ { name = "pdc"; utilization = 0.465 }; { name = "spla"; utilization = 0.445 } ]

(* Past the edge of routability: the estimator rules out every point. *)
let saturated =
  [ { name = "spla"; utilization = 0.55 }; { name = "too_large"; utilization = 0.55 } ]

let k0_routes ~subject ~seed u =
  let outcome =
    Flow.run ~k_schedule:[ 0.0 ] ~subject ~library
      ~floorplan:(floorplan_of subject u) ~rng:(rng_of ~seed) ()
  in
  outcome.Flow.accepted <> None

(* The Table-2 region a design lands in, from its outcome: (i) K=0
   accepts, (ii) a later K accepts, (iii) nothing accepts. *)
let region (outcome : Flow.outcome) =
  match outcome.Flow.accepted with
  | Some it when it.Flow.k = 0.0 -> "i"
  | Some _ -> "ii"
  | None -> "iii"

let prepare name ~seed =
  let network = generate name ~seed in
  Cals_logic.Optimize.script_light network;
  Cals_logic.Decompose.subject_of_network network

(* Print the window floorplan of every window design for [fixture_seed]. *)
let derive_window () =
  let seed = fixture_seed in
  List.iter
    (fun name ->
      let subject = prepare name ~seed in
      let steps = int_of_float (Float.round ((bracket_hi -. bracket_lo) /. bracket_step)) in
      let rec scan i =
        if i > steps then None
        else
          let u = bracket_lo +. (float_of_int i *. bracket_step) in
          if k0_routes ~subject ~seed u then scan (i + 1) else Some u
      in
      match scan 0 with
      | None ->
        Printf.printf "%s seed=%d: K=0 routes over the whole bracket [%g, %g]\n%!"
          name seed bracket_lo bracket_hi
      | Some u ->
        let outcome =
          Flow.run ~subject ~library ~floorplan:(floorplan_of subject u)
            ~rng:(rng_of ~seed) ()
        in
        Printf.printf "%s seed=%d: { name = %S; utilization = %.3f }  region %s%s\n%!"
          name seed name u (region outcome)
          (match outcome.Flow.accepted with
          | Some it -> Printf.sprintf ", accepts K=%g" it.Flow.k
          | None -> ""))
    [ "pdc"; "spla" ]
