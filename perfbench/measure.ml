(* Clocks, order statistics, process facts and the tally of checked
   operations — everything the workloads share. *)

let now = Unix.gettimeofday

(* One timed sample of fixed work. [Gc.compact] runs first, so every
   sample starts from a collected heap instead of paying for the garbage
   of the one before it. *)
let time f =
  Gc.compact ();
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Time [f] without the compaction, for the traced per-layer timers
   that wrap many small calls. *)
let stopwatch f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* The highest percentile that still has [beyond] samples above it, and
   the sample at it: with [n] sorted samples that is the one at index
   [n - beyond - 1]. [None] when there are too few samples. *)
let tail ?(beyond = 10) xs =
  let n = List.length xs in
  if n <= beyond then None
  else
    let a = Array.of_list (sorted xs) in
    let i = n - beyond - 1 in
    Some (100.0 *. float_of_int (i + 1) /. float_of_int n, a.(i))

(* ---------------- the host reference ---------------- *)

(* A fixed pure-CPU loop (integer mixing, no allocation). Its time moves
   only with the host, so a reader can tell a slow host phase from a
   regression of the program. *)
let host_loop () =
  let x = ref 0x9e3779b9 in
  for i = 1 to 40_000_000 do
    x := (!x lxor (!x lsr 7) lxor i) * 31 land 0xffffffff
  done;
  !x

let host_samples = ref []

(* Time the loop once; the run reports the median of all samples. *)
let sample_host () =
  let _, dt = time (fun () -> ignore (Sys.opaque_identity (host_loop ()))) in
  host_samples := dt :: !host_samples

(* Call [f 0], [f 1], ... and collect the results, for at least
   [min_rounds] rounds and then while another round of the mean length
   still fits in [seconds]. The host reference is sampled at the start
   of every round. *)
let rounds ~seconds ~min_rounds f =
  let t0 = now () in
  let rec go i acc =
    let elapsed = now () -. t0 in
    if i >= min_rounds && elapsed +. (elapsed /. float_of_int i) > seconds then List.rev acc
    else begin
      sample_host ();
      go (i + 1) (f i :: acc)
    end
  in
  go 0 []

(* [l] rotated left by [r]: round [r] starts with a different sample. *)
let rotate r l =
  let n = List.length l in
  if n = 0 then l
  else
    let r = r mod n in
    List.filteri (fun i _ -> i >= r) l @ List.filteri (fun i _ -> i < r) l

let share num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ---------------- memory ---------------- *)

(* Peak resident set of the calling process, in MB ([VmHWM] of Linux's
   /proc/self/status; 0 where that file does not exist). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %f kB" (fun kb -> kb /. 1024.0)
        else scan ()
    in
    let mb = scan () in
    close_in ic;
    mb

(* ---------------- operations and checks ---------------- *)

(* Every timed call and every output check is one operation; a check
   that does not hold, or a call that raised, is a failed one. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.printf "CHECK FAILED: %s\n%!" what
  end

(* Run one operation; an exception counts as a failure and yields
   [None] so the run can still report what it measured. *)
let attempt t what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | r -> Some r
  | exception e ->
    t.failed <- t.failed + 1;
    let msg = Printf.sprintf "%s raised %s" what (Printexc.to_string e) in
    Printf.printf "FAILED: %s\n%!" msg;
    None

(* ---------------- the result line ---------------- *)

type metric = { name : string; value : float; unit_ : string }

let json_number v =
  if not (Float.is_finite v) then "0.0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line t metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) (max 1 t.attempted) t.failed body
