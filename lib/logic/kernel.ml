type t = {
  cokernel : Cube.t;
  kernel : Sop.t;
}

module Seen = Hashtbl.Make (struct
  type t = Sop.t

  let equal = Sop.equal

  let hash s =
    List.fold_left (fun h c -> ((h * 31) + Cube.hash c) land max_int) 0 (Sop.cubes s)
end)

(* How many cubes of [g] carry each literal: one pass over the set bits
   of every cube's masks. *)
let literal_counts g =
  let pos = Array.make Cube.max_vars 0 and neg = Array.make Cube.max_vars 0 in
  let rec tally counts mask v =
    if mask <> 0 then begin
      if mask land 1 <> 0 then counts.(v) <- counts.(v) + 1;
      tally counts (mask lsr 1) (v + 1)
    end
  in
  List.iter
    (fun (c : Cube.t) ->
      tally pos c.pos 0;
      tally neg c.neg 0)
    (Sop.cubes g);
  (pos, neg)

(* Classic recursive kernel enumeration (Brayton & McMullen).  [j] is the
   smallest variable allowed as the next co-kernel literal, preventing the
   same kernel from being produced along several literal orders. *)
let all f =
  let results = ref [] in
  let seen = Seen.create 64 in
  let add cokernel kernel =
    if not (Seen.mem seen kernel) then begin
      Seen.add seen kernel ();
      results := { cokernel; kernel } :: !results
    end
  in
  let rec kernels j g cokernel =
    if Sop.num_cubes g >= 2 && Sop.is_cube_free g then add cokernel g;
    let pos, neg = literal_counts g in
    (* [g] is SCC, so [g / c] has exactly one cube per cube of [g]
       carrying [c] (see {!Sop.divide_by_cube}): the literal count alone
       decides whether the quotient has the two cubes a kernel needs. *)
    let try_literal v phase count =
      if count >= 2 then begin
        let c = Cube.lit v phase in
        let q, _ = Sop.divide_by_cube g c in
        let lcc = Sop.largest_common_cube q in
        (* Skip when the largest common cube reuses an already-tried
           variable: that kernel was found earlier. *)
        if Cube.support lcc land ((1 lsl v) - 1) = 0 then begin
          let qfree =
            if Cube.is_universe lcc then q else fst (Sop.divide_by_cube q lcc)
          in
          match Cube.inter cokernel c with
          | Some base -> (
            match Cube.inter base lcc with
            | Some co -> kernels (v + 1) qfree co
            | None -> ())
          | None -> ()
        end
      end
    in
    for v = j to Cube.max_vars - 1 do
      try_literal v true pos.(v);
      try_literal v false neg.(v)
    done
  in
  if Sop.num_cubes f >= 2 then kernels 0 (Sop.make_cube_free f) Cube.universe;
  List.rev !results

let literal_savings uses k =
  let kernel_lits = Sop.num_literals k.kernel in
  let kernel_cubes = Sop.num_cubes k.kernel in
  let occurrences =
    List.fold_left
      (fun acc f ->
        let q, _ = Sop.divide f k.kernel in
        acc + Sop.num_cubes q)
      0 uses
  in
  if occurrences = 0 then 0
  else
    (* Each occurrence replaces [kernel_cubes] cubes worth of literals by a
       single literal on the new node; the node body costs [kernel_lits]. *)
    (occurrences * (kernel_lits - 1)) - kernel_lits - kernel_cubes
