type t = {
  pos : int;
  neg : int;
}

let max_vars = 60
let universe = { pos = 0; neg = 0 }

let check_var v =
  if v < 0 || v >= max_vars then invalid_arg "Cube: variable out of range"

let lit v phase =
  check_var v;
  if phase then { pos = 1 lsl v; neg = 0 } else { pos = 0; neg = 1 lsl v }

let of_literals lits =
  List.fold_left
    (fun c (v, phase) ->
      check_var v;
      let bit = 1 lsl v in
      if (c.pos lor c.neg) land bit <> 0 then
        invalid_arg "Cube.of_literals: duplicate or contradictory literal";
      if phase then { c with pos = c.pos lor bit } else { c with neg = c.neg lor bit })
    universe lits

let of_literals_merged lits =
  let rec go c = function
    | [] -> Some c
    | (v, phase) :: rest ->
      check_var v;
      let bit = 1 lsl v in
      if (if phase then c.neg else c.pos) land bit <> 0 then None
      else
        go
          (if phase then { c with pos = c.pos lor bit }
           else { c with neg = c.neg lor bit })
          rest
  in
  go universe lits

let literals c =
  let rec collect v acc =
    if v < 0 then acc
    else
      let bit = 1 lsl v in
      let acc =
        if c.pos land bit <> 0 then (v, true) :: acc
        else if c.neg land bit <> 0 then (v, false) :: acc
        else acc
      in
      collect (v - 1) acc
  in
  collect (max_vars - 1) []

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

let num_literals c = popcount c.pos + popcount c.neg
let support c = c.pos lor c.neg
let has_var c v = support c land (1 lsl v) <> 0
let is_universe c = c.pos = 0 && c.neg = 0

let inter a b =
  let pos = a.pos lor b.pos and neg = a.neg lor b.neg in
  if pos land neg <> 0 then None else Some { pos; neg }

let covers c d = c.pos land lnot d.pos = 0 && c.neg land lnot d.neg = 0

let divide c d =
  if covers d c then Some { pos = c.pos land lnot d.pos; neg = c.neg land lnot d.neg }
  else None

let remove_var c v =
  let bit = lnot (1 lsl v) in
  { pos = c.pos land bit; neg = c.neg land bit }

let common a b = { pos = a.pos land b.pos; neg = a.neg land b.neg }

let eval c inputs =
  let ok = ref true in
  List.iter (fun (v, phase) -> if inputs.(v) <> phase then ok := false) (literals c);
  !ok

let eval64 c inputs =
  List.fold_left
    (fun acc (v, phase) ->
      let bits = if phase then inputs.(v) else Int64.lognot inputs.(v) in
      Int64.logand acc bits)
    Int64.minus_one (literals c)

let compare a b =
  match Int.compare a.pos b.pos with 0 -> Int.compare a.neg b.neg | c -> c

let equal a b = a.pos = b.pos && a.neg = b.neg

let hash c =
  let h = (c.pos * 0x2545F4914F6CDD1D) + c.neg in
  (h lxor (h lsr 29)) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let to_string ?names c =
  if is_universe c then "<1>"
  else
    literals c
    |> List.map (fun (v, phase) ->
           let base =
             match names with
             | Some arr when v < Array.length arr -> arr.(v)
             | Some _ | None -> Printf.sprintf "x%d" v
           in
           if phase then base else base ^ "'")
    |> String.concat " "
