open Speedscale_model

type t = { levels : float array }  (* sorted increasing, distinct, > 0 *)

let make speeds =
  let sorted = List.sort_uniq Float.compare speeds in
  if sorted = [] then invalid_arg "Levels.make: empty level set";
  List.iter
    (fun s ->
      if not (Float.is_finite s) || s <= 0.0 then
        invalid_arg "Levels.make: levels must be finite > 0")
    sorted;
  { levels = Array.of_list sorted }

let geometric ~base ~ratio ~count =
  if base <= 0.0 || ratio <= 1.0 || count < 1 then
    invalid_arg "Levels.geometric: need base > 0, ratio > 1, count >= 1";
  make (List.init count (fun i -> base *. (ratio ** float_of_int i)))

let max_level t = t.levels.(Array.length t.levels - 1)
let covering t s = s <= max_level t +. Speedscale_util.Feq.tol_guard
let speeds t = Array.to_list t.levels

(* Adjacent levels around s: (lo, hi) with lo <= s <= hi where possible.
   Below the grid: (None, lowest).  Exactly on a level: that level twice. *)
let bracket t s =
  let n = Array.length t.levels in
  if s < t.levels.(0) then (None, t.levels.(0))
  else begin
    (* largest level <= s *)
    let rec go lo hi =
      if lo = hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if t.levels.(mid) <= s then go mid hi else go lo (mid - 1)
    in
    let i = go 0 (n - 1) in
    if Float.equal t.levels.(i) s || i = n - 1 then (Some t.levels.(i), t.levels.(i))
    else (Some t.levels.(i), t.levels.(i + 1))
  end

let round_slice t (sl : Schedule.slice) =
  if not (covering t sl.speed) then
    invalid_arg
      (Fmt.str "Levels.round_slice: speed %g above highest level %g"
         sl.speed (max_level t));
  let duration = sl.t1 -. sl.t0 in
  match bracket t sl.speed with
  | Some lo, hi when lo = hi || Float.abs (sl.speed -. lo) <= Speedscale_util.Feq.tol_guard *. lo ->
    [ { sl with speed = lo } ]
  | None, lowest ->
    (* run at the lowest level just long enough, idle afterwards *)
    let busy = duration *. sl.speed /. lowest in
    [ { sl with t1 = sl.t0 +. busy; speed = lowest } ]
  | Some lo, hi ->
    let phi = (sl.speed -. lo) /. (hi -. lo) in
    let t_mid = sl.t0 +. (phi *. duration) in
    let fast = { sl with t1 = t_mid; speed = hi } in
    let slow = { sl with t0 = t_mid; speed = lo } in
    List.filter (fun (s : Schedule.slice) -> s.t1 -. s.t0 > Speedscale_util.Feq.tol_dust) [ fast; slow ]

let round_schedule t (s : Schedule.t) =
  Schedule.make ~machines:s.machines ~rejected:s.rejected
    (List.concat_map (round_slice t) (Schedule.slices s))

let energy_overhead power t s =
  let base = Schedule.energy power s in
  if base <= 0.0 then
    invalid_arg "Levels.energy_overhead: schedule has zero energy";
  Schedule.energy power (round_schedule t s) /. base
