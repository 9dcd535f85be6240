type t = { mutable sum : float; mutable comp : float }

let create () = { sum = 0.0; comp = 0.0 }

(* Neumaier's variant: also correct when the addend dominates the sum.
   [Pd_core]'s [assigned_at_speed] repeats these steps inline, in this
   order, because a call here from its per-probe loop would box the
   float argument; a change to this rule must be made there too. *)
let add acc x =
  let t = acc.sum +. x in
  if Float.abs acc.sum >= Float.abs x then
    acc.comp <- acc.comp +. (acc.sum -. t +. x)
  else acc.comp <- acc.comp +. (x -. t +. acc.sum);
  acc.sum <- t

let total acc = acc.sum +. acc.comp

let sum xs =
  let acc = create () in
  List.iter (add acc) xs;
  total acc

let sum_array xs =
  let acc = create () in
  Array.iter (add acc) xs;
  total acc

let sum_by f xs =
  let acc = create () in
  List.iter (fun x -> add acc (f x)) xs;
  total acc
