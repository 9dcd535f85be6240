type t = {
  id : int;
  release : float;
  deadline : float;
  workload : float;
  value : float;
}

let invalid id fmt =
  Fmt.kstr (fun m -> invalid_arg (Fmt.str "Job.make(id=%d): %s" id m)) fmt

let make ~id ~release ~deadline ~workload ~value =
  if not (Float.is_finite release) || release < 0.0 then
    invalid id "release must be finite and >= 0, got %g" release;
  if not (Float.is_finite deadline) || deadline <= release then
    invalid id
      "deadline must be finite and exceed the release (deadline %g, release \
       %g)"
      deadline release;
  if not (Float.is_finite workload) || workload <= 0.0 then
    invalid id "workload must be positive and finite, got %g" workload;
  if Float.is_nan value || value < 0.0 then
    invalid id "value must be >= 0, got %g" value;
  { id; release; deadline; workload; value }

let span j = j.deadline -. j.release
let density j = j.workload /. span j
let value_density j = j.value /. j.workload
let available_at j t = j.release <= t && t < j.deadline
let covers j ~lo ~hi = j.release <= lo && hi <= j.deadline

let compare_release a b =
  match Float.compare a.release b.release with
  | 0 -> Int.compare a.id b.id
  | c -> c

let pp ppf j =
  Format.fprintf ppf "job%d[r=%g d=%g w=%g v=%g]" j.id j.release j.deadline
    j.workload j.value
