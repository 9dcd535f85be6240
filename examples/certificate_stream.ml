(* The live optimality certificate: after every arrival, weak duality
   makes g(lambda-so-far) a lower bound on the optimal cost of the prefix
   instance — no future knowledge needed.  A data center operator can
   watch PD's certified regret bound evolve in real time.  The bound is
   read off the decisions PD has returned, so PD runs here with ~gc:true,
   the bounded-memory configuration the online engines use.

   Run with:  dune exec examples/certificate_stream.exe *)

open Speedscale_model
open Speedscale_util

let () =
  let power = Power.make 2.5 in
  let machines = 4 in
  let inst =
    Speedscale_workload.Generate.diurnal ~power ~machines ~seed:42 ~n:40 ()
  in
  Printf.printf
    "=== Live certificate stream: diurnal load, %d jobs, m = %d, alpha = %g ===\n\n"
    (Instance.n_jobs inst) machines (Power.alpha power);
  let pd = Speedscale_core.Pd.create ~gc:true ~power ~machines () in
  let decisions = ref [] in
  let tab =
    Tab.create ~title:"certified regret bound after each arrival"
      ~header:
        [ "arrival"; "t"; "decision"; "cost so far"; "g(lambda)";
          "certified ratio"; "guarantee" ]
  in
  let bound = Power.competitive_bound power in
  Array.iteri
    (fun i (j : Job.t) ->
      let d = Speedscale_core.Pd.arrive pd j in
      decisions := d :: !decisions;
      if i mod 4 = 3 || i = Instance.n_jobs inst - 1 then begin
        (* cost of the current partial schedule + values lost so far *)
        let sched = Speedscale_core.Pd.schedule pd in
        let energy = Schedule.energy power sched in
        let lost =
          Ksum.sum_by
            (fun id -> (Instance.job inst id).value)
            sched.rejected
        in
        let g = Speedscale_core.Pd.certificate ~power ~machines !decisions in
        Tab.add_row tab
          [
            string_of_int (i + 1);
            Printf.sprintf "%.2f" j.release;
            (if d.accepted then "accept" else "reject");
            Tab.cell_f (energy +. lost);
            Tab.cell_f g;
            Tab.cell_f ((energy +. lost) /. g);
            Tab.cell_f bound;
          ]
      end)
    inst.jobs;
  Tab.print tab;
  Printf.printf
    "Every row's ratio is a machine-checked upper bound on how far the\n\
     prefix schedule is from the prefix optimum; Theorem 3 caps it at %g.\n"
    bound
