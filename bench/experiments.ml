(* The experiment suite: one function per table/figure of DESIGN.md's
   per-experiment index.  The paper is a theory paper, so each experiment
   verifies a stated theorem, lemma or structural claim numerically, or
   reproduces one of the paper's illustrative figures as a printed
   artifact.  EXPERIMENTS.md records the expected vs. measured shapes. *)

open Speedscale_util
open Speedscale_model
open Speedscale_chen
open Speedscale_single
open Speedscale_multi
open Speedscale_metrics
open Harness

(* ================================================================== *)
(* E1 — Theorem 3 upper bound: cost(PD) <= alpha^alpha * g(lambda)     *)
(* ================================================================== *)

let e1 () =
  section "E1" "Theorem 3 upper bound: cost(PD) <= alpha^alpha * g(lambda)";
  let tab =
    Tab.create ~title:"certified competitive ratio cost(PD) / g(lambda)"
      ~header:
        [ "alpha"; "m"; "seeds"; "mean"; "p90"; "max"; "alpha^alpha"; "violations" ]
  in
  let all_ok = ref true in
  let worst = ref 0.0 and total_violations = ref 0 in
  List.iter
    (fun alpha ->
      List.iter
        (fun machines ->
          let samples =
            List.init 8 (fun seed ->
                let inst =
                  random_instance ~alpha ~machines ~seed:(seed + 1) ~n:24
                in
                let r = Speedscale_core.Pd.run inst in
                Ratio.make ~cost:(Cost.total r.cost) ~lower_bound:r.dual_bound)
          in
          (* slint: allow unsafe-pow -- alpha ranges over positive literals *)
          let guarantee = alpha ** alpha in
          let a = Ratio.aggregate ~guarantee samples in
          if a.max_ratio /. guarantee > !worst then
            worst := a.max_ratio /. guarantee;
          total_violations := !total_violations + a.violations;
          if a.violations > 0 then all_ok := false;
          Tab.add_row tab
            [
              Printf.sprintf "%.2g" alpha;
              string_of_int machines;
              string_of_int a.count;
              Tab.cell_f a.mean_ratio;
              Tab.cell_f a.p90_ratio;
              Tab.cell_f a.max_ratio;
              Tab.cell_f guarantee;
              string_of_int a.violations;
            ])
        [ 1; 2; 4; 8 ])
    [ 1.5; 2.0; 2.5; 3.0 ];
  Tab.print tab;
  metric "worst_certified_ratio_vs_guarantee" !worst;
  counter "violations" !total_violations;
  verdict ~expected:"all certified ratios strictly below alpha^alpha, 0 violations"
    !all_ok

(* ================================================================== *)
(* E2 — Theorem 3 tightness: the adversarial family drives the ratio   *)
(*      towards alpha^alpha                                            *)
(* ================================================================== *)

let e2 () =
  section "E2"
    "Theorem 3 tightness: PD/OPT on the Bansal-Kimbrel-Pruhs family";
  let tab =
    Tab.create ~title:"ratio cost(PD) / cost(YDS) as n grows"
      ~header:[ "alpha"; "n"; "PD"; "OPT(YDS)"; "ratio"; "alpha^alpha" ]
  in
  let monotone = ref true and bounded = ref true in
  List.iter
    (fun alpha ->
      let last = ref 0.0 in
      List.iter
        (fun n ->
          let inst = Speedscale_workload.Generate.bkp_lower_bound ~alpha ~n () in
          let pd = Speedscale_core.Pd.run inst in
          let opt = Yds.energy inst.power (Array.to_list inst.jobs) in
          let ratio = Cost.total pd.cost /. opt in
          if ratio < !last -. 1e-9 then monotone := false;
          (* slint: allow unsafe-pow -- alpha ranges over positive literals *)
          if ratio > (alpha ** alpha) +. 1e-6 then bounded := false;
          last := ratio;
          Tab.add_row tab
            [
              Printf.sprintf "%g" alpha;
              string_of_int n;
              Tab.cell_f (Cost.total pd.cost);
              Tab.cell_f opt;
              Tab.cell_f ratio;
              (* slint: allow unsafe-pow -- alpha ranges over positive literals *)
              Tab.cell_f (alpha ** alpha);
            ])
        [ 5; 10; 20; 40; 80; 160; 320 ];
      metric (Printf.sprintf "final_ratio_alpha%g" alpha) !last)
    [ 2.0; 3.0 ];
  Tab.print tab;
  verdict
    ~expected:"ratio increases monotonically towards alpha^alpha, never above"
    (!monotone && !bounded)

(* ================================================================== *)
(* E3 — rejection-policy equivalence with Chan-Lam-Li                  *)
(* ================================================================== *)

let e3 () =
  section "E3" "PD's rejection policy equals the CLL threshold (Section 3)";
  (* part 1: the closed-form thresholds agree across alpha *)
  let tab =
    Tab.create ~title:"threshold speeds, PD (delta = alpha^(1-alpha)) vs CLL"
      ~header:[ "alpha"; "w"; "v"; "PD threshold"; "CLL threshold"; "delta" ]
  in
  let thresholds_agree = ref true in
  List.iter
    (fun alpha ->
      let power = Power.make alpha in
      List.iter
        (fun (w, v) ->
          let j = Job.make ~id:0 ~release:0.0 ~deadline:1.0 ~workload:w ~value:v in
          let pd_t = Speedscale_core.Rejection.threshold_speed power j in
          let cll_t = Cll.threshold_speed power j in
          if Float.abs (pd_t -. cll_t) > 1e-9 *. (1.0 +. cll_t) then
            thresholds_agree := false;
          Tab.add_row tab
            [
              Printf.sprintf "%g" alpha;
              Printf.sprintf "%g" w;
              Printf.sprintf "%g" v;
              Tab.cell_f pd_t;
              Tab.cell_f cll_t;
              Printf.sprintf "%.4g" (Power.delta_star power);
            ])
        [ (1.0, 1.0); (2.0, 5.0); (0.5, 10.0); (3.0, 0.2) ])
    [ 1.5; 2.0; 3.0 ];
  Tab.print tab;
  (* part 2: accept/reject decisions on fresh-arrival probes (the planned
     speed is unambiguous there) flip at the same critical value *)
  let probes = ref 0 and agreements = ref 0 in
  List.iter
    (fun alpha ->
      let power = Power.make alpha in
      List.iter
        (fun density ->
          List.iter
            (fun value_factor ->
              let w = 2.0 in
              let span = w /. density in
              let critical =
                Power.delta_star power *. w *. Power.deriv power density
              in
              let v = critical *. value_factor in
              let j =
                Job.make ~id:0 ~release:0.0 ~deadline:span ~workload:w ~value:v
              in
              let inst = Instance.make ~power ~machines:1 [ j ] in
              let pd_accepts =
                (Speedscale_core.Pd.run inst).rejected = []
              in
              let cll_accepts = (Cll.schedule inst).rejected = [] in
              incr probes;
              if pd_accepts = cll_accepts then incr agreements)
            [ 0.5; 0.9; 0.999; 1.001; 1.1; 2.0 ])
        [ 0.25; 1.0; 4.0 ])
    [ 1.5; 2.0; 3.0 ];
  note "fresh-arrival probes: %d/%d identical decisions" !agreements !probes;
  verdict ~expected:"identical thresholds and 100% decision agreement"
    (!thresholds_agree && !probes = !agreements)

(* ================================================================== *)
(* E4 — Figure 2: Chen schedule before/after a new job                 *)
(* ================================================================== *)

let e4 () =
  section "E4" "Figure 2: Chen et al.'s schedule before/after an arrival";
  let machines, length, loads, (new_id, new_load) =
    Speedscale_workload.Generate.figure2_loads ()
  in
  let power = Power.make 3.0 in
  let describe label pairs =
    let t = Chen.build ~machines ~length pairs in
    let p = Chen.partition t in
    note "%s:" label;
    List.iteri
      (fun i (id, w) ->
        note "  proc %d: job %d DEDICATED  load %.2f  speed %.2f  %s" i id w
          (w /. length)
          (Tab.bar ~width:24 ~max_value:8.0 (w /. length)))
      p.dedicated;
    if p.pool <> [] then begin
      note "  procs %d..%d: POOL at speed %.2f  %s"
        (List.length p.dedicated) (machines - 1) p.pool_speed
        (Tab.bar ~width:24 ~max_value:8.0 p.pool_speed);
      List.iter (fun (id, w) -> note "    pool job %d: load %.2f" id w) p.pool
    end;
    note "  interval energy P_k = %.3f" (Chen.energy power t);
    (t, p)
  in
  let _, before = describe "(a) before the new job" loads in
  let _, after =
    describe "(b) after the new job" ((new_id, new_load) :: loads)
  in
  note "";
  verdict
    ~expected:
      "the arrival enlarges the pool speed and can flip dedicated/pool roles"
    (after.pool_speed > before.pool_speed)

(* ================================================================== *)
(* E5 — Figure 3: PD schedules more conservatively than OA             *)
(* ================================================================== *)

let e5 () =
  section "E5" "Figure 3: structural difference between PD and OA";
  let power = Power.make 2.0 in
  let inst = Speedscale_workload.Generate.figure3 ~power in
  let pd = Speedscale_core.Pd.run inst in
  let oa =
    Oa.schedule (Instance.with_values inst (fun _ -> Float.infinity))
  in
  let profile name (s : Schedule.t) =
    note "%s:" name;
    List.iter
      (fun (t0, t1, speed) ->
        note "  [%4.2f, %4.2f) speed %.3f  %s" t0 t1 speed
          (Tab.bar ~width:30 ~max_value:2.5 speed))
      (Schedule.speed_profile s ~proc:0)
  in
  profile "PD (never redistributes committed work)" pd.schedule;
  profile "OA (replans everything at each arrival)" oa;
  note "";
  note "PD, as a Gantt chart:";
  print_string (Gantt.render ~width:60 pd.schedule);
  note "OA:";
  print_string (Gantt.render ~width:60 oa);
  let last_speed (s : Schedule.t) =
    Schedule.speed_profile s ~proc:0
    |> List.fold_left (fun acc (_, t1, sp) -> if t1 >= 3.0 -. 1e-9 then sp else acc) 0.0
  in
  let pd_last = last_speed pd.schedule and oa_last = last_speed oa in
  note "";
  note "speed in the last atomic interval [2,3): PD %.3f vs OA %.3f" pd_last
    oa_last;
  verdict
    ~expected:
      "PD leaves more slack in the last interval (lower speed there than OA)"
    (pd_last < oa_last -. 1e-9)

(* ================================================================== *)
(* E6 — the delta parameter: alpha^(1-alpha) is the right choice       *)
(* ================================================================== *)

let e6 () =
  section "E6" "delta sweep: rejection quality across delta/delta*";
  let alpha = 2.0 in
  let tab =
    Tab.create
      ~title:"mean/max cost ratio to the exact optimum over 12 seeds (m=1, n=9)"
      ~header:
        [ "delta/delta*"; "mean ratio"; "max ratio"; "mean rejected"; "bound ok" ]
  in
  let star = Power.delta_star (Power.make alpha) in
  let results =
    List.map
      (fun factor ->
        let delta = star *. factor in
        let ratios, rejected =
          List.split
            (List.init 12 (fun seed ->
                 let inst =
                   random_instance ~alpha ~machines:1 ~seed:(100 + seed) ~n:9
                 in
                 let r = Speedscale_core.Pd.run ~delta inst in
                 let opt = Opt.solve inst in
                 ( Cost.total r.cost /. opt.cost,
                   float_of_int (List.length r.rejected) )))
        in
        let mean = Stats.mean ratios and worst = Stats.max_of ratios in
        let ok = worst <= (alpha ** alpha) +. 1e-6 in
        Tab.add_row tab
          [
            Printf.sprintf "%.2fx" factor;
            Tab.cell_f mean;
            Tab.cell_f worst;
            Tab.cell_f (Stats.mean rejected);
            (if ok then "yes" else "NO");
          ];
        (factor, worst))
      [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
  in
  Tab.print tab;
  (* the guarantee is proven only for delta <= delta*; delta > delta* can
     overshoot while delta = delta* must stay within alpha^alpha *)
  let at_star = List.assoc 1.0 results in
  verdict
    ~expected:
      "worst ratio at delta* within alpha^alpha; larger delta rejects more"
    (at_star <= (alpha ** alpha) +. 1e-6)

(* ================================================================== *)
(* E7 — profitable single processor: PD vs CLL                         *)
(* ================================================================== *)

let e7 () =
  section "E7" "PD vs Chan-Lam-Li against the exact optimum (m=1)";
  let alpha = 2.0 in
  let tab =
    Tab.create ~title:"cost ratios to OPT-exact over 15 seeds (n=9)"
      ~header:[ "algorithm"; "mean"; "p90"; "max"; "proven bound" ]
  in
  let pd_samples = ref [] and cll_samples = ref [] in
  List.iter
    (fun seed ->
      let inst = random_instance ~alpha ~machines:1 ~seed:(200 + seed) ~n:9 in
      let opt = Opt.solve inst in
      let pd = Speedscale_core.Pd.run inst in
      let cll_cost = Cost.total (Cll.cost inst) in
      pd_samples :=
        Ratio.make ~cost:(Cost.total pd.cost) ~lower_bound:opt.cost
        :: !pd_samples;
      cll_samples :=
        Ratio.make ~cost:cll_cost ~lower_bound:opt.cost :: !cll_samples)
    (List.init 15 Fun.id);
  let bound_pd = alpha ** alpha in
  let bound_cll = bound_pd +. (2.0 *. Float.exp 1.0 *. alpha) in
  let row name samples bound =
    let a = Ratio.aggregate ~guarantee:bound samples in
    Tab.add_row tab
      [
        name;
        Tab.cell_f a.mean_ratio;
        Tab.cell_f a.p90_ratio;
        Tab.cell_f a.max_ratio;
        Tab.cell_f bound;
      ];
    a
  in
  let a_pd = row "PD (this paper)" !pd_samples bound_pd in
  let a_cll = row "CLL" !cll_samples bound_cll in
  Tab.print tab;
  verdict
    ~expected:
      "both within their bounds; PD's bound (alpha^alpha) is the smaller one"
    (a_pd.max_ratio <= bound_pd +. 1e-6
    && a_cll.max_ratio <= bound_cll +. 1e-6
    && bound_pd < bound_cll)

(* ================================================================== *)
(* E8 — multiprocessor: PD against the exact optimum across m          *)
(* ================================================================== *)

let e8 () =
  section "E8" "true competitive ratio vs exact OPT across machine counts";
  let alpha = 2.0 in
  let tab =
    Tab.create ~title:"cost(PD)/cost(OPT-exact), 6 seeds each (n=7)"
      ~header:[ "m"; "mean"; "max"; "alpha^alpha"; "violations" ]
  in
  let ok = ref true in
  List.iter
    (fun machines ->
      let samples =
        List.init 6 (fun seed ->
            let inst =
              random_instance ~alpha ~machines ~seed:(300 + seed) ~n:7
            in
            let pd = Speedscale_core.Pd.run inst in
            let opt = Opt.solve inst in
            Ratio.make ~cost:(Cost.total pd.cost) ~lower_bound:opt.cost)
      in
      let a = Ratio.aggregate ~guarantee:(alpha ** alpha) samples in
      (* allow 2% numerical slack from the convex solver inside OPT *)
      if a.max_ratio > (alpha ** alpha) *. 1.02 then ok := false;
      Tab.add_row tab
        [
          string_of_int machines;
          Tab.cell_f a.mean_ratio;
          Tab.cell_f a.max_ratio;
          Tab.cell_f (alpha ** alpha);
          string_of_int a.violations;
        ])
    [ 1; 2; 3 ];
  Tab.print tab;
  verdict ~expected:"all ratios <= alpha^alpha for every machine count" !ok

(* ================================================================== *)
(* E9 — energy-only degeneration: the classical online algorithms      *)
(* ================================================================== *)

let e9 () =
  section "E9" "energy-only setting (infinite values): classical baselines";
  let alpha = 2.0 in
  let tab =
    Tab.create ~title:"energy ratio to YDS over 10 seeds (m=1, n=14)"
      ~header:[ "algorithm"; "mean"; "max"; "known guarantee" ]
  in
  let collect f =
    List.init 10 (fun seed ->
        let inst = random_must_finish ~alpha ~machines:1 ~seed:(400 + seed) ~n:14 in
        let yds = Yds.energy inst.power (Array.to_list inst.jobs) in
        f inst /. yds)
  in
  let pd_r = collect (fun i -> Cost.total (Speedscale_core.Pd.run i).cost) in
  let oa_r = collect Oa.energy in
  let avr_r = collect Avr.energy in
  let bkp_r = collect (fun i -> Bkp.energy ~steps_per_interval:32 i) in
  let qoa_r = collect (fun i -> Qoa.energy ~steps_per_interval:16 i) in
  let row name rs bound =
    Tab.add_row tab
      [ name; Tab.cell_f (Stats.mean rs); Tab.cell_f (Stats.max_of rs); bound ]
  in
  row "PD (huge values)" pd_r "alpha^alpha = 4";
  row "OA" oa_r "alpha^alpha = 4";
  row "qOA" qoa_r "4^a/(2 sqrt(ea)) = 3.43";
  row "AVR" avr_r "2^(a-1) a^a = 8";
  row "BKP" bkp_r "~2(a/(a-1))^a e^a = 59.1";
  Tab.print tab;
  let ok =
    Stats.max_of pd_r <= 4.0 +. 1e-6
    && Stats.max_of oa_r <= 4.0 +. 1e-6
    && Stats.max_of avr_r <= 8.0 +. 1e-6
  in
  verdict
    ~expected:"every algorithm within its known guarantee; YDS never beaten"
    (ok
    && List.for_all (fun r -> r >= 1.0 -. 1e-6) (pd_r @ oa_r @ avr_r @ bkp_r))

(* ================================================================== *)
(* E10 — Propositions 1 and 2, numerically                             *)
(* ================================================================== *)

let e10 () =
  section "E10" "Prop 1 (gradient of P_k) and Prop 2 (arrival monotonicity)";
  let power = Power.make 3.0 in
  let st = Rand.make 77 in
  let max_grad_err = ref 0.0 and prop2_violations = ref 0 in
  let trials = 500 in
  for _ = 1 to trials do
    let m = 1 + Random.State.int st 5 in
    let n = 1 + Random.State.int st 10 in
    let l = Rand.uniform st ~lo:0.2 ~hi:3.0 in
    let loads =
      List.init n (fun i -> (i, Rand.uniform st ~lo:0.05 ~hi:8.0))
    in
    let t = Chen.build ~machines:m ~length:l loads in
    (* gradient vs central difference on a random coordinate *)
    let idx = Random.State.int st n in
    let w = List.assoc idx loads in
    let h = 1e-6 *. (1.0 +. w) in
    let with_load x =
      Chen.build ~machines:m ~length:l
        (List.map (fun (i, v) -> (i, if i = idx then x else v)) loads)
    in
    let lo = with_load (w -. h) and hi = with_load (w +. h) in
    let stable =
      List.length (Chen.partition lo).dedicated
      = List.length (Chen.partition hi).dedicated
    in
    if stable then begin
      let fd = (Chen.energy power hi -. Chen.energy power lo) /. (2.0 *. h) in
      let grad = Power.deriv power (Chen.speed_of_job t idx) in
      let err = Float.abs (fd -. grad) /. (1.0 +. Float.abs grad) in
      if err > !max_grad_err then max_grad_err := err
    end;
    (* Prop 2 *)
    let z = Rand.uniform st ~lo:0.05 ~hi:8.0 in
    let t' = Chen.build ~machines:m ~length:l ((n, z) :: loads) in
    let lb = Chen.processor_loads t and la = Chen.processor_loads t' in
    Array.iteri
      (fun i before ->
        let diff = la.(i) -. before in
        if diff < -1e-9 || diff > z +. 1e-9 then incr prop2_violations)
      lb
  done;
  note "%d randomized trials" trials;
  note "max relative |finite difference - P'(s_j)| : %.2e" !max_grad_err;
  note "Prop 2 violations (0 <= L'_i - L_i <= z)   : %d" !prop2_violations;
  verdict ~expected:"gradient error ~1e-4 or below; zero Prop 2 violations"
    (!max_grad_err < 1e-3 && !prop2_violations = 0)

(* ================================================================== *)
(* E11 — the duality chain                                             *)
(* ================================================================== *)

let e11 () =
  section "E11" "duality chain: g(lambda) <= CP <= IMP(=OPT) <= cost(PD)";
  let alpha = 2.0 in
  let tab =
    Tab.create ~title:"per-seed chain values (m=1, n=6)"
      ~header:[ "seed"; "g(lambda)"; "CP relax"; "OPT exact"; "cost(PD)"; "chain" ]
  in
  let ok = ref true in
  List.iter
    (fun seed ->
      let inst = random_instance ~alpha ~machines:1 ~seed:(500 + seed) ~n:6 in
      let pd = Speedscale_core.Pd.run inst in
      let cp =
        Speedscale_solver.Cp.solve ~max_iters:8000
          (Speedscale_solver.Cp.make inst)
          Speedscale_solver.Cp.Profitable
      in
      let opt = Opt.solve inst in
      let tol = 2e-2 in
      let chain_ok =
        pd.dual_bound <= cp.objective +. (tol *. (1.0 +. cp.objective))
        && cp.objective <= opt.cost +. (tol *. (1.0 +. opt.cost))
        && opt.cost <= Cost.total pd.cost +. (tol *. (1.0 +. Cost.total pd.cost))
      in
      if not chain_ok then ok := false;
      Tab.add_row tab
        [
          string_of_int seed;
          Tab.cell_f pd.dual_bound;
          Tab.cell_f cp.objective;
          Tab.cell_f opt.cost;
          Tab.cell_f (Cost.total pd.cost);
          (if chain_ok then "ok" else "BROKEN");
        ])
    (List.init 8 Fun.id);
  Tab.print tab;
  verdict ~expected:"the chain holds on every seed" !ok

(* ================================================================== *)
(* E13 — anatomy of the proof: Section 4's objects on a real run       *)
(* ================================================================== *)

let e13 () =
  section "E13"
    "anatomy of Theorem 3's proof: traces, categories, Lemmas 9-11";
  let alpha = 2.5 in
  let power = Power.make alpha in
  let inst =
    Speedscale_workload.Generate.datacenter ~power ~machines:4 ~seed:31 ~n:40
  in
  let r = Speedscale_core.Pd.run inst in
  let a = Speedscale_core.Analysis.analyze inst r in
  let tab =
    Tab.create ~title:"job categories and their dual contributions"
      ~header:
        [ "category"; "#jobs"; "sum lambda"; "sum E_lambda"; "sum E_PD(trace)";
          "sum value"; "g_i" ]
  in
  let cat_row name cat g_i =
    let members =
      Array.to_list a.jobs
      |> List.filter (fun ji -> ji.Speedscale_core.Analysis.category = cat)
    in
    let open Speedscale_core.Analysis in
    Tab.add_row tab
      [
        name;
        string_of_int (List.length members);
        Tab.cell_f (Ksum.sum_by (fun ji -> ji.lambda) members);
        Tab.cell_f (Ksum.sum_by (fun ji -> ji.e_lambda) members);
        Tab.cell_f (Ksum.sum_by (fun ji -> ji.e_pd) members);
        Tab.cell_f
          (Ksum.sum_by (fun ji -> (Instance.job inst ji.id).value) members);
        Tab.cell_f g_i;
      ]
  in
  cat_row "J1 finished" Speedscale_core.Analysis.Finished a.g1;
  cat_row "J2 unfinished low-yield" Speedscale_core.Analysis.Low_yield a.g2;
  cat_row "J3 unfinished high-yield" Speedscale_core.Analysis.High_yield a.g3;
  Tab.print tab;
  note "g(lambda) = g1+g2+g3 = %.4f;  cost(PD) = %.4f;  alpha^alpha * g = %.4f"
    a.g_total a.cost_pd
    ((alpha ** alpha) *. a.g_total);
  note "checks: traces disjoint=%b  Prop7=%b  Prop8b=%b  L9=%b  L10=%b  L11=%b  Thm3=%b"
    a.traces_disjoint a.prop7_ok a.prop8b_ok a.lemma9_ok a.lemma10_ok
    a.lemma11_ok a.theorem3_ok;
  (* A crafted instance with a HIGH-YIELD job, so Lemma 11 is exercised
     non-vacuously: a long, low-density accepted job (cheap multiplier)
     plus a rejected job whose value-derived dual speed tops it, making
     the optimal infeasible solution schedule 2-2.5x its workload. *)
  let p2 = Power.make 2.0 in
  let crafted =
    Instance.make ~power:p2 ~machines:1
      [
        Job.make ~id:0 ~release:0.0 ~deadline:10.0 ~workload:4.0 ~value:1e9;
        Job.make ~id:1 ~release:0.0 ~deadline:10.0 ~workload:1.0 ~value:0.44;
      ]
  in
  let rc = Speedscale_core.Pd.run crafted in
  let ac = Speedscale_core.Analysis.analyze crafted rc in
  let j3 =
    Array.to_list ac.jobs
    |> List.filter (fun ji ->
           ji.Speedscale_core.Analysis.category
           = Speedscale_core.Analysis.High_yield)
  in
  note "";
  note "crafted high-yield witness: job 1 rejected with xhat = %.3f (> %.3f)"
    (match j3 with
     | ji :: _ -> ji.Speedscale_core.Analysis.xhat
     | [] -> Float.nan)
    ((2.0 -. (2.0 ** -1.0)) /. 1.0);
  note "Lemma 11 on the witness: g3 = %.4f, checks Thm3=%b L11=%b" ac.g3
    ac.theorem3_ok ac.lemma11_ok;
  verdict
    ~expected:
      "every lemma-level inequality of Section 4 holds, incl. a non-vacuous \
       Lemma 11"
    (a.traces_disjoint && a.prop7_ok && a.prop8b_ok && a.lemma9_ok
   && a.lemma10_ok && a.lemma11_ok && a.theorem3_ok && j3 <> []
   && ac.lemma11_ok && ac.theorem3_ok)

(* ================================================================== *)
(* E14 — structural statistics: how calm are the schedules?            *)
(* ================================================================== *)

let e14 () =
  section "E14" "schedule structure: preemptions, migrations, utilization";
  let alpha = 2.0 in
  let tab =
    Tab.create
      ~title:"structural statistics (datacenter workload, must-finish view)"
      ~header:
        [ "algorithm"; "m"; "slices"; "preempt"; "migrate"; "avg speed";
          "util"; "energy" ]
  in
  let all_valid = ref true in
  let add name machines (inst : Instance.t) sched =
    (match Schedule.validate inst sched with
    | Ok () -> ()
    | Error _ -> all_valid := false);
    let st = Structure.of_schedule sched in
    Tab.add_row tab
      [
        name;
        string_of_int machines;
        string_of_int st.n_slices;
        string_of_int st.preemptions;
        string_of_int st.migrations;
        Tab.cell_f st.avg_speed;
        Tab.cell_f st.utilization;
        Tab.cell_f (Schedule.energy inst.power sched);
      ]
  in
  (* multiprocessor: PD vs mOA *)
  let power = Power.make alpha in
  let inst4 =
    Instance.with_values
      (Speedscale_workload.Generate.datacenter ~power ~machines:4 ~seed:8 ~n:24)
      (fun _ -> Float.infinity)
  in
  add "PD" 4 inst4 (Speedscale_core.Pd.run inst4).schedule;
  add "mOA" 4 inst4 (Moa.schedule inst4);
  (* single processor: the full lineup *)
  let inst1 = random_must_finish ~alpha ~machines:1 ~seed:8 ~n:12 in
  add "PD" 1 inst1 (Speedscale_core.Pd.run inst1).schedule;
  add "OA" 1 inst1 (Oa.schedule inst1);
  add "qOA" 1 inst1 (Qoa.schedule ~steps_per_interval:16 inst1);
  add "AVR" 1 inst1 (Avr.schedule inst1);
  add "BKP" 1 inst1 (Bkp.schedule ~steps_per_interval:32 inst1);
  add "YDS (offline)" 1 inst1 (Yds.schedule inst1);
  Tab.print tab;
  verdict ~expected:"every schedule passes full feasibility validation"
    !all_valid

(* ================================================================== *)
(* E15 — discrete speed levels: the cost of real DVFS grids            *)
(* ================================================================== *)

let e15 () =
  section "E15"
    "discrete DVFS levels: energy overhead of emulating PD's schedule";
  let power = Power.make 3.0 in
  let inst =
    Speedscale_workload.Generate.datacenter ~power ~machines:4 ~seed:21 ~n:40
  in
  let r = Speedscale_core.Pd.run inst in
  let st = Structure.of_schedule r.schedule in
  let top = st.max_speed *. 1.05 in
  let base = 0.02 in
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf
           "overhead = E(discrete)/E(continuous); grid spans [%.2g, %.2g]"
           base top)
      ~header:[ "levels"; "grid ratio"; "energy overhead"; "bar" ]
  in
  let overheads =
    List.map
      (fun count ->
        (* slint: allow unsafe-pow -- top and base are positive speeds *)
        let ratio = (top /. base) ** (1.0 /. float_of_int (count - 1)) in
        let levels =
          Speedscale_discrete.Levels.geometric ~base ~ratio ~count
        in
        let o =
          Speedscale_discrete.Levels.energy_overhead power levels r.schedule
        in
        Tab.add_row tab
          [
            string_of_int count;
            Tab.cell_f ratio;
            Tab.cell_f o;
            Tab.bar ~width:30 ~max_value:0.6 (o -. 1.0);
          ];
        o)
      [ 2; 3; 5; 9; 17; 33; 65 ]
  in
  Tab.print tab;
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && monotone rest
    | _ -> true
  in
  verdict
    ~expected:
      "overhead >= 1, decreasing monotonically to ~1 as the grid densifies"
    (List.for_all (fun o -> o >= 1.0 -. 1e-9) overheads
    && monotone overheads
    && List.nth overheads (List.length overheads - 1) < 1.02)

(* ================================================================== *)
(* E16 — provisioning: minimum feasible speed cap vs fleet size        *)
(* ================================================================== *)

let e16 () =
  section "E16"
    "provisioning: Horn-flow minimum speed cap vs the algorithms' peaks";
  let alpha = 2.0 in
  let tab =
    Tab.create
      ~title:"min feasible cap (max-flow bisection) and realized peak speeds"
      ~header:
        [ "m"; "min cap s*"; "PD peak"; "OPT-energy peak"; "peak/s* (PD)" ]
  in
  let ok = ref true in
  let caps =
    List.map
      (fun machines ->
        let inst =
          Instance.with_values
            (random_must_finish ~alpha ~machines ~seed:77 ~n:16)
            (fun _ -> Float.infinity)
        in
        let cap = Speedscale_flow.Feasibility.min_speed_cap inst in
        let pd_peak =
          (Structure.of_schedule (Speedscale_core.Pd.run inst).schedule)
            .max_speed
        in
        let opt_peak =
          (Structure.of_schedule (Mopt.schedule inst)).max_speed
        in
        (* no schedule can peak below the feasibility threshold *)
        if pd_peak < cap -. 1e-6 || opt_peak < cap -. 1e-3 then ok := false;
        Tab.add_row tab
          [
            string_of_int machines;
            Tab.cell_f cap;
            Tab.cell_f pd_peak;
            Tab.cell_f opt_peak;
            Tab.cell_f (pd_peak /. cap);
          ];
        cap)
      [ 1; 2; 4; 8 ]
  in
  Tab.print tab;
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && decreasing rest
    | _ -> true
  in
  verdict
    ~expected:
      "s* decreases with m; every algorithm's peak speed is >= s*"
    (!ok && decreasing caps)

(* ================================================================== *)
(* E17 — "canonical algorithms waste potential" (the intro's claim)    *)
(* ================================================================== *)

let e17 () =
  section "E17"
    "adaptive pricing vs static admission rules on a two-phase load";
  let power = Power.make 2.0 in
  (* Phase 1 (quiet): staggered cheap-to-run jobs, all worth accepting.
     Phase 2 (congestion burst): same value density, but 12 jobs collide
     in one window — finishing all is ruinous.  A static value-density
     rule cannot tell the phases apart; PD prices the congestion. *)
  let quiet =
    List.init 10 (fun i ->
        Job.make ~id:i
          ~release:(float_of_int i)
          ~deadline:(float_of_int i +. 2.0)
          ~workload:1.0 ~value:3.0)
  in
  let burst =
    List.init 12 (fun i ->
        Job.make ~id:(10 + i) ~release:20.0 ~deadline:22.0 ~workload:1.0
          ~value:3.0)
  in
  let inst = Instance.make ~power ~machines:1 (quiet @ burst) in
  let pd = Speedscale_core.Pd.run inst in
  let pd_cost = Cost.total pd.cost in
  let report name (sched : Schedule.t) =
    let c = Schedule.cost inst sched in
    (name, Cost.total c, c, List.length sched.rejected)
  in
  let thresholds = [ 0.5; 1.0; 2.0; 2.9; 3.1; 4.0; 8.0 ] in
  let best_c, best_cost =
    Speedscale_sim.Baselines.best_static_threshold ~candidates:thresholds inst
  in
  let rows =
    [
      ("PD (adaptive pricing)", pd_cost,
       Schedule.cost inst pd.schedule, List.length pd.rejected);
      report "admit everything (OA)" (Speedscale_sim.Baselines.admit_all inst);
      report
        (Printf.sprintf "best static v/w >= %.2g (hindsight)" best_c)
        (Speedscale_sim.Baselines.value_density_threshold best_c inst);
      report "reject everything" (Speedscale_sim.Baselines.reject_all inst);
    ]
  in
  metric "pd_total" pd_cost;
  metric "best_static_total" (Cost.total best_cost);
  counter "pd_rejected" (List.length pd.rejected);
  let tab =
    Tab.create
      ~title:
        "two-phase workload: 10 staggered cheap jobs, then a 12-job burst \
         (all jobs have v/w = 3)"
      ~header:[ "policy"; "energy"; "lost value"; "total"; "rejected" ]
  in
  List.iter
    (fun (name, total, (c : Cost.t), rej) ->
      Tab.add_row tab
        [
          name;
          Tab.cell_f c.energy;
          Tab.cell_f c.lost_value;
          Tab.cell_f total;
          Printf.sprintf "%d/22" rej;
        ])
    rows;
  Tab.print tab;
  note "dual lower bound on OPT: %.4f;  PD certified within %.2fx"
    pd.dual_bound (pd_cost /. pd.dual_bound);
  let statics =
    List.map (fun (_, t, _, _) -> t) (List.tl rows)
  in
  verdict
    ~expected:
      "PD beats every static rule, including the hindsight-best threshold"
    (List.for_all (fun t -> pd_cost < t -. 1e-6) statics)

(* ================================================================== *)
(* E18 — multiprocessor energy-only lineup                             *)
(* ================================================================== *)

let e18 () =
  section "E18"
    "multiprocessor energy-only: PD vs mOA vs mAVR against the optimum";
  let alpha = 2.0 in
  let tab =
    Tab.create ~title:"energy ratio to OPT-energy, 6 seeds each (n=12)"
      ~header:
        [ "m"; "PD mean"; "PD max"; "mOA mean"; "mOA max"; "mAVR mean";
          "mAVR max" ]
  in
  let ok = ref true in
  List.iter
    (fun machines ->
      let collect f =
        List.init 6 (fun seed ->
            let inst =
              random_must_finish ~alpha ~machines ~seed:(600 + seed) ~n:12
            in
            let opt = Mopt.energy inst in
            f inst /. opt)
      in
      let pd = collect (fun i -> Cost.total (Speedscale_core.Pd.run i).cost) in
      let moa = collect Moa.energy in
      let mavr = collect Mavr.energy in
      (* PD and mOA carry the alpha^alpha guarantee; mAVR inherits AVR's
         2^(alpha-1) alpha^alpha in spirit.  2% slack for the numeric
         optimum. *)
      if Stats.max_of pd > (alpha ** alpha) *. 1.02 then ok := false;
      if Stats.max_of moa > (alpha ** alpha) *. 1.02 then ok := false;
      List.iter
        (fun r -> if r < 1.0 -. 2e-2 then ok := false)
        (pd @ moa @ mavr);
      Tab.add_row tab
        [
          string_of_int machines;
          Tab.cell_f (Stats.mean pd);
          Tab.cell_f (Stats.max_of pd);
          Tab.cell_f (Stats.mean moa);
          Tab.cell_f (Stats.max_of moa);
          Tab.cell_f (Stats.mean mavr);
          Tab.cell_f (Stats.max_of mavr);
        ])
    [ 1; 2; 4 ];
  Tab.print tab;
  verdict
    ~expected:
      "no ratio below 1; PD and mOA within alpha^alpha at every m"
    !ok

(* ================================================================== *)
(* E19 — the migration gap: what the model's free migration buys        *)
(* ================================================================== *)

let e19 () =
  section "E19"
    "migration gap: partitioned (non-migratory) heuristics vs the \
     migratory optimum";
  let alpha = 2.0 in
  let tab =
    Tab.create
      ~title:"energy ratio to the migratory optimum, 6 seeds each (n=14)"
      ~header:
        [ "m"; "least-work mean"; "least-work max"; "least-energy mean";
          "least-energy max"; "mOA (migratory) mean" ]
  in
  let ok = ref true in
  List.iter
    (fun machines ->
      let collect f =
        List.init 6 (fun seed ->
            let inst =
              random_must_finish ~alpha ~machines ~seed:(700 + seed) ~n:14
            in
            let opt = Mopt.energy inst in
            f inst /. opt)
      in
      let lw =
        collect (Partitioned.energy ~heuristic:Partitioned.Least_work)
      in
      let le =
        collect
          (Partitioned.energy ~heuristic:Partitioned.Least_energy_increase)
      in
      let moa = collect Moa.energy in
      List.iter
        (fun r -> if r < 1.0 -. 2e-2 then ok := false)
        (lw @ le @ moa);
      Tab.add_row tab
        [
          string_of_int machines;
          Tab.cell_f (Stats.mean lw);
          Tab.cell_f (Stats.max_of lw);
          Tab.cell_f (Stats.mean le);
          Tab.cell_f (Stats.max_of le);
          Tab.cell_f (Stats.mean moa);
        ])
    [ 2; 4 ];
  Tab.print tab;
  verdict
    ~expected:
      "partitioned heuristics pay a visible migration gap; nothing beats \
       the migratory optimum"
    !ok

(* ================================================================== *)
(* E20 — scaling: PD stays online at realistic sizes                   *)
(* ================================================================== *)

let e20 () =
  section "E20" "scaling: PD wall time and certificate quality vs n";
  let tab =
    Tab.create ~title:"diurnal workload, m = 8, alpha = 3"
      ~header:
        [ "n"; "wall (ms)"; "per arrival (us)"; "probes/arr";
          "certified ratio"; "rejected" ]
  in
  let ok = ref true in
  List.iter
    (fun n ->
      let inst =
        Speedscale_workload.Generate.diurnal ~power:(Power.make 3.0)
          ~machines:8 ~seed:13 ~n ()
      in
      (* drive the instrumented arrival loop directly: the per-arrival
         observer gives deterministic work counters (probes, intervals,
         breakpoints), the wall clock stays in the record's timing slot *)
      let pd =
        Speedscale_core.Pd.create ~power:inst.power
          ~machines:inst.machines ()
      in
      let rejected = ref 0 in
      let max_probes = ref 0 and max_bps = ref 0 in
      Speedscale_core.Pd.set_observer pd
        (Some
           (fun (s : Speedscale_core.Pd.arrival_stats) ->
             if not s.accepted then incr rejected;
             if s.probes > !max_probes then max_probes := s.probes;
             if s.breakpoints > !max_bps then max_bps := s.breakpoints));
      let t0 = Unix.gettimeofday () in
      Array.iter
        (fun j -> ignore (Speedscale_core.Pd.arrive pd j))
        inst.jobs;
      let dt = Unix.gettimeofday () -. t0 in
      let cost =
        Cost.total (Schedule.cost inst (Speedscale_core.Pd.schedule pd))
      in
      let dual = Speedscale_core.Pd.certificate pd in
      let guarantee = Power.competitive_bound inst.power in
      let ratio = cost /. dual in
      if ratio > 27.0 +. 1e-6 then ok := false;
      if cost > (guarantee *. dual) +. 1e-6 then ok := false;
      let st = Speedscale_core.Pd.stats pd in
      if n = 800 then begin
        metric "certified_ratio_n800" ratio;
        counter "rejected_n800" !rejected
      end;
      add_record
        (Speedscale_obs.Record.with_wall ~wall_s:dt
           (Speedscale_obs.Record.make
              ~id:(Printf.sprintf "E20/arrivals-n%d" n)
              ~params:
                [
                  ("n", Speedscale_obs.Record.P_int n);
                  ("machines", Speedscale_obs.Record.P_int 8);
                ]
              ~counters:
                [
                  ("probes", st.probes);
                  ("intervals", st.intervals);
                  ("breakpoints", st.breakpoints);
                  ("max_probes_per_arrival", !max_probes);
                  ("max_breakpoints_per_arrival", !max_bps);
                  ("rejected", !rejected);
                ]
              Speedscale_obs.Record.Timing));
      Tab.add_row tab
        [
          string_of_int n;
          Tab.cell_f (dt *. 1000.0);
          Tab.cell_f (dt *. 1e6 /. float_of_int n);
          Tab.cell_f (float_of_int st.probes /. float_of_int n);
          Tab.cell_f ratio;
          Printf.sprintf "%d/%d" !rejected n;
        ])
    [ 50; 100; 200; 400; 800 ];
  Tab.print tab;
  verdict
    ~expected:
      "per-arrival cost grows mildly; breakpoint-walk water-filling keeps \
       the certificate intact at every size"
    !ok

(* ================================================================== *)
(* E24 — the E20 scaling series continued under GC, two more decades    *)
(* ================================================================== *)

(* The tree timeline + GC arrival path at sizes the flat timeline could
   not reach (doc/PERF.md).  Verdict inputs are deterministic counters
   only; the resident_* counters are memory gauges, and the verdict
   fails if the live-interval gauge at n = 10^5 exceeds twice its value
   at n = 10^3, so @bench-quick gates residency.  For the two
   smaller rungs the whole stream is replayed through the reference
   bisection solver (same gc state) and decisions must agree: acceptance
   bit for bit, multipliers to solver tolerance. *)
let e24 () =
  section "E24" "gc soak ladder: bounded-memory PD from n = 10^3 to 10^5";
  let ok = ref true in
  let tab2 =
    Tab.create ~title:"gc-on ladder: bounded-memory arrival path"
      ~header:
        [ "n"; "wall (ms)"; "per arrival (us)"; "probes/arr";
          "max live ivls"; "max tbl"; "flushed"; "rejected"; "oracle" ]
  in
  let probes_per_arrival = Hashtbl.create 8 in
  let live_at = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let inst =
        Speedscale_workload.Generate.diurnal ~power:(Power.make 3.0)
          ~machines:8 ~seed:13 ~n ()
      in
      let pd =
        Speedscale_core.Pd.create ~gc:true ~power:inst.power
          ~machines:inst.machines ()
      in
      let rejected = ref 0 in
      Speedscale_core.Pd.set_observer pd
        (Some
           (fun (s : Speedscale_core.Pd.arrival_stats) ->
             if not s.accepted then incr rejected));
      let decisions_rev = ref [] in
      let keep_decisions = n <= 10_000 in
      let t0 = Unix.gettimeofday () in
      Array.iter
        (fun j ->
          let d = Speedscale_core.Pd.arrive pd j in
          if keep_decisions then decisions_rev := d :: !decisions_rev)
        inst.jobs;
      let dt = Unix.gettimeofday () -. t0 in
      let st = Speedscale_core.Pd.stats pd in
      let m = Speedscale_core.Pd.mem pd in
      if m.flushed_intervals = 0 then ok := false;
      Hashtbl.replace probes_per_arrival n
        (float_of_int st.probes /. float_of_int n);
      Hashtbl.replace live_at n m.max_live_intervals;
      let oracle_cell =
        if not keep_decisions then "-"
        else begin
          let orc =
            Speedscale_core.Pd.create ~gc:true ~power:inst.power
              ~machines:inst.machines ()
          in
          let agree = ref true in
          List.iter2
            (fun j (d : Speedscale_core.Pd.decision) ->
              let r = Speedscale_core.Pd.arrive_reference orc j in
              let tol = 1e-9 *. (1.0 +. Float.abs d.lambda) in
              if
                (not (Bool.equal r.accepted d.accepted))
                || Float.abs (r.lambda -. d.lambda) > tol
              then agree := false)
            (Array.to_list inst.jobs)
            (List.rev !decisions_rev);
          if not !agree then ok := false;
          if !agree then "agree" else "DIVERGED"
        end
      in
      add_record
        (Speedscale_obs.Record.with_wall ~wall_s:dt
           (Speedscale_obs.Record.make
              ~id:(Printf.sprintf "E24/ladder-n%d" n)
              ~params:
                [
                  ("n", Speedscale_obs.Record.P_int n);
                  ("machines", Speedscale_obs.Record.P_int 8);
                  ("gc", Speedscale_obs.Record.P_bool true);
                ]
              ~counters:
                [
                  ("probes", st.probes);
                  ("intervals", st.intervals);
                  ("breakpoints", st.breakpoints);
                  ("rejected", !rejected);
                  ("flushed_intervals", m.flushed_intervals);
                  ("evicted_jobs", m.evicted_jobs);
                  ("finished_slices", m.finished_slices);
                  ("resident_live_intervals", m.max_live_intervals);
                  ("resident_table_entries", m.max_table_entries);
                ]
              Speedscale_obs.Record.Timing));
      Tab.add_row tab2
        [
          string_of_int n;
          Tab.cell_f (dt *. 1000.0);
          Tab.cell_f (dt *. 1e6 /. float_of_int n);
          Tab.cell_f (float_of_int st.probes /. float_of_int n);
          string_of_int m.max_live_intervals;
          string_of_int m.max_table_entries;
          string_of_int m.flushed_intervals;
          Printf.sprintf "%d/%d" !rejected n;
          oracle_cell;
        ])
    [ 1_000; 3_162; 10_000; 31_623; 100_000 ];
  Tab.print tab2;
  (* sub-linearity / flat residency across two decades: per-arrival work
     and the live high-water marks at n = 10^5 must stay within 2x of
     n = 10^3 — linear growth would put them ~100x apart *)
  let ppa n = Hashtbl.find probes_per_arrival n in
  if ppa 100_000 > 2.0 *. ppa 1_000 then ok := false;
  if
    float_of_int (Hashtbl.find live_at 100_000)
    > 2.0 *. float_of_int (Hashtbl.find live_at 1_000)
  then ok := false;
  metric "ladder_probes_per_arrival_growth" (ppa 100_000 /. ppa 1_000);
  counter "ladder_max_live_n100000" (Hashtbl.find live_at 100_000);
  verdict
    ~expected:
      "the gc-on ladder holds per-arrival work and residency flat over two \
       decades and matches the reference oracle at every cross-checked rung"
    !ok

(* ================================================================== *)
(* E21 — how tight is the dual certificate itself?                      *)
(* ================================================================== *)

let e21 () =
  section "E21"
    "certificate tightness: how far is g(lambda) below the true optimum?";
  let alpha = 2.0 in
  let tab =
    Tab.create
      ~title:
        "OPT-exact / g(lambda): 1.0 would mean the certificate is exact \
         (12 seeds, n=8)"
      ~header:[ "m"; "mean"; "max"; "certified vs true ratio inflation" ]
  in
  let ok = ref true in
  List.iter
    (fun machines ->
      let slack =
        List.init 12 (fun seed ->
            let inst =
              random_instance ~alpha ~machines ~seed:(800 + seed) ~n:8
            in
            let pd = Speedscale_core.Pd.run inst in
            let opt = Opt.solve inst in
            (* weak duality: g <= OPT must hold *)
            if pd.dual_bound > opt.cost +. (2e-2 *. (1.0 +. opt.cost)) then
              ok := false;
            opt.cost /. pd.dual_bound)
      in
      Tab.add_row tab
        [
          string_of_int machines;
          Tab.cell_f (Stats.mean slack);
          Tab.cell_f (Stats.max_of slack);
          Printf.sprintf "certified ratios overstate by ~%.0f%%"
            ((Stats.mean slack -. 1.0) *. 100.0);
        ])
    [ 1; 2 ];
  Tab.print tab;
  verdict
    ~expected:
      "g(lambda) <= OPT always; the gap (certificate conservatism) is a \
       modest constant factor"
    !ok

(* ================================================================== *)
(* E22 — PD vs the ad-hoc multiprocessor CLL                           *)
(* ================================================================== *)

let e22 () =
  section "E22"
    "PD vs the naive multiprocessor CLL (mOA core + threshold admission)";
  let alpha = 2.0 in
  let tab =
    Tab.create
      ~title:"cost ratio to OPT-exact over 8 seeds (n=7); PD has a proof, \
              mCLL does not"
      ~header:[ "m"; "PD mean"; "PD max"; "mCLL mean"; "mCLL max" ]
  in
  let ok = ref true in
  List.iter
    (fun machines ->
      let pd_r = ref [] and mcll_r = ref [] in
      List.iter
        (fun seed ->
          let inst =
            random_instance ~alpha ~machines ~seed:(900 + seed) ~n:7
          in
          let opt = Opt.solve inst in
          let pd = Cost.total (Speedscale_core.Pd.run inst).cost in
          let mc = Cost.total (Mcll.cost inst) in
          if pd > (alpha ** alpha) *. opt.cost *. 1.02 then ok := false;
          pd_r := (pd /. opt.cost) :: !pd_r;
          mcll_r := (mc /. opt.cost) :: !mcll_r)
        (List.init 8 Fun.id);
      Tab.add_row tab
        [
          string_of_int machines;
          Tab.cell_f (Stats.mean !pd_r);
          Tab.cell_f (Stats.max_of !pd_r);
          Tab.cell_f (Stats.mean !mcll_r);
          Tab.cell_f (Stats.max_of !mcll_r);
        ])
    [ 1; 2; 3 ];
  Tab.print tab;
  verdict
    ~expected:
      "comparable average behaviour — but only PD carries the alpha^alpha \
       proof (and stays within it)"
    !ok

(* ================================================================== *)
(* E26 — the sharded admission service: throughput and the price of     *)
(* partitioning                                                         *)
(* ================================================================== *)

(* Two questions about lib/service.  (1) Throughput: arrivals/sec of
   the full submit → shard → merge loop at >= 10^6 jobs per run, across
   shard counts — the scaling shape depends on the host's core count
   (a Timing record: the wall clock is reported, not gated), while the
   verdict rests only on deterministic invariants: every run processes
   the whole stream, the merged stream is identical at every worker
   count, and the one-shard service costs exactly what plain PD costs.
   (2) The competitive-ratio price of partitioning (jobs never migrate
   between shards), measured against the global PD dual bound next to
   E22's numbers. *)
let e26 () =
  section "E26"
    "sharded admission service: arrivals/sec vs shards, and the ratio \
     price of partitioning";
  let module Service = Speedscale_service.Service in
  let module Online = Speedscale_engine.Online in
  let ok = ref true in
  (* -- throughput: 10^6 arrivals through the service ---------------- *)
  let machines = 8 in
  let inst =
    Speedscale_workload.Generate.diurnal ~power:(Power.make 3.0) ~machines
      ~seed:17 ~n:1_000_000 ()
  in
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf
           "service throughput, n=%d, m=%d (1 host core splits the \
            shards; see doc/SERVICE.md)"
           (Array.length inst.jobs) machines)
      ~header:
        [ "shards"; "wall (s)"; "arrivals/sec"; "per arrival (us)";
          "accepted"; "rejected" ]
  in
  let throughput = Hashtbl.create 4 in
  List.iter
    (fun k ->
      let params i =
        let mi = (machines / k) + if i < machines mod k then 1 else 0 in
        Online.params ~power:inst.power ~machines:mi ()
      in
      let svc = Service.create ~engine:Online.pd ~params ~shards:k () in
      let accepted = ref 0 and rejected = ref 0 and events = ref 0 in
      let count evs =
        List.iter
          (fun (ev : Service.ev) ->
            incr events;
            if ev.decision.Online.accepted then incr accepted
            else incr rejected)
          evs
      in
      let t0 = Unix.gettimeofday () in
      Array.iter (fun j -> count (Service.submit svc j)) inst.jobs;
      count (Service.drain svc);
      let dt = Unix.gettimeofday () -. t0 in
      ignore (Service.finalize svc);
      Service.shutdown svc;
      let n = Array.length inst.jobs in
      if !events <> n then ok := false;
      Hashtbl.replace throughput k (float_of_int n /. dt);
      add_record
        (Speedscale_obs.Record.with_wall ~wall_s:dt
           (Speedscale_obs.Record.make
              ~id:(Printf.sprintf "E26/serve-n%d-k%d" n k)
              ~params:
                [
                  ("n", Speedscale_obs.Record.P_int n);
                  ("machines", Speedscale_obs.Record.P_int machines);
                  ("shards", Speedscale_obs.Record.P_int k);
                ]
              ~counters:
                [
                  ("events", !events);
                  ("accepted", !accepted);
                  ("rejected", !rejected);
                ]
              Speedscale_obs.Record.Timing));
      Tab.add_row tab
        [
          string_of_int k;
          Tab.cell_f dt;
          Tab.cell_f (float_of_int n /. dt);
          Tab.cell_f (dt *. 1e6 /. float_of_int n);
          string_of_int !accepted;
          string_of_int !rejected;
        ])
    [ 1; 2; 4; 8 ];
  Tab.print tab;
  metric "throughput_k1_arrivals_per_s" (Hashtbl.find throughput 1);
  metric "throughput_k8_arrivals_per_s" (Hashtbl.find throughput 8);
  (* -- determinism: the merged stream must not care about workers ---- *)
  let det_inst = random_instance ~alpha:2.0 ~machines:4 ~seed:902 ~n:200 in
  let run_events workers =
    let params _ = Online.params ~power:det_inst.power ~machines:1 () in
    let svc =
      Service.create ~workers ~engine:Online.pd ~params ~shards:4 ()
    in
    let evs = ref [] in
    Array.iter (fun j -> evs := List.rev_append (Service.submit svc j) !evs)
      det_inst.jobs;
    evs := List.rev_append (Service.drain svc) !evs;
    Service.shutdown svc;
    List.rev !evs
  in
  if run_events 1 <> run_events 4 then ok := false;
  (* -- the ratio price of partitioning, next to E22 ------------------ *)
  let alpha = 2.0 in
  let rtab =
    Tab.create
      ~title:
        "sharded PD cost over the global PD dual bound g(lambda), 8 seeds \
         (n=64, m=4); k=1 is global PD itself"
      ~header:[ "shards"; "mean"; "max"; "vs global PD mean" ]
  in
  List.iter
    (fun k ->
      let ratios = ref [] and vs_pd = ref [] in
      List.iter
        (fun seed ->
          let inst =
            random_instance ~alpha ~machines:4 ~seed:(700 + seed) ~n:64
          in
          let r = Speedscale_core.Pd.run inst in
          let pd_cost = Cost.total r.cost in
          let value_of =
            let tbl = Hashtbl.create 64 in
            Array.iter
              (fun (j : Job.t) -> Hashtbl.replace tbl j.id j.value)
              inst.jobs;
            Hashtbl.find tbl
          in
          let params i =
            let mi = (4 / k) + if i < 4 mod k then 1 else 0 in
            Online.params ~power:inst.power ~machines:mi ()
          in
          let svc = Service.create ~engine:Online.pd ~params ~shards:k () in
          Array.iter (fun j -> ignore (Service.submit svc j)) inst.jobs;
          ignore (Service.drain svc);
          let plans = Service.finalize svc in
          Service.shutdown svc;
          let cost =
            Array.fold_left
              (fun acc (p : Schedule.t) ->
                acc
                +. Schedule.energy inst.power p
                +. List.fold_left
                     (fun a id -> a +. value_of id)
                     0.0 p.rejected)
              0.0 plans
          in
          (* the one-shard service is global PD with a pool detour:
             its cost must coincide exactly *)
          if k = 1 && Float.abs (cost -. pd_cost) > 1e-9 *. (1.0 +. pd_cost)
          then ok := false;
          ratios := (cost /. r.dual_bound) :: !ratios;
          vs_pd := (cost /. pd_cost) :: !vs_pd)
        (List.init 8 Fun.id);
      Tab.add_row rtab
        [
          string_of_int k;
          Tab.cell_f (Stats.mean !ratios);
          Tab.cell_f (Stats.max_of !ratios);
          Tab.cell_f (Stats.mean !vs_pd);
        ])
    [ 1; 2; 4 ];
  Tab.print rtab;
  verdict
    ~expected:
      "every shard count processes the full 10^6-arrival stream, the \
       merged stream is worker-count invariant, and the one-shard service \
       costs exactly what global PD costs"
    !ok

(* ================================================================== *)
(* E27 — the price of contiguity: non-preemptive NPD vs preemptive PD  *)
(* ================================================================== *)

let e27 () =
  section "E27"
    "price of contiguity: non-preemptive NPD vs preemptive PD, with both \
     dual certificates";
  let tab =
    Tab.create
      ~title:
        "cost(NPD)/cost(PD) and certified ratios vs each engine's own \
         dual bound g(lambda), 6 seeds each (n=16)"
      ~header:
        [ "alpha"; "m"; "npd/pd mean"; "npd/pd max"; "rej pd"; "rej npd";
          "npd/g mean"; "g<=0"; "pd/g mean"; "cert viol" ]
  in
  let ok = ref true and total_violations = ref 0 in
  List.iter
    (fun alpha ->
      List.iter
        (fun machines ->
          let vs_pd = ref [] and npd_cert = ref [] and pd_cert = ref [] in
          let rej_pd = ref 0 and rej_npd = ref 0 and violations = ref 0 in
          let vacuous = ref 0 in
          List.iter
            (fun seed ->
              let inst =
                random_instance ~alpha ~machines ~seed:(2700 + seed) ~n:16
              in
              let p = Speedscale_core.Pd.run inst in
              let np = Speedscale_core.Npd.run inst in
              let pc = Cost.total p.cost and nc = Cost.total np.cost in
              vs_pd := (nc /. pc) :: !vs_pd;
              rej_pd := !rej_pd + List.length p.rejected;
              rej_npd := !rej_npd + List.length np.rejected;
              (* each engine's Lagrangian g(lambda) lower-bounds the
                 preemptive OPT, which lower-bounds the cost of every
                 feasible solution — preemptive or not.  NPD's aggressive
                 rejections can push its g(lambda) nonpositive, a valid
                 but vacuous bound; the ratio is only meaningful when
                 g(lambda) > 0, so vacuous seeds are counted apart. *)
              if np.dual_bound > 0.0 then
                npd_cert := (nc /. np.dual_bound) :: !npd_cert
              else incr vacuous;
              pd_cert := (pc /. p.dual_bound) :: !pd_cert;
              let tol b = 1e-9 *. (1.0 +. b) in
              if nc < np.dual_bound -. tol np.dual_bound then
                incr violations;
              if pc < p.dual_bound -. tol p.dual_bound then incr violations)
            (List.init 6 Fun.id);
          if !violations > 0 then ok := false;
          total_violations := !total_violations + !violations;
          Tab.add_row tab
            [
              Printf.sprintf "%.2g" alpha;
              string_of_int machines;
              Tab.cell_f (Stats.mean !vs_pd);
              Tab.cell_f (Stats.max_of !vs_pd);
              string_of_int !rej_pd;
              string_of_int !rej_npd;
              (if !npd_cert = [] then "-" else Tab.cell_f (Stats.mean !npd_cert));
              string_of_int !vacuous;
              Tab.cell_f (Stats.mean !pd_cert);
              string_of_int !violations;
            ])
        [ 1; 4 ])
    [ 1.5; 2.0; 3.0 ];
  Tab.print tab;
  counter "certificate_violations" !total_violations;
  verdict
    ~expected:
      "contiguity costs or rejects more often than preemptive PD on most \
       seeds, and neither engine's cost ever drops below its own dual \
       bound"
    !ok

(* ================================================================== *)
(* E28 — E19 closed: the migration gap against the certified exact     *)
(*       migratory optimum                                             *)
(* ================================================================== *)

let e28 () =
  section "E28"
    "migration gap vs the flow-certified exact migratory optimum \
     (E19's denominator, now exact)";
  let alpha = 2.0 in
  let tab =
    Tab.create
      ~title:
        "energy ratio to the certified flow optimum, 6 seeds each (n=14)"
      ~header:
        [ "m"; "least-work mean"; "least-work max"; "least-energy mean";
          "least-energy max"; "mOA mean"; "PGD/flow max"; "certified" ]
  in
  let ok = ref true in
  List.iter
    (fun machines ->
      let certified = ref 0 and pgd_gap = ref [] in
      let instances =
        List.init 6 (fun seed ->
            random_must_finish ~alpha ~machines ~seed:(700 + seed) ~n:14)
      in
      let opts =
        List.map
          (fun inst ->
            let r = Speedscale_flow.Migratory.solve inst in
            let c = Speedscale_flow.Migratory.certify inst r in
            if c.feasible && c.pinched then incr certified;
            (* the PGD optimum (E19's old denominator) must coincide *)
            pgd_gap := (Mopt.energy inst /. r.energy) :: !pgd_gap;
            r.energy)
          instances
      in
      let collect f =
        List.map2 (fun inst opt -> f inst /. opt) instances opts
      in
      let lw =
        collect (Partitioned.energy ~heuristic:Partitioned.Least_work)
      in
      let le =
        collect
          (Partitioned.energy ~heuristic:Partitioned.Least_energy_increase)
      in
      let moa = collect Moa.energy in
      List.iter
        (fun r -> if r < 1.0 -. 1e-6 then ok := false)
        (lw @ le @ moa);
      List.iter
        (fun g -> if Float.abs (g -. 1.0) > 1e-3 then ok := false)
        !pgd_gap;
      if !certified <> 6 then ok := false;
      Tab.add_row tab
        [
          string_of_int machines;
          Tab.cell_f (Stats.mean lw);
          Tab.cell_f (Stats.max_of lw);
          Tab.cell_f (Stats.mean le);
          Tab.cell_f (Stats.max_of le);
          Tab.cell_f (Stats.mean moa);
          Tab.cell_f (Stats.max_of !pgd_gap);
          Printf.sprintf "%d/6" !certified;
        ])
    [ 2; 4 ];
  Tab.print tab;
  verdict
    ~expected:
      "every flow optimum carries a feasible+pinched certificate, agrees \
       with the PGD optimum, and no heuristic beats it"
    !ok

let all =
  [
    ("E1", e1);
    ("E2", e2);
    ("E3", e3);
    ("E4", e4);
    ("E5", e5);
    ("E6", e6);
    ("E7", e7);
    ("E8", e8);
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E13", e13);
    ("E14", e14);
    ("E15", e15);
    ("E16", e16);
    ("E17", e17);
    ("E18", e18);
    ("E19", e19);
    ("E20", e20);
    ("E21", e21);
    ("E22", e22);
    ("E24", e24);
    ("E26", e26);
    ("E27", e27);
    ("E28", e28);
  ]
