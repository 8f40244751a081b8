(* Deterministic fault-injection campaign (the "faultcamp").

   A campaign enumerates trials over the six WAL configurations.  Each
   trial is one {!Crash_scenarios.mixed} crash (commits, rollbacks, a
   checkpoint) run by {!Rewind_analysis.Crash_harness.crash_once}, with
   a seeded {!Rewind_nvm.Fault_model} attached to the arena: the trial
   crashes at its chosen persistence event (modulo the window's events),
   recovers under the harness's sanitizer, and checks the allowed set
   and that a second attach changes nothing.  Every parameter of a trial
   is recorded in the {!trial} record, so any verdict is reproducible
   from the one line the campaign prints on failure — independently of
   the rest of the schedule.

   Determinism: the schedule is a pure function of the base seed (one
   [Random.State] drives it), and within a trial the eviction mask is a
   pure function of the trial's fault seed and the workload (see
   {!Rewind_nvm.Fault_model}).  Running the same campaign twice yields
   identical schedules and verdicts. *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness

let configs = Crash_scenarios.wal_configs
let config_names = List.map fst configs
let find_config name = List.assoc_opt name configs
let scenario ?hook cfg =
  Crash_scenarios.mixed ~size_bytes:(16 lsl 20) ?hook cfg

(* Window persistence events of the fault-free world, per config: the
   range the schedule draws crash points from. *)
let shadow_events =
  let tbl = Hashtbl.create 8 in
  fun cfg_name ->
    match Hashtbl.find_opt tbl cfg_name with
    | Some n -> n
    | None ->
        let n =
          Harness.window_events (scenario (List.assoc cfg_name configs))
        in
        Hashtbl.replace tbl cfg_name n;
        n

(* ------------------------------------------------------------------ *)
(* Trials                                                              *)
(* ------------------------------------------------------------------ *)

type trial = {
  config_name : string;
  fault_seed : int;  (* seeds the fault model: eviction + crash mask *)
  crash_after : int; (* persistence events before the crash fires *)
  eviction_ppm : int;
  survival_ppm : int;
}

type verdict = Pass | Fail of string

let pp_trial ppf t =
  Fmt.pf ppf "--config %s --seed %d --crash %d --evict-ppm %d --survive-ppm %d"
    t.config_name t.fault_seed t.crash_after t.eviction_ppm t.survival_ppm

let pp_verdict ppf = function
  | Pass -> Fmt.string ppf "pass"
  | Fail m -> Fmt.pf ppf "FAIL: %s" m

(* Recovery must be idempotent: a second attach finds a clean log and
   changes nothing. *)
let second_attach cfg { Crash_scenarios.arena; cells; _ } =
  let before = Array.map (Arena.read arena) cells in
  let tm =
    Tm.attach ~cfg (Alloc.recover arena) ~root_slot:Crash_scenarios.root_slot
  in
  if Log.length (Tm.log tm) <> 0 then
    Some "second recovery left a non-empty log"
  else if Array.map (Arena.read arena) cells <> before then
    Some "second recovery changed user data"
  else None

(* Run one trial; any escaped exception is a failure (recovery must
   truncate torn state, never raise). *)
let run_trial t =
  match find_config t.config_name with
  | None -> Fail (Fmt.str "unknown config %S" t.config_name)
  | Some cfg -> (
      let fault a =
        Arena.set_fault_model a
          (Some
             (Fault_model.create ~eviction_ppm:t.eviction_ppm
                ~crash_survival_ppm:t.survival_ppm ~seed:t.fault_seed ()))
      in
      let s = scenario ~hook:fault cfg in
      let check w r =
        match s.check w r with None -> second_attach cfg w | bad -> bad
      in
      match Harness.crash_once { s with check } ~after:t.crash_after with
      | _ -> Pass
      | exception Harness.Failed { detail; _ } -> Fail detail
      | exception e -> Fail (Fmt.str "exception: %s" (Printexc.to_string e)))

(* Shrink a failing trial to a smaller reproducer: drop spontaneous
   evictions if the failure survives without them, then find a smaller
   failing crash point by bisection.  Bounded work (~2 log2 trials). *)
let minimize t =
  let fails t = match run_trial t with Fail _ -> true | Pass -> false in
  let t =
    if t.eviction_ppm > 0 && fails { t with eviction_ppm = 0 } then
      { t with eviction_ppm = 0 }
    else t
  in
  let lo = ref 0 and hi = ref t.crash_after in
  (* invariant: [hi] fails; look for an earlier failing point *)
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if fails { t with crash_after = mid } then hi := mid else lo := mid
  done;
  { t with crash_after = !hi }

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

let eviction_levels = [| 0; 20_000; 100_000 |]
let survival_levels = [| 0; 250_000; 500_000; 750_000; 1_000_000 |]

(* [seeds] trials per configuration, derived from [base_seed] alone.
   Crash points sweep the whole event range, plus a margin of 8 past the
   end that wraps around it. *)
let schedule ?(config_filter = None) ~base_seed ~seeds () =
  let rng = Random.State.make [| base_seed; 0xFA17; base_seed lxor 0x2545F491 |] in
  let selected =
    match config_filter with
    | None -> configs
    | Some name -> List.filter (fun (n, _) -> n = name) configs
  in
  List.concat_map
    (fun (name, _) ->
      let events = shadow_events name in
      List.init seeds (fun _ ->
          {
            config_name = name;
            fault_seed = Random.State.bits rng lxor (Random.State.bits rng lsl 15);
            crash_after = Random.State.int rng (events + 8);
            eviction_ppm =
              eviction_levels.(Random.State.int rng (Array.length eviction_levels));
            survival_ppm =
              survival_levels.(Random.State.int rng (Array.length survival_levels));
          }))
    selected

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

type result = { trials : int; failures : (trial * string) list }

let run_campaign ?(config_filter = None) ?(quiet = false) ~base_seed ~seeds () =
  let sched = schedule ~config_filter ~base_seed ~seeds () in
  let failures = ref [] in
  let per_config = Hashtbl.create 8 in
  List.iter
    (fun t ->
      let n, nf =
        Option.value ~default:(0, 0) (Hashtbl.find_opt per_config t.config_name)
      in
      let failed =
        match run_trial t with
        | Pass -> 0
        | Fail msg ->
            let small = minimize t in
            failures := (small, msg) :: !failures;
            if not quiet then
              Fmt.epr "REPRO: faultcamp %a  # %s@." pp_trial small msg;
            1
      in
      Hashtbl.replace per_config t.config_name (n + 1, nf + failed))
    sched;
  if not quiet then
    List.iter
      (fun (name, _) ->
        match Hashtbl.find_opt per_config name with
        | Some (n, nf) -> Fmt.pr "%-8s %4d trials  %d failures@." name n nf
        | None -> ())
      configs;
  { trials = List.length sched; failures = List.rev !failures }

(* Compact digest of a schedule, for eyeballing run-to-run determinism
   from the CLI. *)
let schedule_digest sched =
  List.fold_left
    (fun acc t ->
      let s =
        Fmt.str "%s:%d:%d:%d:%d" t.config_name t.fault_seed t.crash_after
          t.eviction_ppm t.survival_ppm
      in
      Crc32.digest (Fmt.str "%08x%s" acc s))
    0 sched
