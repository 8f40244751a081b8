(* The correctness table: every row of {!Crash_scenarios.protocols} —
   each named configuration, then the lock-free set — swept by every
   crash-harness driver that applies, at 1, 2 and 4 log partitions.  A
   row that keeps no log (InCLL, the set) runs once.

   Per row:
   - its tour runs sanitizer-clean, with no empty fence right after
     recovery begins;
   - its world crashes at every persistence event (sampled down to about
     160 points), inside recovery (a second recovery must reach what an
     uninterrupted one reaches) and as a recovery chain;
   - its short world, where it has one (the WAL rows), crashes at every
     event with no fault model and under each of 8 fault-model
     adversaries; beyond one partition each is sampled to about 150
     crash points (the 8 masks together);
   - each of its crash-state enumerations recovers legally. *)

open Rewind_nvm
module Harness = Rewind_analysis.Crash_harness
module Sanitizer = Rewind_analysis.Sanitizer
module Enumerator = Rewind_analysis.Enumerator
module Scenarios = Rewind_benchlib.Crash_scenarios
open Support

(* The stride that samples about [k] of a window's [n] crash points. *)
let sampled k n = n / k

(* Adversary [m]: each dirty line survives the crash with probability
   (m mod 8 + 1) / 8, and the odd ones also evict lines spontaneously. *)
let fault_of_mask m =
  Fault_model.create
    ~eviction_ppm:(if m land 1 = 1 then 50_000 else 0)
    ~crash_survival_ppm:(125_000 * ((m mod 8) + 1))
    ~seed:(0x5EED0 + m) ()

let test_tour (p : Scenarios.protocol) () =
  let r = Sanitizer.report (p.tour ()) in
  check_int "violations" 0 r.Sanitizer.violation_count;
  check_bool "no empty fence after recovery-begin" false
    (List.mem_assoc "recovery-begin" r.Sanitizer.redundant_fence_sites)

(* The row's drivers, named, at [partitions]. *)
let drivers ~partitions (p : Scenarios.protocol) =
  let (Scenarios.World w) = p.world in
  (* beyond one partition, about 150 crash points (over all 8 masks) *)
  let stride k = if partitions = 1 then None else Some (sampled k) in
  (* a sweep that crashes nothing checks nothing *)
  let crashed (s : Harness.sweep) =
    check_bool "crashed" true (s.crash_points > 0)
  in
  let recovery_crashed (s : Harness.sweep) =
    check_bool "recovery crashed" true (s.recovery_crash_points > 0)
  in
  let every_event ?stride s () = crashed (Harness.every_event ?stride s) in
  [
    ("tour", test_tour p);
    ("every event", every_event ~stride:(sampled 160) w.scenario);
    ( "during recovery",
      fun () ->
        recovery_crashed
          (Harness.during_recovery ~from:w.from w.scenario ~observe:w.observe)
    );
    ( "recovery chain",
      fun () ->
        recovery_crashed (Harness.recovery_chain ~from:w.from w.scenario) );
  ]
  @ (match w.faulty with
    | None -> []
    | Some faulty ->
        let masked m a = Arena.set_fault_model a (Some (fault_of_mask m)) in
        [
          ( "every event, short world",
            every_event ?stride:(stride 150) (faulty ignore) );
          ( "every event x 8 fault masks",
            fun () ->
              for m = 0 to 7 do
                every_event ?stride:(stride 19) (faulty (masked m)) ()
              done );
        ])
  @ List.map
      (fun (e : Scenarios.enumeration) ->
        ( "enumerate " ^ e.label,
          fun () ->
            check_bool "crash states explored" true
              ((e.enumerate ()).Enumerator.crash_states > 0) ))
      p.enumerations

(* The table at [partitions]: its rows, then each row's drivers; a row
   that keeps no log runs at 1 partition only. *)
let table partitions =
  let rows = Scenarios.protocols ~partitions () in
  let tc name f = Alcotest.test_case name `Slow f in
  let cases (p : Scenarios.protocol) =
    let row =
      if partitions = 1 then p.name else Fmt.str "%s-p%d" p.name partitions
    in
    List.map
      (fun (driver, f) -> tc (Fmt.str "%s [%s]" driver row) f)
      (drivers ~partitions p)
  in
  tc "rows" (fun () ->
      Alcotest.(check (list string))
        "configurations, then lfset"
        (Rewind.config_names @ [ "lfset" ])
        (List.map (fun (p : Scenarios.protocol) -> p.name) rows))
  :: List.concat_map
       (fun (p : Scenarios.protocol) ->
         if partitions = 1 || p.sharded then cases p else [])
       rows

(* `rewind check --enumerate` prints an illegal crash state and runs the
   rows after it.  The set's announcement-decided claim is illegal under
   line subsets (the ROADMAP's "Lock-free detectability under line
   subsets"), so each of two rows enumerating it finds one. *)
let test_illegal_reported () =
  let ops = Scenarios.lfset_ops in
  let row =
    {
      (List.hd (Scenarios.protocols ())) with
      enumerations =
        [
          Scenarios.enumeration ~at_every_event:true "lfset-announced"
            {
              (Scenarios.lfset_prefix ops) with
              check = (fun _ -> Scenarios.lfset_check ops);
            };
        ];
    }
  in
  check_int "both illegal states" 2 (Scenarios.print_enumerations [ row; row ])

let () =
  Alcotest.run "protocols"
    (List.map (fun p -> (Fmt.str "%d-partition" p, table p)) [ 1; 2; 4 ]
    @ [
        ( "check",
          [
            Alcotest.test_case "an illegal crash state is reported" `Quick
              test_illegal_reported;
          ] );
      ])
