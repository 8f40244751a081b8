(* The crash harness's own contract, on tiny hand-built worlds whose
   persistence events are plain non-temporal stores: an armed trial that
   does not crash fails the sweep, a failed check names its trial, a
   recovery chain stops at the first recovery that completes, a
   recovery that is not idempotent is caught, a sanitizer report in
   recovery fails the sweep, and [window_events] counts the points a
   sweep crashes at. *)

open Rewind_nvm
module Harness = Rewind_analysis.Crash_harness
module San = Rewind_analysis.Sanitizer
open Support

let word i = 64 * (i + 1)

(* A world whose window makes [n ()] persistence events: word i := i. *)
let stores ?(check = fun _ _ -> None) n =
  {
    Harness.setup = (fun () -> Arena.create ~size_bytes:4096 ());
    arenas = (fun a -> [| a |]);
    window =
      (fun a ->
        for i = 1 to n () do
          Arena.nt_write a (word i) (Int64.of_int i)
        done);
    recover =
      (fun _ a ->
        (* how many stores survived *)
        let rec count i =
          if Arena.read a (word i) = 0L then i - 1 else count (i + 1)
        in
        count 1);
    check;
  }

(* [f] must fail with a detail mentioning [needle]; returns the failing
   trial's (arena, event). *)
let expect_failed ~needle f =
  match f () with
  | _ -> Alcotest.fail "expected Crash_harness.Failed"
  | exception Harness.Failed { arena; event; detail } ->
      let n = String.length needle in
      let rec at i =
        i + n <= String.length detail
        && (String.sub detail i n = needle || at (i + 1))
      in
      Alcotest.(check bool) ("detail mentions " ^ needle) true (at 0);
      (arena, event)

(* The sweep that never crashed anything: the dry run sees 3 events, the
   trials' windows make none, so trial 1 completes while armed. *)
let test_uncrashed_trial_fails () =
  let runs = ref 0 in
  let n () =
    incr runs;
    if !runs = 1 then 3 else 0
  in
  let _, event =
    expect_failed ~needle:"without crashing" (fun () ->
        Harness.every_event (stores n))
  in
  check_int "the first trial is named" 1 event

(* A crash at event k leaves k - 1 stores; the planted bad state is the
   one trial 3 produces. *)
let test_wrong_check_names_trial () =
  let check _ survived =
    if survived = 2 then Some "planted failure" else None
  in
  let s = Harness.every_event (stores (fun () -> 5)) in
  check_int "one trial per event" 5 s.Harness.crash_points;
  let arena, event =
    expect_failed ~needle:"planted failure" (fun () ->
        Harness.every_event (stores ~check (fun () -> 5)))
  in
  check_int "arena" 0 arena;
  check_int "trial index" 3 event

(* Recovery makes three persistence events: depths 0, 1 and 2 crash it,
   depth 3 completes, and the chain stops there. *)
let test_chain_stops_at_completion () =
  let recoveries = ref 0 and checks = ref 0 in
  let s =
    {
      (stores (fun () -> 1)) with
      recover =
        (fun _ a ->
          incr recoveries;
          for i = 10 to 12 do
            Arena.nt_write a (word i) 1L
          done);
      check =
        (fun _ () ->
          incr checks;
          None);
    }
  in
  let sweep = Harness.recovery_chain s in
  check_int "three crashed recoveries" 3 sweep.Harness.recovery_crash_points;
  check_int "four recovery attempts" 4 !recoveries;
  check_int "only the completed recovery is checked" 1 !checks

(* Recovery bumps a durable counter before marking itself done: a crash
   between the two makes the next recovery bump it again. *)
let test_during_recovery_catches_non_idempotence () =
  let s =
    {
      (stores (fun () -> 1)) with
      recover =
        (fun _ a ->
          if Arena.read a (word 20) = 0L then begin
            Arena.nt_write a (word 21) (Int64.add (Arena.read a (word 21)) 1L);
            Arena.nt_write a (word 20) 1L
          end;
          Arena.read a (word 21));
      check = (fun _ _ -> None);
    }
  in
  ignore
    (expect_failed ~needle:"its event 2/2" (fun () ->
         Harness.during_recovery s ~observe:(fun _ n -> Int64.to_string n)))

(* Recovery declares a word durable that it only cached: the sanitizer
   reports unpersisted-commit on every trial. *)
let test_sanitizer_report_fails () =
  let s =
    {
      (stores (fun () -> 2)) with
      recover =
        (fun _ a ->
          Arena.write a (word 30) 1L;
          Pmcheck.expect_persisted a ~addr:(word 30) ~len:8 ~what:"flag";
          0);
    }
  in
  let _, event =
    expect_failed ~needle:"unpersisted-commit" (fun () -> Harness.every_event s)
  in
  check_int "the first trial is named" 1 event

let test_crash_once_wraps () =
  let survived = Harness.crash_once (stores (fun () -> 4)) ~after:9 in
  check_int "after 9 mod 4 = 1 event" 1 survived;
  ignore
    (expect_failed ~needle:"no persistence events" (fun () ->
         Harness.crash_once (stores (fun () -> 0)) ~after:0))

let test_window_events_counts_points () =
  let s = stores (fun () -> 7) in
  check_int "every_event's crash points" (Harness.every_event s).crash_points
    (Harness.window_events s)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "crash_harness"
    [
      ( "drivers",
        [
          tc "an uncrashed trial fails" `Quick test_uncrashed_trial_fails;
          tc "a wrong check names its trial" `Quick test_wrong_check_names_trial;
          tc "recovery chain stops at completion" `Quick
            test_chain_stops_at_completion;
          tc "non-idempotent recovery is caught" `Quick
            test_during_recovery_catches_non_idempotence;
          tc "crash_once wraps its point" `Quick test_crash_once_wraps;
          tc "window_events counts the sweep's points" `Quick
            test_window_events_counts_points;
          tc "a sanitizer report fails the sweep" `Quick
            test_sanitizer_report_fails;
        ] );
    ]
