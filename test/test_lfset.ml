(* Durable lock-free set: functional behaviour, durable-header attach
   validation, deterministic concurrent runs under the race detector,
   and the tentpole acceptance sweep — crash at *every* persistence
   event of an insert/remove/traversal trace, recovering a linearizable
   prefix with the in-flight operation decided by the detectability
   oracle and the sanitizer clean throughout. *)

open Rewind_nvm
open Rewind_pds
module Enum = Rewind_analysis.Enumerator
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios
module Racecheck = Rewind_analysis.Racecheck

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

let fresh ?(size = 4 lsl 20) () =
  let arena = Arena.create ~size_bytes:size () in
  let alloc = Alloc.create arena in
  (arena, alloc)

(* ------------------------------------------------------------------ *)
(* Functional                                                          *)
(* ------------------------------------------------------------------ *)

let test_basic () =
  let _, alloc = fresh () in
  let s = Lfset.create ~nbuckets:4 ~nthreads:1 alloc in
  check_bool "insert fresh" true (Lfset.insert s 5);
  check_bool "insert dup" false (Lfset.insert s 5);
  check_bool "insert more" true (Lfset.insert s 1);
  check_bool "insert more" true (Lfset.insert s 9);
  check_bool "mem present" true (Lfset.mem s 5);
  check_bool "mem absent" false (Lfset.mem s 7);
  check_ints "bindings" [ 1; 5; 9 ] (Lfset.bindings s);
  check_bool "remove present" true (Lfset.remove s 5);
  check_bool "remove again" false (Lfset.remove s 5);
  check_bool "removed gone" false (Lfset.mem s 5);
  check_int "size" 2 (Lfset.size s);
  check_bool "reinsert after remove" true (Lfset.insert s 5);
  check_ints "bindings again" [ 1; 5; 9 ] (Lfset.bindings s)

let test_many_keys () =
  let _, alloc = fresh () in
  let s = Lfset.create ~nbuckets:8 ~nthreads:1 alloc in
  for k = 0 to 199 do
    check_bool "insert" true (Lfset.insert s k)
  done;
  for k = 0 to 199 do
    if k mod 3 = 0 then check_bool "remove" true (Lfset.remove s k)
  done;
  let expect =
    List.filter (fun k -> k mod 3 <> 0) (List.init 200 (fun i -> i))
  in
  check_ints "survivors" expect (Lfset.bindings s);
  List.iter (fun k -> check_bool "mem" true (Lfset.mem s k)) expect

(* ------------------------------------------------------------------ *)
(* Attach validation (durable header)                                  *)
(* ------------------------------------------------------------------ *)

let test_attach_roundtrip () =
  let _, alloc = fresh () in
  let s = Lfset.create ~nbuckets:4 ~nthreads:2 alloc in
  ignore (Lfset.insert s 3);
  ignore (Lfset.insert s 8);
  let s2 = Lfset.attach alloc ~base:(Lfset.base s) in
  check_int "nbuckets from header" 4 (Lfset.nbuckets s2);
  check_int "nthreads from header" 2 (Lfset.nthreads s2);
  check_ints "contents" [ 3; 8 ] (Lfset.bindings s2)

let test_attach_rejects_garbage () =
  let arena, alloc = fresh () in
  (* never-initialised fresh space: header word durably zero *)
  let junk = Alloc.alloc_fresh ~align:64 alloc 128 in
  (match Lfset.attach alloc ~base:junk with
  | exception Lfset.Mismatch _ -> ()
  | _ -> Alcotest.fail "attach accepted a zero header");
  (* non-zero but foreign bytes *)
  Arena.nt_write arena junk 0xdeadbeefL;
  Arena.fence arena;
  match Lfset.attach alloc ~base:junk with
  | exception Lfset.Mismatch _ -> ()
  | _ -> Alcotest.fail "attach accepted a foreign header"

(* ------------------------------------------------------------------ *)
(* Concurrency (deterministic fiber scheduler)                         *)
(* ------------------------------------------------------------------ *)

let test_concurrent_disjoint () =
  let _, alloc = fresh () in
  let threads = 4 in
  let s = Lfset.create ~nbuckets:8 ~nthreads:threads alloc in
  (* Private key ranges: insert 16, remove the even half — the final
     state is exact regardless of interleaving. *)
  ignore
    (Sim_threads.run ~threads ~ops_per_thread:24 (fun t op ->
         let base = t * 100 in
         if op < 16 then ignore (Lfset.insert ~thread:t s (base + op))
         else ignore (Lfset.remove ~thread:t s (base + ((op - 16) * 2)))));
  let expect =
    List.concat_map
      (fun t -> List.filter_map
           (fun i -> if i mod 2 = 1 then Some ((t * 100) + i) else None)
           (List.init 16 (fun i -> i)))
      (List.init threads (fun t -> t))
    |> List.sort compare
  in
  check_ints "disjoint-range result" expect (Lfset.bindings s)

let test_concurrent_contended_race_free () =
  (* Overlapping keys across fibers, under the race detector: contended
     CAS chains, helping, duplicate answers — and zero reports. *)
  let rc =
    Rewind_benchlib.Race_workloads.lockfree_set ~threads:4 ~ops_per_thread:40
      ()
  in
  check_int "no race reports" 0 (List.length (Racecheck.races rc))

(* ------------------------------------------------------------------ *)
(* Crash at every persistence event (tentpole acceptance)              *)
(* ------------------------------------------------------------------ *)

(* The op sequence exercises fresh inserts, duplicate inserts, removes
   of present and absent keys, a remove that empties a bucket chain,
   and a read-only traversal. *)
let sweep_ops =
  [| `I 5; `I 1; `I 9; `I 5; `R 5; `I 3; `R 7; `R 1; `I 5 |]

(* Durable linearizability: the recovered contents are the prefix of the
   op sequence that thread 0's announcement decides, the sanitizer stays
   clean through recovery, and the recovered set stays operational. *)
let test_crash_sweep () =
  let s = Harness.every_event (Scenarios.lfset sweep_ops) in
  check_bool "sweep hit crash points" true (s.Harness.crash_points > 0)

(* Recovery unlinks marked nodes with write-backs, so it persists
   something whenever a crash leaves one; crashing it there must not
   change what a second recovery reaches. *)
let test_crash_during_recovery () =
  let s =
    Harness.during_recovery ~from:`Every_event (Scenarios.lfset sweep_ops)
      ~observe:Scenarios.lfset_bindings
  in
  check_bool "recovery persisted something to crash" true
    (s.Harness.recovery_crash_points > 0)

(* The enumerator drives the prefix claim through every fence-boundary
   *subset* of surviving dirty lines, not just whole-cache crashes. *)
let test_enumerate_prefixes () =
  let stats =
    Harness.every_fence_subset ~at_every_event:true
      (Scenarios.lfset_prefix sweep_ops)
  in
  check_bool "enumerated some states" true (stats.Enum.crash_states > 0)

(* ------------------------------------------------------------------ *)
(* Detectability without a crash                                       *)
(* ------------------------------------------------------------------ *)

let test_announcements () =
  let _, alloc = fresh () in
  let s = Lfset.create ~nbuckets:4 ~nthreads:2 alloc in
  check_bool "no announcement yet" true (Lfset.announcement s ~thread:1 = None);
  ignore (Lfset.insert ~thread:1 s 42);
  (match Lfset.announcement s ~thread:1 with
  | Some
      {
        Lfset.an_seq = 1;
        an_op = `Insert;
        an_key = 42;
        an_status = Lfset.Done true;
        _;
      } ->
      ()
  | _ -> Alcotest.fail "unexpected announcement after insert");
  check_bool "oracle: done-true" true
    (Lfset.op_took_effect s ~thread:1 = Some true);
  ignore (Lfset.insert ~thread:1 s 42);
  (match Lfset.announcement s ~thread:1 with
  | Some { Lfset.an_seq = 2; an_status = Lfset.Done false; _ } -> ()
  | _ -> Alcotest.fail "duplicate insert not announced as done-false");
  check_bool "other thread unaffected" true
    (Lfset.announcement s ~thread:0 = None)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "lfset"
    [
      ( "functional",
        [ tc "basic" `Quick test_basic; tc "many keys" `Quick test_many_keys ]
      );
      ( "attach",
        [
          tc "roundtrip" `Quick test_attach_roundtrip;
          tc "rejects garbage" `Quick test_attach_rejects_garbage;
        ] );
      ( "concurrent",
        [
          tc "disjoint ranges exact" `Quick test_concurrent_disjoint;
          tc "contended, race-free" `Quick test_concurrent_contended_race_free;
        ] );
      ( "crash",
        [
          tc "sweep every persistence event" `Slow test_crash_sweep;
          tc "enumerate line subsets" `Slow test_enumerate_prefixes;
          tc "crash during recovery" `Slow test_crash_during_recovery;
        ] );
      ("detectability", [ tc "announcements" `Quick test_announcements ]);
    ]
