(* Tests for the Atomic AVL Tree: AVL semantics, logged-write atomicity,
   crash exhaustion over insert/remove (including tree rebalancing), and
   recovery idempotence under repeated crashes. *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness
open Support

let fresh () =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  let ilog = Log.create Log.Optimized ~bucket_cap:64 alloc ~root_slot:2 in
  let idx = Avl_index.create alloc ~ilog in
  Arena.root_set arena 3 (Int64.of_int (Avl_index.root_ptr idx));
  (arena, alloc, ilog, idx)

let reattach arena =
  let alloc = Alloc.recover arena in
  let ilog = Log.attach Log.Optimized ~bucket_cap:64 alloc ~root_slot:2 in
  let root_ptr = Int64.to_int (Arena.root_get arena 3) in
  let idx = Avl_index.attach alloc ~ilog ~root_ptr in
  Avl_index.recover idx;
  idx

let check_list = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Functional behaviour                                                *)
(* ------------------------------------------------------------------ *)

let test_insert_find () =
  let _, _, _, idx = fresh () in
  List.iter (fun k -> ignore (Avl_index.insert idx k)) [ 5; 3; 8; 1; 4 ];
  check_bool "find 4" true (Avl_index.mem idx 4);
  check_bool "find 8" true (Avl_index.mem idx 8);
  check_bool "no 7" false (Avl_index.mem idx 7);
  check_list "sorted keys" [ 1; 3; 4; 5; 8 ] (Avl_index.keys idx);
  check_bool "avl invariant" true (Avl_index.well_formed idx)

let test_insert_idempotent () =
  let _, _, _, idx = fresh () in
  let a = Avl_index.insert idx 5 in
  let b = Avl_index.insert idx 5 in
  check_int "same node" a b;
  check_int "size 1" 1 (Avl_index.size idx)

let test_sequential_inserts_balance () =
  let _, _, _, idx = fresh () in
  for k = 1 to 64 do
    ignore (Avl_index.insert idx k)
  done;
  check_int "size" 64 (Avl_index.size idx);
  check_bool "balanced" true (Avl_index.well_formed idx)

let test_remove () =
  let _, _, _, idx = fresh () in
  List.iter (fun k -> ignore (Avl_index.insert idx k)) [ 5; 3; 8; 1; 4; 9; 7 ];
  check_bool "removed leaf" true (Avl_index.remove idx 1);
  check_bool "removed inner (two children)" true (Avl_index.remove idx 8);
  check_bool "removed root-ish" true (Avl_index.remove idx 5);
  check_bool "remove absent" false (Avl_index.remove idx 100);
  check_list "remaining" [ 3; 4; 7; 9 ] (Avl_index.keys idx);
  check_bool "avl invariant" true (Avl_index.well_formed idx)

let test_payload_fields () =
  let _, _, _, idx = fresh () in
  let n = Avl_index.insert idx 7 in
  Avl_index.op idx (fun () ->
      Avl_index.set_head_record idx n 4096;
      Avl_index.set_status idx n 2;
      Avl_index.set_undo_next idx n 8192);
  Alcotest.(check int) "head" 4096 (Avl_index.head_record idx n);
  Alcotest.(check int) "status" 2 (Avl_index.status idx n);
  Alcotest.(check int) "undo next" 8192 (Avl_index.undo_next idx n)

let test_internal_log_cleared_after_op () =
  let _, _, ilog, idx = fresh () in
  for k = 1 to 20 do
    ignore (Avl_index.insert idx k)
  done;
  check_int "internal log empty between ops" 0 (Log.length ilog)

(* ------------------------------------------------------------------ *)
(* Crash exhaustion                                                    *)
(* ------------------------------------------------------------------ *)

(* A tree of [keys], then [op] as the crash window; after recovery the
   tree must be well formed and either pre-op or post-op. *)
let scenario ~keys ~op ~pre ~post =
  {
    Harness.setup =
      (fun () ->
        let arena, _, _, idx = fresh () in
        List.iter (fun key -> ignore (Avl_index.insert idx key)) keys;
        (arena, idx));
    arenas = (fun (arena, _) -> [| arena |]);
    window = (fun (_, idx) -> op idx);
    recover = (fun _ arena -> reattach arena);
    check =
      (fun _ idx ->
        let ks = Avl_index.keys idx in
        if not (Avl_index.well_formed idx) then Some "AVL invariant broken"
        else if ks = pre || ks = post then None
        else
          Some (Fmt.str "unexpected keys [%a]" Fmt.(list ~sep:semi int) ks));
  }

let test_crash_insert_rebalancing () =
  (* inserting 6 into [1..5] triggers rotations *)
  ignore
    (Harness.every_event
       (scenario ~keys:[ 1; 2; 3; 4; 5 ]
          ~op:(fun idx -> ignore (Avl_index.insert idx 6))
          ~pre:[ 1; 2; 3; 4; 5 ] ~post:[ 1; 2; 3; 4; 5; 6 ]))

let test_crash_insert_empty () =
  ignore
    (Harness.every_event
       (scenario ~keys:[]
          ~op:(fun idx -> ignore (Avl_index.insert idx 1))
          ~pre:[] ~post:[ 1 ]))

let test_crash_remove_two_children () =
  ignore
    (Harness.every_event
       (scenario ~keys:[ 5; 3; 8; 1; 4; 9; 7 ]
          ~op:(fun idx -> ignore (Avl_index.remove idx 5))
          ~pre:[ 1; 3; 4; 5; 7; 8; 9 ] ~post:[ 1; 3; 4; 7; 8; 9 ]))

let test_crash_remove_with_recovery_crashes () =
  ignore
    (Harness.recovery_chain ~from:`Every_event
       (scenario ~keys:[ 2; 1; 3 ]
          ~op:(fun idx -> ignore (Avl_index.remove idx 2))
          ~pre:[ 1; 2; 3 ] ~post:[ 1; 3 ]))

let test_crash_insert_with_recovery_crashes () =
  ignore
    (Harness.recovery_chain ~from:`Every_event
       (scenario ~keys:[ 2; 1; 3 ]
          ~op:(fun idx -> ignore (Avl_index.insert idx 4))
          ~pre:[ 1; 2; 3 ] ~post:[ 1; 2; 3; 4 ]))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_model =
  QCheck.Test.make ~name:"AAVLT matches a set model" ~count:100
    QCheck.(list (pair bool (int_bound 50)))
    (fun ops ->
      let _, _, _, idx = fresh () in
      let model = ref [] in
      List.iter
        (fun (ins, k) ->
          if ins then begin
            ignore (Avl_index.insert idx k);
            if not (List.mem k !model) then model := k :: !model
          end
          else begin
            ignore (Avl_index.remove idx k);
            model := List.filter (fun x -> x <> k) !model
          end)
        ops;
      Avl_index.keys idx = List.sort compare !model && Avl_index.well_formed idx)

let prop_crash_random =
  QCheck.Test.make ~name:"AAVLT survives random crash points" ~count:150
    QCheck.(pair (int_bound 600) (list_of_size (Gen.int_range 1 25) (int_bound 40)))
    (fun (crash_after, keys) ->
      let ops idx =
        List.iter
          (fun k ->
            ignore (Avl_index.insert idx k);
            if k mod 3 = 0 then ignore (Avl_index.remove idx k))
          keys
      in
      let s = scenario ~keys:[] ~op:ops ~pre:[] ~post:[] in
      let well_formed _ idx =
        if Avl_index.well_formed idx then None else Some "AVL invariant broken"
      in
      ignore (Harness.crash_once { s with check = well_formed } ~after:crash_after);
      true)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "avl"
    [
      ( "functional",
        [
          tc "insert/find" `Quick test_insert_find;
          tc "insert idempotent" `Quick test_insert_idempotent;
          tc "sequential inserts balance" `Quick test_sequential_inserts_balance;
          tc "remove" `Quick test_remove;
          tc "payload fields" `Quick test_payload_fields;
          tc "internal log cleared" `Quick test_internal_log_cleared_after_op;
        ] );
      ( "crash-exhaustion",
        [
          tc "insert with rebalancing" `Slow test_crash_insert_rebalancing;
          tc "insert into empty" `Quick test_crash_insert_empty;
          tc "remove two children" `Slow test_crash_remove_two_children;
          tc "remove + recovery crashes" `Quick test_crash_remove_with_recovery_crashes;
          tc "insert + recovery crashes" `Quick test_crash_insert_with_recovery_crashes;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_crash_random;
        ] );
    ]
