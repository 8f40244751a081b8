(* Atomic Doubly-Linked List tests: functional behaviour plus exhaustive
   crash-point enumeration of Algorithm 1's append/remove windows —
   including crashes *during recovery* (repeated-redo safety). *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness
open Support

let fresh () =
  let arena = Arena.create ~size_bytes:(1 lsl 20) () in
  let alloc = Alloc.create arena in
  (arena, alloc)

let check_list = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Functional behaviour                                                *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let _, alloc = fresh () in
  let l = Adll.create alloc in
  check_bool "empty" true (Adll.is_empty l);
  check_int "length" 0 (Adll.length l);
  check_list "elements" [] (Adll.elements l)

let test_append_order () =
  let _, alloc = fresh () in
  let l = Adll.create alloc in
  List.iter (fun e -> ignore (Adll.append l e)) [ 10; 20; 30 ];
  check_list "fifo order" [ 10; 20; 30 ] (Adll.elements l);
  check_int "length" 3 (Adll.length l);
  check_bool "well formed" true (Adll.well_formed l)

let test_remove_middle () =
  let _, alloc = fresh () in
  let l = Adll.create alloc in
  let _ = Adll.append l 1 in
  let n2 = Adll.append l 2 in
  let _ = Adll.append l 3 in
  Adll.remove l n2;
  check_list "middle removed" [ 1; 3 ] (Adll.elements l);
  check_bool "well formed" true (Adll.well_formed l)

let test_remove_head_tail () =
  let _, alloc = fresh () in
  let l = Adll.create alloc in
  let n1 = Adll.append l 1 in
  let _ = Adll.append l 2 in
  let n3 = Adll.append l 3 in
  Adll.remove l n1;
  check_list "head removed" [ 2; 3 ] (Adll.elements l);
  Adll.remove l n3;
  check_list "tail removed" [ 2 ] (Adll.elements l);
  check_bool "well formed" true (Adll.well_formed l)

let test_remove_only_node () =
  let _, alloc = fresh () in
  let l = Adll.create alloc in
  let n = Adll.append l 7 in
  Adll.remove l n;
  check_bool "empty again" true (Adll.is_empty l);
  check_bool "well formed" true (Adll.well_formed l)

let test_iter_back () =
  let _, alloc = fresh () in
  let l = Adll.create alloc in
  List.iter (fun e -> ignore (Adll.append l e)) [ 1; 2; 3 ];
  let acc = ref [] in
  Adll.iter_back l (fun n -> acc := Adll.element l n :: !acc);
  check_list "backward order reversed back" [ 1; 2; 3 ] !acc

let test_reattach_without_crash () =
  let _, alloc = fresh () in
  let l = Adll.create alloc in
  List.iter (fun e -> ignore (Adll.append l e)) [ 4; 5 ];
  let l2 = Adll.attach alloc ~base:(Adll.base l) in
  check_list "same content" [ 4; 5 ] (Adll.elements l2)

(* ------------------------------------------------------------------ *)
(* Crash exhaustion                                                    *)
(* ------------------------------------------------------------------ *)

(* A list of [n] elements, then [op] as the crash window; recovery must
   leave a well-formed list holding one of the [valid] outcomes. *)
let scenario ?(n = 3) ~op ~valid () =
  {
    Harness.setup =
      (fun () ->
        let arena, alloc = fresh () in
        let l = Adll.create alloc in
        (arena, l, List.init n (fun i -> Adll.append l (i + 1))));
    arenas = (fun (arena, _, _) -> [| arena |]);
    window = (fun (_, l, nodes) -> op l nodes);
    recover =
      (fun (_, l, _) _ ->
        Adll.recover l;
        l);
    check =
      (fun _ l ->
        let elems = Adll.elements l in
        if not (Adll.well_formed l) then Some "list not well formed"
        else if List.mem elems valid then None
        else
          Some
            (Fmt.str "unexpected elements [%a]" Fmt.(list ~sep:semi int) elems));
  }

let append_99 l _ = ignore (Adll.append l 99)
let remove_nth i l nodes = Adll.remove l (List.nth nodes i)

let test_crash_append () =
  let s =
    Harness.every_event
      (scenario ~op:append_99 ~valid:[ [ 1; 2; 3 ]; [ 1; 2; 3; 99 ] ] ())
  in
  check_bool "several crash points exercised" true (s.Harness.crash_points >= 3)

let test_crash_append_empty_list () =
  ignore
    (Harness.every_event (scenario ~n:0 ~op:append_99 ~valid:[ []; [ 99 ] ] ()))

let test_crash_remove_middle () =
  ignore
    (Harness.every_event
       (scenario ~op:(remove_nth 1) ~valid:[ [ 1; 2; 3 ]; [ 1; 3 ] ] ()))

let test_crash_remove_head () =
  ignore
    (Harness.every_event
       (scenario ~op:(remove_nth 0) ~valid:[ [ 1; 2; 3 ]; [ 2; 3 ] ] ()))

let test_crash_remove_tail () =
  ignore
    (Harness.every_event
       (scenario ~op:(remove_nth 2) ~valid:[ [ 1; 2; 3 ]; [ 1; 2 ] ] ()))

let test_crash_remove_only () =
  ignore
    (Harness.every_event (scenario ~n:1 ~op:(remove_nth 0) ~valid:[ [ 1 ]; [] ] ()))

(* Crashes during recovery of a crashed append/remove: recovery must be
   re-runnable any number of times (redo-idempotence, Section 3.2). *)
let test_crash_during_recovery_append () =
  ignore
    (Harness.recovery_chain ~from:`Every_event
       (scenario ~n:2 ~op:append_99 ~valid:[ [ 1; 2 ]; [ 1; 2; 99 ] ] ()))

let test_crash_during_recovery_remove () =
  ignore
    (Harness.recovery_chain ~from:`Every_event
       (scenario ~op:(remove_nth 1) ~valid:[ [ 1; 2; 3 ]; [ 1; 3 ] ] ()))

(* Recovery on a quiescent list must be a no-op. *)
let test_recover_noop () =
  let arena, l, _ = (scenario ~op:append_99 ~valid:[] ()).Harness.setup () in
  Arena.crash arena;
  Adll.recover l;
  check_list "unchanged" [ 1; 2; 3 ] (Adll.elements l)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random op sequences against a model list. *)
let prop_model =
  QCheck.Test.make ~name:"ADLL matches model list" ~count:200
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let _, alloc = fresh () in
      let l = Adll.create alloc in
      let model = ref [] and nodes = ref [] in
      List.iter
        (fun (is_append, v) ->
          if is_append || !nodes = [] then begin
            let n = Adll.append l v in
            model := !model @ [ v ];
            nodes := !nodes @ [ (n, v) ]
          end
          else begin
            let i = v mod List.length !nodes in
            let n, value = List.nth !nodes i in
            Adll.remove l n;
            nodes := List.filteri (fun j _ -> j <> i) !nodes;
            let removed = ref false in
            model :=
              List.filter
                (fun x ->
                  if (not !removed) && x = value then begin
                    removed := true;
                    false
                  end
                  else true)
                !model
          end)
        ops;
      Adll.elements l = List.map snd !nodes && Adll.well_formed l)

(* Random crash point inside a random op sequence: after recovery the list
   must be well-formed and hold a prefix-consistent state. *)
let prop_crash_any_point =
  QCheck.Test.make ~name:"ADLL recovery from random crash points" ~count:300
    QCheck.(pair (int_bound 200) (int_range 1 20))
    (fun (crash_after, n_ops) ->
      let ops l _ =
        for i = 1 to n_ops do
          let n = Adll.append l i in
          if i mod 3 = 0 then Adll.remove l n
        done
      in
      let s = scenario ~n:0 ~op:ops ~valid:[] () in
      ignore
        (Harness.crash_once
           {
             s with
             check =
               (fun _ l -> if Adll.well_formed l then None else Some "malformed");
           }
           ~after:crash_after);
      true)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "adll"
    [
      ( "functional",
        [
          tc "empty" `Quick test_empty;
          tc "append order" `Quick test_append_order;
          tc "remove middle" `Quick test_remove_middle;
          tc "remove head/tail" `Quick test_remove_head_tail;
          tc "remove only node" `Quick test_remove_only_node;
          tc "iter back" `Quick test_iter_back;
          tc "reattach" `Quick test_reattach_without_crash;
        ] );
      ( "crash-exhaustion",
        [
          tc "append" `Quick test_crash_append;
          tc "append to empty" `Quick test_crash_append_empty_list;
          tc "remove middle" `Quick test_crash_remove_middle;
          tc "remove head" `Quick test_crash_remove_head;
          tc "remove tail" `Quick test_crash_remove_tail;
          tc "remove only" `Quick test_crash_remove_only;
          tc "recovery crash (append)" `Quick test_crash_during_recovery_append;
          tc "recovery crash (remove)" `Quick test_crash_during_recovery_remove;
          tc "recover is noop when quiescent" `Quick test_recover_noop;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_crash_any_point;
        ] );
    ]
