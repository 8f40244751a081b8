(* Tests for the persistent data structures: B+-tree (all three
   persistence modes), the paper's doubly-linked list, the hash table —
   functional behaviour against models, structural invariants, and crash
   recovery with REWIND logging. *)

open Rewind_nvm
open Rewind
open Rewind_pds
module Harness = Rewind_analysis.Crash_harness

let root_slot = 2

let fresh_tm ?(cfg = Rewind.config_1l_nfp) ?(size = 32 lsl 20) () =
  let arena = Arena.create ~size_bytes:size () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  (arena, alloc, tm)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64o = Alcotest.(check (option int64))

(* ------------------------------------------------------------------ *)
(* B+-tree: functional                                                 *)
(* ------------------------------------------------------------------ *)

let modes arena_alloc_tm =
  let _, _, tm = arena_alloc_tm in
  [ ("dram", Btree.Dram); ("nvm", Btree.Direct_nvm); ("logged", Btree.Logged tm) ]

let test_btree_basic mode () =
  let ((_, alloc, tm) as ctx) = fresh_tm () in
  let mode = List.assoc mode (modes ctx) in
  let bt = Btree.create mode alloc in
  let txn = Tm.begin_txn tm in
  for k = 1 to 100 do
    Btree.insert bt txn (Int64.of_int k) (Int64.of_int (k * 10))
  done;
  Tm.commit tm txn;
  check_i64o "lookup 50" (Some 500L) (Btree.lookup bt 50L);
  check_i64o "lookup absent" None (Btree.lookup bt 101L);
  check_int "size" 100 (Btree.size bt);
  check_bool "well formed" true (Btree.well_formed bt)

let test_btree_update_in_place () =
  let _, alloc, tm = fresh_tm () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      Btree.insert bt txn 5L 1L;
      Btree.insert bt txn 5L 2L);
  check_i64o "updated" (Some 2L) (Btree.lookup bt 5L);
  check_int "still one key" 1 (Btree.size bt)

let test_btree_reverse_and_random_order () =
  let _, alloc, tm = fresh_tm () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  let keys = [ 50; 10; 90; 30; 70; 20; 80; 40; 60; 100; 5; 95; 15; 85 ] in
  Tm.atomically tm (fun txn ->
      List.iter (fun k -> Btree.insert bt txn (Int64.of_int k) (Int64.of_int k)) keys);
  Alcotest.(check (list int64))
    "sorted iteration"
    (List.map Int64.of_int (List.sort compare keys))
    (List.map fst (Btree.bindings bt));
  check_bool "well formed" true (Btree.well_formed bt)

let test_btree_delete () =
  let _, alloc, tm = fresh_tm () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      for k = 1 to 200 do
        Btree.insert bt txn (Int64.of_int k) (Int64.of_int k)
      done);
  Tm.atomically tm (fun txn ->
      for k = 1 to 200 do
        if k mod 2 = 0 then check_bool "deleted" true (Btree.delete bt txn (Int64.of_int k))
      done);
  check_int "half left" 100 (Btree.size bt);
  check_i64o "odd key stays" (Some 55L) (Btree.lookup bt 55L);
  check_i64o "even key gone" None (Btree.lookup bt 56L);
  check_bool "well formed after deletions" true (Btree.well_formed bt)

let test_btree_delete_everything () =
  let _, alloc, tm = fresh_tm () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      for k = 1 to 100 do
        Btree.insert bt txn (Int64.of_int k) 0L
      done);
  Tm.atomically tm (fun txn ->
      for k = 100 downto 1 do
        ignore (Btree.delete bt txn (Int64.of_int k))
      done);
  check_int "empty" 0 (Btree.size bt);
  check_bool "well formed when empty" true (Btree.well_formed bt);
  (* refill after total deletion *)
  Tm.atomically tm (fun txn -> Btree.insert bt txn 7L 7L);
  check_i64o "usable again" (Some 7L) (Btree.lookup bt 7L)

let test_btree_delete_absent () =
  let _, alloc, tm = fresh_tm () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      Btree.insert bt txn 1L 1L;
      check_bool "absent delete is false" false (Btree.delete bt txn 9L))

(* ------------------------------------------------------------------ *)
(* B+-tree: transactional semantics                                    *)
(* ------------------------------------------------------------------ *)

let test_btree_rollback () =
  let _, alloc, tm = fresh_tm () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      for k = 1 to 50 do
        Btree.insert bt txn (Int64.of_int k) (Int64.of_int k)
      done);
  let before = Btree.bindings bt in
  let txn = Tm.begin_txn tm in
  for k = 51 to 80 do
    Btree.insert bt txn (Int64.of_int k) (Int64.of_int k)
  done;
  for k = 1 to 10 do
    ignore (Btree.delete bt txn (Int64.of_int k))
  done;
  Tm.rollback tm txn;
  Alcotest.(check (list (pair int64 int64))) "state restored" before (Btree.bindings bt);
  check_bool "well formed after rollback" true (Btree.well_formed bt)

(* A logged B+-tree on a fresh manager, [prepare]d in one transaction
   when given. *)
let btree_world ~cfg ~size prepare =
  let arena, alloc, tm = fresh_tm ~cfg ~size () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Option.iter (fun p -> Tm.atomically tm (fun txn -> p bt txn)) prepare;
  (arena, tm, bt)

(* [window] on a prepared tree; recovery reattaches it. *)
let btree_scenario ~cfg ~size ?prepare ~window ~check () =
  {
    Harness.setup = (fun () -> btree_world ~cfg ~size prepare);
    arenas = (fun (arena, _, _) -> [| arena |]);
    window;
    recover =
      (fun (_, _, bt) arena ->
        let alloc2 = Alloc.recover arena in
        let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
        Btree.attach (Btree.Logged tm2) alloc2 ~root_cell:(Btree.root_cell bt));
    check;
  }

let test_btree_crash_recovery cfg () =
  let arena, alloc, tm = fresh_tm ~cfg () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      for k = 1 to 60 do
        Btree.insert bt txn (Int64.of_int k) (Int64.of_int (k * 2))
      done);
  let committed = Btree.bindings bt in
  (* an uncommitted transaction in flight *)
  let txn = Tm.begin_txn tm in
  for k = 61 to 90 do
    Btree.insert bt txn (Int64.of_int k) 0L
  done;
  ignore (Btree.delete bt txn 5L);
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  let bt2 = Btree.attach (Btree.Logged tm2) alloc2 ~root_cell:(Btree.root_cell bt) in
  Alcotest.(check (list (pair int64 int64)))
    "committed state recovered" committed (Btree.bindings bt2);
  check_bool "well formed after recovery" true (Btree.well_formed bt2)

let prop_btree_random_crash cfg =
  QCheck.Test.make
    ~name:(Fmt.str "btree crash consistency [%a]" Tm.pp_config cfg)
    ~count:60
    QCheck.(pair (int_bound 8000) (int_range 1 8))
    (fun (crash_after, txn_count) ->
      let committed = Hashtbl.create 64 in
      let maybe = Hashtbl.create 64 in
      let window (_, tm, bt) =
        Hashtbl.reset committed;
        for tno = 1 to txn_count do
          let txn = Tm.begin_txn tm in
          let mine = ref [] in
          for i = 1 to 10 do
            let k = Int64.of_int (((tno * 31) + (i * 7)) mod 97) in
            let v = Int64.of_int ((tno * 1000) + i) in
            Btree.insert bt txn k v;
            mine := (k, v) :: !mine
          done;
          Hashtbl.reset maybe;
          List.iter (fun (k, v) -> Hashtbl.replace maybe k v) !mine;
          Tm.commit tm txn;
          Hashtbl.reset maybe;
          List.iter (fun (k, v) -> Hashtbl.replace committed k v) !mine
        done
      in
      let check _ bt2 =
        let expect_with extra =
          let m = Hashtbl.copy committed in
          Hashtbl.iter (fun k v -> Hashtbl.replace m k v) extra;
          m
        in
        let matches m =
          Hashtbl.fold (fun k v acc -> acc && Btree.lookup bt2 k = Some v) m true
          && Btree.size bt2 = Hashtbl.length m
        in
        if not (Btree.well_formed bt2) then Some "tree not well formed"
        else if matches committed || matches (expect_with maybe) then None
        else Some "neither the committed nor the in-flight state"
      in
      ignore
        (Harness.crash_once ~after:crash_after
           (btree_scenario ~cfg ~size:(32 lsl 20) ~window ~check ()));
      true)

(* ------------------------------------------------------------------ *)
(* B+-tree: exhaustive crash points over structure-changing operations *)
(* ------------------------------------------------------------------ *)

(* Every crash point of one operation on a prepared tree; after recovery
   the tree must hold either the before- or after-state. *)
let exhaust_btree ~prepare ~op () =
  let states =
    (* learn the before- and post-state on a shadow tree *)
    let _, tm, sh =
      btree_world ~cfg:Rewind.config_1l_nfp ~size:(16 lsl 20) (Some prepare)
    in
    let before = Btree.bindings sh in
    Tm.atomically tm (fun txn -> op sh txn);
    [ before; Btree.bindings sh ]
  in
  ignore
    (Harness.every_event
       (btree_scenario ~cfg:Rewind.config_1l_nfp ~size:(16 lsl 20) ~prepare
          ~window:(fun (_, tm, bt) -> Tm.atomically tm (fun txn -> op bt txn))
          ~check:(fun _ bt2 ->
            if not (Btree.well_formed bt2) then Some "tree invariant broken"
            else if List.mem (Btree.bindings bt2) states then None
            else
              Some
                (Fmt.str "neither before- nor after-state (%d keys)"
                   (Btree.size bt2)))
          ()))

(* Insert that splits a leaf and propagates to the root. *)
let test_crash_insert_split () =
  exhaust_btree
    ~prepare:(fun bt txn ->
      for i = 1 to 15 do
        Btree.insert bt txn (Int64.of_int (i * 10)) (Int64.of_int i)
      done)
    ~op:(fun bt txn -> Btree.insert bt txn 85L 99L)
    ()

(* Delete that merges leaves and shrinks the root. *)
let test_crash_delete_merge () =
  exhaust_btree
    ~prepare:(fun bt txn ->
      for i = 1 to 12 do
        Btree.insert bt txn (Int64.of_int i) (Int64.of_int i)
      done;
      for i = 5 to 8 do
        ignore (Btree.delete bt txn (Int64.of_int i))
      done)
    ~op:(fun bt txn ->
      ignore (Btree.delete bt txn 1L);
      ignore (Btree.delete bt txn 2L))
    ()

(* Delete that borrows from a sibling. *)
let test_crash_delete_borrow () =
  exhaust_btree
    ~prepare:(fun bt txn ->
      for i = 1 to 20 do
        Btree.insert bt txn (Int64.of_int i) (Int64.of_int i)
      done)
    ~op:(fun bt txn ->
      ignore (Btree.delete bt txn 8L);
      ignore (Btree.delete bt txn 9L);
      ignore (Btree.delete bt txn 10L))
    ()

(* Phash chain updates under exhaustive crash points. *)
let test_crash_phash_ops () =
  let before =
    List.init 8 (fun i -> (Int64.of_int (i + 1), Int64.of_int (i + 1)))
  in
  let after =
    ((1L, 100L) :: List.filteri (fun i _ -> i <> 0 && i <> 2) before)
    @ [ (9L, 9L) ]
    |> List.sort compare
  in
  ignore
    (Harness.every_event
       {
         Harness.setup =
           (fun () ->
             let arena, alloc, tm = fresh_tm ~size:(16 lsl 20) () in
             let h = Phash.create ~nbuckets:2 tm alloc in
             Tm.atomically tm (fun txn ->
                 List.iter (fun (k, v) -> Phash.put h txn k v) before);
             (arena, tm, h));
         arenas = (fun (arena, _, _) -> [| arena |]);
         window =
           (fun (_, tm, h) ->
             Tm.atomically tm (fun txn ->
                 Phash.put h txn 9L 9L;
                 ignore (Phash.remove h txn 3L);
                 Phash.put h txn 1L 100L));
         recover =
           (fun (_, _, h) arena ->
             let alloc2 = Alloc.recover arena in
             let tm2 = Tm.attach ~cfg:Rewind.config_1l_nfp alloc2 ~root_slot in
             Phash.bindings
               (Phash.attach ~nbuckets:2 tm2 alloc2 ~dir:(Phash.dir h)));
         check =
           (fun _ got ->
             if got = List.sort compare before || got = after then None
             else Some "torn hash state");
       })

(* ------------------------------------------------------------------ *)
(* B+-tree vs model property                                           *)
(* ------------------------------------------------------------------ *)

module IM = Map.Make (Int64)

let prop_btree_model =
  QCheck.Test.make ~name:"btree matches map model" ~count:60
    QCheck.(list (pair bool (int_bound 200)))
    (fun ops ->
      let _, alloc, tm = fresh_tm () in
      let bt = Btree.create (Btree.Logged tm) alloc in
      let model = ref IM.empty in
      Tm.atomically tm (fun txn ->
          List.iter
            (fun (ins, k) ->
              let k = Int64.of_int k in
              if ins then begin
                Btree.insert bt txn k (Int64.mul k 3L);
                model := IM.add k (Int64.mul k 3L) !model
              end
              else begin
                ignore (Btree.delete bt txn k);
                model := IM.remove k !model
              end)
            ops);
      Btree.bindings bt = IM.bindings !model && Btree.well_formed bt)

(* ------------------------------------------------------------------ *)
(* Plist (the paper's Listings 1/2)                                    *)
(* ------------------------------------------------------------------ *)

let test_plist_basic () =
  let _, alloc, tm = fresh_tm () in
  let l = Plist.create tm alloc in
  Tm.atomically tm (fun txn ->
      ignore (Plist.push_back l txn 1L);
      ignore (Plist.push_back l txn 2L);
      ignore (Plist.push_back l txn 3L));
  Alcotest.(check (list int64)) "contents" [ 1L; 2L; 3L ] (Plist.to_list l);
  check_bool "well formed" true (Plist.well_formed l)

let test_plist_remove () =
  let _, alloc, tm = fresh_tm () in
  let l = Plist.create tm alloc in
  let n2 = ref 0 in
  Tm.atomically tm (fun txn ->
      ignore (Plist.push_back l txn 1L);
      n2 := Plist.push_back l txn 2L;
      ignore (Plist.push_back l txn 3L));
  Tm.atomically tm (fun txn -> Plist.remove l txn !n2);
  Alcotest.(check (list int64)) "removed" [ 1L; 3L ] (Plist.to_list l);
  check_bool "well formed" true (Plist.well_formed l)

let test_plist_remove_rollback () =
  let _, alloc, tm = fresh_tm () in
  let l = Plist.create tm alloc in
  let n2 = ref 0 in
  Tm.atomically tm (fun txn ->
      ignore (Plist.push_back l txn 1L);
      n2 := Plist.push_back l txn 2L;
      ignore (Plist.push_back l txn 3L));
  let txn = Tm.begin_txn tm in
  Plist.remove l txn !n2;
  Tm.rollback tm txn;
  Alcotest.(check (list int64)) "restored" [ 1L; 2L; 3L ] (Plist.to_list l);
  check_bool "well formed" true (Plist.well_formed l)

let test_plist_crash () =
  let cfg = Rewind.config_1l_nfp in
  let arena, alloc, tm = fresh_tm ~cfg () in
  let l = Plist.create tm alloc in
  Tm.atomically tm (fun txn ->
      ignore (Plist.push_back l txn 10L);
      ignore (Plist.push_back l txn 20L));
  (* uncommitted removal + append in flight *)
  let txn = Tm.begin_txn tm in
  let n = Plist.find l 10L in
  Plist.remove l txn n;
  ignore (Plist.push_back l txn 30L);
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  let l2 =
    Plist.attach tm2 alloc2 ~head_cell:(Plist.head_cell l)
      ~tail_cell:(Plist.tail_cell l)
  in
  Alcotest.(check (list int64)) "committed list recovered" [ 10L; 20L ]
    (Plist.to_list l2);
  check_bool "well formed" true (Plist.well_formed l2)

(* ------------------------------------------------------------------ *)
(* Phash                                                               *)
(* ------------------------------------------------------------------ *)

let test_phash_basic () =
  let _, alloc, tm = fresh_tm () in
  let h = Phash.create ~nbuckets:16 tm alloc in
  Tm.atomically tm (fun txn ->
      for k = 1 to 100 do
        Phash.put h txn (Int64.of_int k) (Int64.of_int (k * k))
      done);
  check_i64o "lookup" (Some 49L) (Phash.lookup h 7L);
  check_int "size" 100 (Phash.size h);
  Tm.atomically tm (fun txn ->
      check_bool "remove" true (Phash.remove h txn 7L);
      Phash.put h txn 3L 999L);
  check_i64o "removed" None (Phash.lookup h 7L);
  check_i64o "updated" (Some 999L) (Phash.lookup h 3L)

let test_phash_rollback () =
  let _, alloc, tm = fresh_tm () in
  let h = Phash.create ~nbuckets:4 tm alloc in
  Tm.atomically tm (fun txn -> Phash.put h txn 1L 1L);
  let txn = Tm.begin_txn tm in
  Phash.put h txn 2L 2L;
  ignore (Phash.remove h txn 1L);
  Tm.rollback tm txn;
  check_i64o "1 restored" (Some 1L) (Phash.lookup h 1L);
  check_i64o "2 undone" None (Phash.lookup h 2L)

let test_phash_crash () =
  let cfg = Rewind.config_1l_fp in
  let arena, alloc, tm = fresh_tm ~cfg () in
  let h = Phash.create ~nbuckets:8 tm alloc in
  Tm.atomically tm (fun txn ->
      for k = 1 to 30 do
        Phash.put h txn (Int64.of_int k) (Int64.of_int k)
      done);
  let txn = Tm.begin_txn tm in
  Phash.put h txn 99L 99L;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  let h2 = Phash.attach ~nbuckets:8 tm2 alloc2 ~dir:(Phash.dir h) in
  check_int "30 committed entries" 30 (Phash.size h2);
  check_i64o "uncommitted gone" None (Phash.lookup h2 99L)

(* Regression for the reattach-corruption bug: [attach] used to trust
   the caller's [nbuckets] (defaulting to 256), so reattaching a table
   created with any other count rehashed every key into the wrong chain
   and lookups silently returned [None].  The bucket count now lives in
   a durable header word; this attach-with-no-hint fails on the old
   code. *)
let test_phash_attach_header () =
  let cfg = Rewind.config_1l_fp in
  let arena, alloc, tm = fresh_tm ~cfg () in
  let h = Phash.create ~nbuckets:8 tm alloc in
  Tm.atomically tm (fun txn ->
      for k = 1 to 30 do
        Phash.put h txn (Int64.of_int k) (Int64.of_int (k * k))
      done);
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  let h2 = Phash.attach tm2 alloc2 ~dir:(Phash.dir h) in
  check_int "size without nbuckets hint" 30 (Phash.size h2);
  check_i64o "lookup without nbuckets hint" (Some 49L) (Phash.lookup h2 7L);
  (* A contradicting hint must fail loudly, never silently rehash. *)
  (match Phash.attach ~nbuckets:64 tm2 alloc2 ~dir:(Phash.dir h) with
  | exception Phash.Mismatch _ -> ()
  | _ -> Alcotest.fail "attach accepted a contradicting bucket count");
  (* A matching hint still works. *)
  let h3 = Phash.attach ~nbuckets:8 tm2 alloc2 ~dir:(Phash.dir h) in
  check_int "size with matching hint" 30 (Phash.size h3)

let test_phash_attach_garbage () =
  let _, alloc, tm = fresh_tm () in
  (* Durably-zero fresh space: there is no table here. *)
  let junk = Alloc.alloc_fresh ~align:8 alloc 64 in
  match Phash.attach tm alloc ~dir:junk with
  | exception Phash.Mismatch _ -> ()
  | _ -> Alcotest.fail "attach accepted a never-created directory"

(* ------------------------------------------------------------------ *)
(* Pqueue / Plist: crash at every persistence event                    *)
(* ------------------------------------------------------------------ *)

let sweep_configs =
  [
    ("1l-nfp", Rewind.config_1l_nfp);
    ("1l-fp", Rewind.config_1l_fp);
    ("2l-nfp", Rewind.config_2l_nfp);
    ("batch8", Rewind.config_batch ());
  ]

(* Generic sweep: [workload tm x] runs committed transactions against a
   freshly created structure [x]; [reattach x tm2 alloc2] rebuilds it on
   the crashed arena and reports whether it is well formed; [legal] lists
   every committed boundary state.  With the batch config a committed
   transaction may still be in an unpersisted group, so recovery may land
   on *any* boundary, not just the latest — the check is membership, not
   equality. *)
let sweep_structure ~cfg ~create ~workload ~reattach ~legal () =
  let s =
    Harness.every_event
      {
        Harness.setup =
          (fun () ->
            let arena, alloc, tm = fresh_tm ~cfg ~size:(8 lsl 20) () in
            (arena, tm, create tm alloc));
        arenas = (fun (arena, _, _) -> [| arena |]);
        window = (fun (_, tm, x) -> workload tm x);
        recover =
          (fun (_, _, x) arena ->
            let alloc2 = Alloc.recover arena in
            reattach x (Tm.attach ~cfg alloc2 ~root_slot) alloc2);
        check =
          (fun _ (well_formed, got) ->
            if not well_formed then Some "recovered structure malformed"
            else if List.mem got legal then None
            else
              Some
                (Fmt.str "recovered %a, not a committed boundary"
                   Fmt.(list ~sep:semi int64)
                   got));
      }
  in
  Alcotest.(check bool) "sweep hit crash points" true (s.Harness.crash_points > 0)

(* FIFO queue drained to empty and refilled: the boundary states include
   the tricky dequeue-to-empty transition (tail cell must fold back). *)
let test_pqueue_crash_sweep (_, cfg) () =
  sweep_structure ~cfg
    ~create:(fun tm alloc -> Pqueue.create tm alloc)
    ~workload:(fun tm q ->
      Tm.atomically tm (fun txn ->
          Pqueue.enqueue q txn 1L;
          Pqueue.enqueue q txn 2L);
      Tm.atomically tm (fun txn -> ignore (Pqueue.dequeue q txn));
      Tm.atomically tm (fun txn -> ignore (Pqueue.dequeue q txn));
      Tm.atomically tm (fun txn -> Pqueue.enqueue q txn 3L))
    ~reattach:(fun q tm2 alloc2 ->
      let q2 =
        Pqueue.attach tm2 alloc2 ~head_cell:(Pqueue.head_cell q)
          ~tail_cell:(Pqueue.tail_cell q)
      in
      (Pqueue.well_formed q2, Pqueue.to_list q2))
    ~legal:[ []; [ 1L; 2L ]; [ 2L ]; [ 3L ] ]
    ()

(* Doubly-linked list shrunk node by node: the second remove unlinks the
   only remaining node (head and tail cells both rewritten). *)
let test_plist_crash_sweep (_, cfg) () =
  sweep_structure ~cfg
    ~create:(fun tm alloc -> Plist.create tm alloc)
    ~workload:(fun tm l ->
      let n10 = ref 0 and n20 = ref 0 in
      Tm.atomically tm (fun txn ->
          n10 := Plist.push_back l txn 10L;
          n20 := Plist.push_back l txn 20L);
      Tm.atomically tm (fun txn -> Plist.remove l txn !n10);
      Tm.atomically tm (fun txn -> Plist.remove l txn !n20);
      Tm.atomically tm (fun txn -> ignore (Plist.push_back l txn 30L)))
    ~reattach:(fun l tm2 alloc2 ->
      let l2 =
        Plist.attach tm2 alloc2 ~head_cell:(Plist.head_cell l)
          ~tail_cell:(Plist.tail_cell l)
      in
      (Plist.well_formed l2, Plist.to_list l2))
    ~legal:[ []; [ 10L; 20L ]; [ 20L ]; [ 30L ] ]
    ()

(* ------------------------------------------------------------------ *)
(* Ptable                                                              *)
(* ------------------------------------------------------------------ *)

let test_ptable () =
  let arena, alloc, tm = fresh_tm () in
  let tbl = Ptable.create alloc ~slots:16 in
  Tm.atomically tm (fun txn -> Ptable.set tbl tm txn 3 42L);
  Alcotest.(check int64) "set/get" 42L (Ptable.get tbl 3);
  Ptable.set_raw_nvm tbl 4 7L;
  Arena.crash arena;
  Alcotest.(check int64) "raw nvm durable" 7L (Ptable.get tbl 4)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "pds"
    [
      ( "btree-functional",
        [
          tc "basic (dram)" `Quick (test_btree_basic "dram");
          tc "basic (nvm)" `Quick (test_btree_basic "nvm");
          tc "basic (logged)" `Quick (test_btree_basic "logged");
          tc "update in place" `Quick test_btree_update_in_place;
          tc "random order" `Quick test_btree_reverse_and_random_order;
          tc "delete" `Quick test_btree_delete;
          tc "delete everything" `Quick test_btree_delete_everything;
          tc "delete absent" `Quick test_btree_delete_absent;
        ] );
      ( "btree-transactional",
        [
          tc "rollback" `Quick test_btree_rollback;
          tc "crash recovery (1L-NFP)" `Quick
            (test_btree_crash_recovery Rewind.config_1l_nfp);
          tc "crash recovery (1L-FP)" `Quick
            (test_btree_crash_recovery Rewind.config_1l_fp);
          tc "crash recovery (2L-NFP)" `Quick
            (test_btree_crash_recovery Rewind.config_2l_nfp);
          tc "crash recovery (batch)" `Quick
            (test_btree_crash_recovery
               { Rewind.config_1l_nfp with variant = Log.Batch 8 });
        ] );
      ( "btree-crash-exhaustion",
        [
          tc "insert with split" `Slow test_crash_insert_split;
          tc "delete with merge" `Slow test_crash_delete_merge;
          tc "delete with borrow" `Slow test_crash_delete_borrow;
          tc "phash chain ops" `Slow test_crash_phash_ops;
        ] );
      ( "btree-properties",
        [
          QCheck_alcotest.to_alcotest prop_btree_model;
          QCheck_alcotest.to_alcotest (prop_btree_random_crash Rewind.config_1l_nfp);
          QCheck_alcotest.to_alcotest (prop_btree_random_crash Rewind.config_1l_fp);
        ] );
      ( "plist",
        [
          tc "basic" `Quick test_plist_basic;
          tc "remove" `Quick test_plist_remove;
          tc "remove rollback" `Quick test_plist_remove_rollback;
          tc "crash" `Quick test_plist_crash;
        ] );
      ( "phash",
        [
          tc "basic" `Quick test_phash_basic;
          tc "rollback" `Quick test_phash_rollback;
          tc "crash" `Quick test_phash_crash;
          tc "attach reads header" `Quick test_phash_attach_header;
          tc "attach rejects garbage" `Quick test_phash_attach_garbage;
        ] );
      ( "crash-sweeps",
        List.concat_map
          (fun ((name, _) as c) ->
            [
              tc ("pqueue dequeue-to-empty (" ^ name ^ ")") `Slow
                (test_pqueue_crash_sweep c);
              tc ("plist remove-only-node (" ^ name ^ ")") `Slow
                (test_plist_crash_sweep c);
            ])
          sweep_configs );
      ("ptable", [ tc "basic" `Quick test_ptable ]);
    ]
