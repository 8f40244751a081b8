(* Tests for the baseline storage managers (Stasis-like / BerkeleyDB-like /
   Shore-MT-like): KV semantics, WAL durability rules, rollback, crash
   recovery, and the cost-profile ordering the evaluation relies on. *)

open Rewind_nvm
open Rewind_baselines

let systems =
  [
    ("stasis", fun () -> Paged_kv.create ~nbuckets:64 Paged_kv.stasis_profile);
    ("bdb", fun () -> Paged_kv.create ~nbuckets:64 Paged_kv.bdb_profile);
    ("shore", fun () -> Paged_kv.create ~nbuckets:64 Paged_kv.shore_profile);
  ]

let check_i64o = Alcotest.(check (option int64))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Functional                                                          *)
(* ------------------------------------------------------------------ *)

let test_put_lookup mk () =
  let kv = mk () in
  let t = Paged_kv.begin_txn kv in
  for k = 1 to 500 do
    Paged_kv.put kv t (Int64.of_int k) (Int64.of_int (k * 2))
  done;
  Paged_kv.commit kv t;
  check_i64o "found" (Some 84L) (Paged_kv.lookup kv 42L);
  check_i64o "absent" None (Paged_kv.lookup kv 1000L);
  check_int "size" 500 (Paged_kv.size kv)

let test_update_in_place mk () =
  let kv = mk () in
  let t = Paged_kv.begin_txn kv in
  Paged_kv.put kv t 7L 1L;
  Paged_kv.put kv t 7L 2L;
  Paged_kv.commit kv t;
  check_i64o "updated" (Some 2L) (Paged_kv.lookup kv 7L);
  check_int "one entry" 1 (Paged_kv.size kv)

let test_delete mk () =
  let kv = mk () in
  let t = Paged_kv.begin_txn kv in
  for k = 1 to 100 do
    Paged_kv.put kv t (Int64.of_int k) (Int64.of_int k)
  done;
  check_bool "delete" true (Paged_kv.delete kv t 50L);
  check_bool "delete absent" false (Paged_kv.delete kv t 50L);
  Paged_kv.commit kv t;
  check_i64o "gone" None (Paged_kv.lookup kv 50L);
  check_int "99 left" 99 (Paged_kv.size kv)

let test_rollback mk () =
  let kv = mk () in
  let t1 = Paged_kv.begin_txn kv in
  Paged_kv.put kv t1 1L 100L;
  Paged_kv.commit kv t1;
  let t2 = Paged_kv.begin_txn kv in
  Paged_kv.put kv t2 1L 999L;
  Paged_kv.put kv t2 2L 200L;
  ignore (Paged_kv.delete kv t2 1L);
  Paged_kv.rollback kv t2;
  check_i64o "restored" (Some 100L) (Paged_kv.lookup kv 1L);
  check_i64o "insert undone" None (Paged_kv.lookup kv 2L)

(* ------------------------------------------------------------------ *)
(* Crash & recovery                                                    *)
(* ------------------------------------------------------------------ *)

let test_committed_survives mk () =
  let kv = mk () in
  let t = Paged_kv.begin_txn kv in
  for k = 1 to 300 do
    Paged_kv.put kv t (Int64.of_int k) (Int64.of_int (k * 3))
  done;
  Paged_kv.commit kv t;
  Paged_kv.crash kv;
  Paged_kv.recover kv;
  check_i64o "durable after crash" (Some 30L) (Paged_kv.lookup kv 10L);
  check_int "size" 300 (Paged_kv.size kv)

let test_uncommitted_lost_or_undone mk () =
  let kv = mk () in
  let t1 = Paged_kv.begin_txn kv in
  Paged_kv.put kv t1 1L 11L;
  Paged_kv.commit kv t1;
  let t2 = Paged_kv.begin_txn kv in
  Paged_kv.put kv t2 1L 99L;
  Paged_kv.put kv t2 2L 22L;
  Paged_kv.crash kv;
  Paged_kv.recover kv;
  check_i64o "committed value back" (Some 11L) (Paged_kv.lookup kv 1L);
  check_i64o "uncommitted gone" None (Paged_kv.lookup kv 2L)

(* Exercise the flush path: force a page flush via checkpoint after
   committing, then crash mid-second-transaction. *)
let test_flush_then_crash mk () =
  let kv = mk () in
  let t1 = Paged_kv.begin_txn kv in
  for k = 1 to 50 do
    Paged_kv.put kv t1 (Int64.of_int k) 1L
  done;
  Paged_kv.commit kv t1;
  Paged_kv.checkpoint kv;
  let t2 = Paged_kv.begin_txn kv in
  Paged_kv.put kv t2 1L 999L;
  Paged_kv.crash kv;
  Paged_kv.recover kv;
  check_i64o "checkpointed value stands" (Some 1L) (Paged_kv.lookup kv 1L);
  check_int "size unchanged" 50 (Paged_kv.size kv)

let test_double_crash mk () =
  let kv = mk () in
  let t = Paged_kv.begin_txn kv in
  Paged_kv.put kv t 5L 50L;
  Paged_kv.commit kv t;
  Paged_kv.crash kv;
  Paged_kv.recover kv;
  Paged_kv.crash kv;
  Paged_kv.recover kv;
  check_i64o "still there" (Some 50L) (Paged_kv.lookup kv 5L)

let test_overflow_chains_survive mk () =
  (* few buckets + many keys forces overflow pages; the allocation
     high-water mark must be rediscovered at recovery *)
  let kv = mk () in
  let t = Paged_kv.begin_txn kv in
  for k = 1 to 2000 do
    Paged_kv.put kv t (Int64.of_int k) (Int64.of_int k)
  done;
  Paged_kv.commit kv t;
  Paged_kv.checkpoint kv;
  Paged_kv.crash kv;
  Paged_kv.recover kv;
  check_int "all entries" 2000 (Paged_kv.size kv);
  (* further inserts must not corrupt existing chains *)
  let t2 = Paged_kv.begin_txn kv in
  for k = 2001 to 2200 do
    Paged_kv.put kv t2 (Int64.of_int k) (Int64.of_int k)
  done;
  Paged_kv.commit kv t2;
  check_int "grown" 2200 (Paged_kv.size kv)

(* ------------------------------------------------------------------ *)
(* Cost-shape sanity                                                   *)
(* ------------------------------------------------------------------ *)

(* The per-update cost ordering the paper's Figure 7 relies on: every
   baseline is at least an order of magnitude slower than an unlogged
   NVM store. *)
let test_baselines_expensive () =
  let cost mk =
    let kv = mk () in
    Clock.reset ();
    for k = 1 to 200 do
      let t = Paged_kv.begin_txn kv in
      Paged_kv.put kv t (Int64.of_int k) 1L;
      Paged_kv.commit kv t
    done;
    Clock.now () / 200
  in
  List.iter
    (fun (name, mk) ->
      let c = cost mk in
      if c < 5000 then
        Alcotest.failf "%s: per-txn cost %dns unexpectedly low" name c)
    systems

(* Shore's in-memory undo buffers make rollback much cheaper than the
   device-walking systems. *)
let test_rollback_cost_ordering () =
  let cost mk =
    let kv = mk () in
    (* populate + a long log tail on the device *)
    let t0 = Paged_kv.begin_txn kv in
    for k = 1 to 1000 do
      Paged_kv.put kv t0 (Int64.of_int k) 1L
    done;
    Paged_kv.commit kv t0;
    let t = Paged_kv.begin_txn kv in
    for k = 1 to 200 do
      Paged_kv.put kv t (Int64.of_int k) 2L
    done;
    (* span, not reset: Sim_mutex release times live on the same clock *)
    let s = Clock.start () in
    Paged_kv.rollback kv t;
    Clock.elapsed s
  in
  let stasis = cost (List.assoc "stasis" systems) in
  let shore = cost (List.assoc "shore" systems) in
  check_bool "shore rollback cheaper than stasis" true (shore < stasis)

let () =
  let tc = Alcotest.test_case in
  let per_system name f =
    List.map (fun (sn, mk) -> tc (name ^ " (" ^ sn ^ ")") `Quick (f mk)) systems
  in
  Alcotest.run "baselines"
    [
      ("put-lookup", per_system "put/lookup" test_put_lookup);
      ("update", per_system "update in place" test_update_in_place);
      ("delete", per_system "delete" test_delete);
      ("rollback", per_system "rollback" test_rollback);
      ("crash-committed", per_system "committed survives" test_committed_survives);
      ( "crash-uncommitted",
        per_system "uncommitted undone" test_uncommitted_lost_or_undone );
      ("flush-crash", per_system "flush then crash" test_flush_then_crash);
      ("double-crash", per_system "double crash" test_double_crash);
      ("overflow", per_system "overflow chains" test_overflow_chains_survive);
      ( "costs",
        [
          tc "baselines are expensive" `Quick test_baselines_expensive;
          tc "rollback ordering" `Quick test_rollback_cost_ordering;
        ] );
    ]
