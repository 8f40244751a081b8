(* Persistency-sanitizer tests.

   Three claims are established here:
   1. the existing implementation is *clean* under the checker — a full
      transactional workload (commits, rollbacks, savepoints, checkpoint,
      crash + recovery) under force + Batch, which no named configuration
      covers, and Batch logs recycling their buckets under the update
      benchmark's shape report nothing (the named configurations' tours
      are the protocol table's, test_protocols.ml);
   2. the checker *detects* deliberately introduced protocol violations —
      a user store written back before its undo record's batch group
      persisted (WAL-order), and a dropped group fence in the Batch log
      (unfenced commit) — each asserted as its specific diagnostic;
   3. the crash-state enumerator exhaustively passes on an ADLL
      append/remove trace and catches a torn pair (the protocol table
      enumerates every configuration's single transaction). *)

open Rewind_nvm
open Rewind
module Sanitizer = Rewind_analysis.Sanitizer
module Enumerator = Rewind_analysis.Enumerator
open Support

let reattach cfg arena =
  let alloc = Alloc.recover arena in
  Tm.attach ~cfg alloc ~root_slot

(* ------------------------------------------------------------------ *)
(* 1. Clean bill: the implementation passes its own checker            *)
(* ------------------------------------------------------------------ *)

(* A workload touching every protocol path: commit, rollback, partial
   rollback to a savepoint, checkpoint, then a mid-transaction crash
   recovered with the sanitizer still attached; under force + Batch,
   commit-time clearing of a grouped log.  Collect mode, and an empty
   list asserted at the end, so a refactor that swallows exceptions
   cannot mask a regression. *)
let test_clean_workload () =
  let cfg = { Rewind.config_1l_fp with variant = Log.Batch 8 } in
  let arena, alloc, tm = fresh ~size_bytes:(1 lsl 20) ~cfg () in
  let c = Array.init 10 (fun _ -> Alloc.alloc alloc 8) in
  Sanitizer.with_sanitizer ~mode:Sanitizer.Collect arena (fun s ->
      let t1 = Tm.begin_txn tm in
      Tm.write tm t1 ~addr:c.(0) ~value:11L;
      Tm.write tm t1 ~addr:c.(1) ~value:22L;
      Tm.commit tm t1;
      let t2 = Tm.begin_txn tm in
      Tm.write tm t2 ~addr:c.(0) ~value:99L;
      Tm.write tm t2 ~addr:c.(2) ~value:88L;
      Tm.rollback tm t2;
      let t3 = Tm.begin_txn tm in
      Tm.write tm t3 ~addr:c.(3) ~value:7L;
      let sp = Tm.savepoint tm t3 in
      Tm.write tm t3 ~addr:c.(4) ~value:8L;
      Tm.write tm t3 ~addr:c.(3) ~value:9L;
      Tm.rollback_to tm t3 sp;
      Tm.commit tm t3;
      Tm.checkpoint tm;
      (* mid-transaction crash, recovery under the sanitizer *)
      let t4 = Tm.begin_txn tm in
      Tm.write tm t4 ~addr:c.(0) ~value:55L;
      Arena.crash arena;
      let tm' = reattach cfg arena in
      check_i64 "losing txn undone" 11L (Arena.read arena c.(0));
      (* the model stays sound for post-recovery transactions *)
      let t5 = Tm.begin_txn tm' in
      Tm.write tm' t5 ~addr:c.(5) ~value:66L;
      Tm.commit tm' t5;
      check_i64 "post-recovery commit" 66L (Arena.read arena c.(5));
      check_bool "events were traced" true (Sanitizer.events_seen s > 0);
      check_int "no violations" 0 (List.length (Sanitizer.violations s)))

(* A forward run shaped like the benchmark's [update] workload: eight
   closed-loop writers, four writes a transaction, the first writer
   checkpointing, over Batch logs whose checkpoints free buckets that
   later rolls recycle.  Each transaction also writes a cell allocated
   just before it, so user words land between buckets: a group flush
   that wrote back a line shared with one would make the user store
   durable ahead of its undo record.  The collecting sanitizer reports
   nothing. *)
let test_recycling_update_clean ~partitions ~bucket_cap ~txns () =
  let cfg =
    Rewind.with_partitions partitions
      { (Rewind.config_batch ()) with Tm.bucket_cap }
  in
  let arena, alloc, tm = fresh ~size_bytes:(16 lsl 20) ~cfg () in
  let cells =
    Array.init 8 (fun _ -> Array.init 8 (fun _ -> Alloc.alloc alloc 8))
  in
  Sanitizer.with_sanitizer ~mode:Sanitizer.Collect arena (fun s ->
      ignore
        (Sim_threads.run ~threads:8 ~ops_per_thread:txns (fun f i ->
             let fresh_cell = Tm.alloc_cell tm in
             let txn = Tm.begin_txn ~home:(f mod partitions) tm in
             for k = 0 to 3 do
               Tm.write tm txn
                 ~addr:cells.(f).((i + k) mod 8)
                 ~value:(Int64.of_int ((i * 10) + k + 1))
             done;
             Tm.write tm txn ~addr:fresh_cell ~value:(Int64.of_int (i + 1));
             Tm.commit tm txn;
             if f = 0 && (i + 1) mod (txns / 15) = 0 then Tm.checkpoint tm));
      check_bool "buckets recycled" true
        ((Arena.stats arena).Stats.buckets_recycled > 0);
      check_int "no violations" 0 (List.length (Sanitizer.violations s)))

(* ------------------------------------------------------------------ *)
(* 2. Detection of deliberate violations                               *)
(* ------------------------------------------------------------------ *)

let batch_cfg = Rewind.config_batch ()

(* WAL-order: under Batch, a user store's line is pinned until its undo
   record's group persists.  Writing the line back anyway (the classic
   "flush the data early" bug) must be flagged at the flush, not at some
   later recovery. *)
let test_wal_order_violation () =
  let arena, alloc, tm = fresh ~size_bytes:(1 lsl 20) ~cfg:batch_cfg () in
  let addr = Alloc.alloc ~align:64 alloc 8 in
  Sanitizer.with_sanitizer ~mode:Sanitizer.Collect arena (fun s ->
      let t = Tm.begin_txn tm in
      Tm.write tm t ~addr ~value:7L;
      (* The undo record sits in an unpersisted group of 8; this flush
         writes the user store back ahead of it. *)
      Arena.flush_line arena addr;
      let vs = Sanitizer.violations s in
      check_bool "at least one violation" true (vs <> []);
      let v = List.hd vs in
      check_bool "kind is wal-order" true (v.Sanitizer.kind = Sanitizer.Wal_order);
      check_int "flagged the flushed word" addr v.Sanitizer.addr)

(* Dropped group fence: [flush_group] writes the slots back and advances
   the last-persistent-index, but skips the fence between them.  The
   protocol's own expectation annotation catches it immediately. *)
let test_dropped_group_fence () =
  let arena, alloc, tm = fresh ~size_bytes:(1 lsl 20) ~cfg:batch_cfg () in
  let addr = Alloc.alloc ~align:64 alloc 8 in
  Log.set_chaos_drop_group_fence (Tm.log tm) true;
  Sanitizer.with_sanitizer ~mode:Sanitizer.Collect arena (fun s ->
      let t = Tm.begin_txn tm in
      Tm.write tm t ~addr ~value:7L;
      Tm.commit tm t;
      let vs = Sanitizer.violations s in
      check_bool "at least one violation" true (vs <> []);
      List.iter
        (fun v ->
          check_bool "every violation is unfenced" true
            (v.Sanitizer.kind = Sanitizer.Unfenced))
        vs;
      check_bool "the group-slot expectation fired" true
        (List.exists
           (fun v ->
             contains v.Sanitizer.detail "batch group slots")
           vs))

(* With the chaos knob off the same workload is clean — the knob, not the
   workload, is what the sanitizer objects to. *)
let test_chaos_knob_off_is_clean () =
  let arena, alloc, tm = fresh ~size_bytes:(1 lsl 20) ~cfg:batch_cfg () in
  let addr = Alloc.alloc ~align:64 alloc 8 in
  Sanitizer.with_sanitizer arena (fun _ ->
      let t = Tm.begin_txn tm in
      Tm.write tm t ~addr ~value:7L;
      Tm.commit tm t)

(* A store to memory already returned to the allocator. *)
let test_store_freed () =
  let arena, alloc, _tm = fresh ~size_bytes:(1 lsl 20) ~cfg:batch_cfg () in
  let addr = Alloc.alloc ~align:64 alloc 64 in
  Sanitizer.with_sanitizer ~mode:Sanitizer.Collect arena (fun s ->
      Alloc.free ~align:64 alloc addr 64;
      Arena.write arena addr 1L;
      let vs = Sanitizer.violations s in
      check_bool "store-freed flagged" true
        (List.exists (fun v -> v.Sanitizer.kind = Sanitizer.Store_freed) vs))

(* A direct store to transactionally-managed data, bypassing the WAL. *)
let test_store_unlogged () =
  let arena, alloc, tm = fresh ~size_bytes:(1 lsl 20) () in
  let addr = Alloc.alloc ~align:64 alloc 8 in
  Sanitizer.with_sanitizer ~mode:Sanitizer.Collect arena (fun s ->
      let t = Tm.begin_txn tm in
      Tm.write tm t ~addr ~value:1L;
      Tm.commit tm t;
      (* coverage expired at commit; this raw store has no undo record *)
      Arena.write arena addr 2L;
      let vs = Sanitizer.violations s in
      check_bool "store-unlogged flagged" true
        (List.exists (fun v -> v.Sanitizer.kind = Sanitizer.Store_unlogged) vs))

(* ------------------------------------------------------------------ *)
(* 3. Redundancy diagnostics                                           *)
(* ------------------------------------------------------------------ *)

let test_redundant_diagnostics () =
  let arena = Arena.create ~size_bytes:(1 lsl 16) () in
  let stats = Arena.stats arena in
  Sanitizer.with_sanitizer ~mode:Sanitizer.Collect arena (fun s ->
      Arena.write arena 1024 1L;
      Arena.flush_line arena 1024;
      Arena.flush_line arena 1024 (* clean: redundant *);
      Arena.fence arena (* orders the write-back: useful *);
      Arena.fence arena (* nothing since: redundant *);
      check_int "stats counted the clean flush" 1 stats.Stats.redundant_flushes;
      check_int "stats counted the empty fence" 1 stats.Stats.redundant_fences;
      let r = Sanitizer.report s in
      check_int "no violations" 0 r.Sanitizer.violation_count;
      check_int "one redundant-flush site" 1
        (List.length r.Sanitizer.redundant_flush_sites);
      check_bool "flush site is the line base" true
        (List.mem_assoc 1024 r.Sanitizer.redundant_flush_sites);
      check_int "one redundant-fence site" 1
        (List.length r.Sanitizer.redundant_fence_sites))

(* ------------------------------------------------------------------ *)
(* 4. Crash-state enumerator                                           *)
(* ------------------------------------------------------------------ *)

(* ADLL append/remove trace.  The list itself is all non-temporal stores,
   so a scratch cell is dirtied alongside every operation to open real
   subsets at each fence; recovery must find a well-formed list holding
   one of the five legal element sequences. *)
let test_enumerate_adll () =
  let arena = Arena.create ~size_bytes:(1 lsl 16) () in
  let alloc = Alloc.create arena in
  let scratch = Alloc.alloc ~align:64 alloc 8 in
  let adll = Adll.create alloc in
  let base = Adll.base adll in
  let middle = ref 0 in
  let legal =
    [ []; [ 100 ]; [ 100; 200 ]; [ 100; 200; 300 ]; [ 100; 300 ] ]
  in
  let stats =
    Enumerator.run arena
      ~workload:(fun () ->
        Arena.write arena scratch 1L;
        ignore (Adll.append adll 100);
        Arena.write arena scratch 2L;
        middle := Adll.append adll 200;
        Arena.write arena scratch 3L;
        ignore (Adll.append adll 300);
        Arena.write arena scratch 4L;
        Adll.remove adll !middle)
      ~recover:(fun crashed ->
        let alloc' = Alloc.recover crashed in
        let l = Adll.attach alloc' ~base in
        Adll.recover l;
        l)
      ~check:(fun l ->
        if not (Adll.well_formed l) then Some "recovered list malformed"
        else
          let es = Adll.elements l in
          if List.mem es legal then None
          else
            Some
              (Fmt.str "illegal element sequence [%a]"
                 Fmt.(list ~sep:semi int)
                 es))
  in
  check_bool "several capture points" true (stats.Enumerator.capture_points > 3);
  check_bool "subsets opened by the scratch line" true
    (stats.Enumerator.max_open_lines >= 1)

(* The enumerator must also catch a real bug: a structure whose "commit"
   is two separate cached stores with no ordering has crash states where
   only the second store survived. *)
let test_enumerate_catches_torn_pair () =
  let arena = Arena.create ~size_bytes:(1 lsl 16) () in
  let alloc = Alloc.create arena in
  let a = Alloc.alloc ~align:64 alloc 8 in
  let b = Alloc.alloc ~align:64 alloc 8 in
  let caught =
    try
      ignore
        (Enumerator.run arena
           ~workload:(fun () ->
             (* both-or-neither intent, cached stores, one fence after *)
             Arena.write arena a 1L;
             Arena.write arena b 1L;
             Arena.fence arena)
           ~recover:(fun crashed -> (Arena.read crashed a, Arena.read crashed b))
           ~check:(fun (va, vb) ->
             if va = vb then None
             else Some (Fmt.str "torn pair (%Ld, %Ld)" va vb)));
      false
    with Enumerator.Illegal _ -> true
  in
  check_bool "torn pair detected" true caught

(* ------------------------------------------------------------------ *)
(* Differential property: the sanitizer against a reference model      *)
(* ------------------------------------------------------------------ *)

(* A reference shadow model of the rules the sanitizer applies word by
   word.  It keeps no state between events: every question is answered
   by replaying the trace before the event in question, so it shares none
   of the sanitizer's incremental bookkeeping (the words written back
   since the last fence, the unformatted last event).  It covers the
   vocabulary [gen_event] draws from: stores, write-backs, fences,
   crashes, expected-persisted regions and batch-group coverage. *)
module Reference = struct
  type st = Durable | Volatile | Written_back

  let line = 64
  let covers ~off ~len w = w >= off lsr 3 && w <= (off + len - 1) lsr 3
  let words_of off len = List.init ((len + 7) / 8) (fun i -> (off lsr 3) + i)

  (* The word's ordering state just before event [k]. *)
  let state trace k w =
    let st = ref Durable in
    for i = 0 to k - 1 do
      match trace.(i) with
      | Trace.Store { off; len; durable } when covers ~off ~len w ->
          st := if durable then Durable else Volatile
      | (Trace.Flush { off; dirty = true } | Trace.Evict { off })
        when covers ~off ~len:line w ->
          if !st = Volatile then st := Written_back
      | Trace.Fence -> if !st = Written_back then st := Durable
      | Trace.Crash -> st := Durable
      | _ -> ()
    done;
    !st

  (* The word's undo coverage just before event [k]: [Some durable]. *)
  let cover trace k w =
    let c = ref None in
    for i = 0 to k - 1 do
      match trace.(i) with
      | Trace.Region_logged { addr; len; durable; group; _ }
        when covers ~off:addr ~len w ->
          c := Some (group, durable)
      | Trace.Group_persisted { group } -> (
          match !c with
          | Some (g, false) when g = group -> c := Some (g, true)
          | _ -> ())
      | Trace.Crash -> c := None
      | _ -> ()
    done;
    Option.map snd !c

  let tracked trace k w =
    let r = ref false in
    for i = 0 to k - 1 do
      match trace.(i) with
      | Trace.Region_logged { addr; len; _ } when covers ~off:addr ~len w ->
          r := true
      | _ -> ()
    done;
    !r

  (* Was there a non-temporal store or a dirty write-back since the last
     fence or crash before event [k]? *)
  let rec persisted_since trace k =
    k > 0
    &&
    match trace.(k - 1) with
    | Trace.Store { durable = true; _ } | Trace.Flush { dirty = true; _ } ->
        true
    | Trace.Fence | Trace.Crash -> false
    | _ -> persisted_since trace (k - 1)

  let bump tbl key =
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

  (* Violations as (kind, address, event number), oldest first, and the
     redundant-flush and redundant-fence sites, sorted. *)
  let run trace =
    let viol = ref [] in
    let red_flush = Hashtbl.create 8 and red_fence = Hashtbl.create 8 in
    Array.iteri
      (fun k ev ->
        let v kind w = viol := (kind, w lsl 3, k + 1) :: !viol in
        let becomes_durable w =
          if cover trace k w = Some false then v Sanitizer.Wal_order w
        in
        match ev with
        | Trace.Store { off; len; durable } ->
            List.iter
              (fun w ->
                if tracked trace k w && cover trace k w = None then
                  v Sanitizer.Store_unlogged w;
                if durable then becomes_durable w)
              (words_of off len)
        | Trace.Flush { off; dirty = true } | Trace.Evict { off } ->
            List.iter
              (fun w -> if state trace k w = Volatile then becomes_durable w)
              (words_of off line)
        | Trace.Flush { off; dirty = false } ->
            bump red_flush (off land lnot (line - 1))
        | Trace.Fence ->
            if not (persisted_since trace k) then
              bump red_fence
                (if k = 0 then "(start)"
                 else Fmt.str "%a" Trace.pp trace.(k - 1))
        | Trace.Expect_persisted { addr; len; _ } ->
            List.iter
              (fun w ->
                match state trace k w with
                | Durable -> ()
                | Volatile -> v Sanitizer.Unpersisted_commit w
                | Written_back -> v Sanitizer.Unfenced w)
              (words_of addr len)
        | _ -> ())
      trace;
    let sorted tbl =
      List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl [])
    in
    (List.rev !viol, sorted red_flush, sorted red_fence)
end

(* Events over three lines (24 words), weighted toward stores,
   write-backs and fences. *)
let gen_event =
  let open QCheck.Gen in
  let word = map (fun w -> 8 * w) (int_bound 23) in
  let line = map (fun l -> 64 * l) (int_bound 2) in
  frequency
    [
      ( 6,
        map3
          (fun off len durable -> Trace.Store { off; len; durable })
          word (oneofl [ 8; 8; 16 ]) (frequencyl [ (3, false); (1, true) ]) );
      (3, map2 (fun off dirty -> Trace.Flush { off; dirty }) line bool);
      (3, return Trace.Fence);
      (1, map (fun off -> Trace.Evict { off }) line);
      (1, return Trace.Crash);
      ( 2,
        map2
          (fun addr len ->
            Trace.Expect_persisted { addr; len; what = "region" })
          word (oneofl [ 8; 16 ]) );
      ( 2,
        map3
          (fun addr durable group ->
            Trace.Region_logged { txn = 1; addr; len = 8; durable; group })
          word bool (int_bound 1) );
      (1, map (fun group -> Trace.Group_persisted { group }) (int_bound 1));
    ]

let prop_matches_reference =
  let print evs = String.concat "; " (List.map (Fmt.str "%a" Trace.pp) evs) in
  QCheck.Test.make ~name:"sanitizer matches the reference model" ~count:500
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 120) gen_event))
    (fun evs ->
      let trace = Array.of_list evs in
      let arena = Arena.create ~size_bytes:(1 lsl 16) () in
      let s = Sanitizer.attach ~mode:Sanitizer.Collect arena in
      Array.iter (Arena.emit arena) trace;
      Sanitizer.detach s;
      let r = Sanitizer.report s in
      let got =
        ( List.map
            (fun (v : Sanitizer.violation) -> (v.kind, v.addr, v.event_no))
            (Sanitizer.violations s),
          List.sort compare r.Sanitizer.redundant_flush_sites,
          List.sort compare r.Sanitizer.redundant_fence_sites )
      in
      let ((wv, wfl, wfe) as want) = Reference.run trace in
      got = want
      ||
      let gv, gfl, gfe = got in
      QCheck.Test.fail_reportf
        "violations %d (want %d), redundant flush sites %d (want %d), \
         redundant fence sites %d (want %d)%s"
        (List.length gv) (List.length wv) (List.length gfl) (List.length wfl)
        (List.length gfe) (List.length wfe)
        (if gv <> wv then ": the violations differ" else ""))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sanitizer"
    [
      ( "clean-bill",
        [
          Alcotest.test_case "full workload clean [1l-fp-batch]" `Quick
            test_clean_workload;
        ] );
      ( "clean-recycling",
        Alcotest.test_case "update shape: 2 partitions, 1000-slot buckets"
          `Quick
          (test_recycling_update_clean ~partitions:2 ~bucket_cap:1000
             ~txns:1500)
        :: List.map
             (fun partitions ->
               Alcotest.test_case
                 (Fmt.str "%d partition(s), 16-slot buckets" partitions)
                 `Quick
                 (test_recycling_update_clean ~partitions ~bucket_cap:16
                    ~txns:60))
             [ 1; 2; 4 ] );
      ( "detection",
        [
          Alcotest.test_case "wal-order: store flushed before group" `Quick
            test_wal_order_violation;
          Alcotest.test_case "dropped group fence" `Quick
            test_dropped_group_fence;
          Alcotest.test_case "chaos knob off is clean" `Quick
            test_chaos_knob_off_is_clean;
          Alcotest.test_case "store to freed region" `Quick test_store_freed;
          Alcotest.test_case "store bypassing the WAL" `Quick
            test_store_unlogged;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "redundant flush/fence counters" `Quick
            test_redundant_diagnostics;
        ] );
      ("reference", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
      ( "enumerator",
        [
          Alcotest.test_case "adll append/remove" `Quick test_enumerate_adll;
          Alcotest.test_case "catches a torn cached pair" `Quick
            test_enumerate_catches_torn_pair;
        ] );
    ]
