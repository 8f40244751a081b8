(* Fault-injection torture tests: the arbitrary-eviction adversary.

   With a {!Fault_model} attached, a crash persists a *random subset* of
   the dirty cachelines (instead of dropping them all) and every cached
   store may spontaneously write back a recently-dirtied line.  The WAL
   protocol must survive any such schedule; recovery must also survive
   in-place corruption of log records, truncating them via their CRC
   instead of raising. *)

open Rewind_nvm
open Rewind
module F = Rewind_benchlib.Faultcamp
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios

let root_slot = 2

let configs = Scenarios.wal_configs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The small mixed world (6 txns of 2 writes, a checkpoint after the
   4th), so that full crash-point enumeration stays cheap. *)
let script = Scenarios.mixed_script ~txns:6 ~writes:2 ~checkpoint_at:4

let fresh_setup cfg ~fault =
  let arena = Arena.create ~size_bytes:(4 lsl 20) () in
  Arena.set_fault_model arena fault;
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
  (arena, tm, cells)

let fault_of_mask mask_seed =
  (* Each mask seed is a different adversary: varying per-line survival
     probability, spontaneous evictions on the odd ones. *)
  Fault_model.create
    ~eviction_ppm:(if mask_seed land 1 = 1 then 50_000 else 0)
    ~crash_survival_ppm:(125_000 * ((mask_seed mod 8) + 1))
    ~seed:(0x5EED0 + mask_seed) ()

(* The tentpole sweep: every crash point x 8 eviction masks, the script
   under each mask's adversary as the crash window.  The event count
   depends on the mask (a spontaneous eviction can turn a later flush
   into a no-op), so each mask's sweep takes its own dry run. *)
let test_partial_eviction_sweep (_, cfg) () =
  for mask_seed = 0 to 7 do
    ignore
      (Harness.every_event
         (Scenarios.mixed ~size_bytes:(4 lsl 20) ~txns:6 ~writes:2
            ~checkpoint_at:4
            ~hook:(fun a ->
              Arena.set_fault_model a (Some (fault_of_mask mask_seed)))
            cfg))
  done

(* Heavy spontaneous evictions with no crash: the adversary writing lines
   back early must never change what the program observes. *)
let test_eviction_transparency (name, cfg) () =
  let model_arena, model_tm, model_cells = fresh_setup cfg ~fault:None in
  script model_tm model_cells;
  let arena, tm, cells =
    fresh_setup cfg
      ~fault:
        (Some
           (Fault_model.create ~eviction_ppm:400_000 ~crash_survival_ppm:0
              ~seed:99 ()))
  in
  script tm cells;
  check_bool
    (Fmt.str "%s: evictions observed" name)
    true
    ((Arena.stats arena).Stats.evictions > 0);
  Array.iteri
    (fun i c ->
      Alcotest.(check int64)
        (Fmt.str "%s cell %d unchanged by evictions" name i)
        (Arena.read model_arena model_cells.(i))
        (Arena.read arena c))
    cells

(* Attach after a crash and require a structurally sound recovery: no
   exception, empty log.  Used by the white-box corruption tests, where a
   truncated record legitimately cannot be undone — so no assertion is
   made about user-cell contents. *)
let attach_ok ~ctx cfg arena =
  let alloc2 = Alloc.recover arena in
  let tm2 =
    try Tm.attach ~cfg alloc2 ~root_slot
    with e -> Alcotest.failf "%s: recovery raised %s" ctx (Printexc.to_string e)
  in
  if Log.length (Tm.log tm2) <> 0 then
    Alcotest.failf "%s: log not cleared after recovery" ctx;
  tm2

(* A corrupted (torn) log record must be truncated by its checksum during
   recovery, not replayed or crashed on.  One-layer configurations: the
   records are reachable from the bucket/ADLL log. *)
let test_corrupt_record_truncated (name, cfg) () =
  let arena, tm, cells = fresh_setup cfg ~fault:None in
  (* one committed transaction, one left in flight *)
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(0) ~value:42L;
  Tm.commit tm txn;
  let txn2 = Tm.begin_txn tm in
  Tm.write tm txn2 ~addr:cells.(1) ~value:43L;
  Tm.write tm txn2 ~addr:cells.(2) ~value:44L;
  Log.flush_group (Tm.log tm);
  let recs = Log.records (Tm.log tm) in
  check_bool (name ^ ": records present pre-crash") true (recs <> []);
  Arena.crash arena;
  (* corrupt the newest record in place: garbage address and values (for
     an inline pair, tear its second word; for an END word, its CRC) *)
  let r = List.hd (List.rev recs) in
  if Record.is_inline r && Record.typ arena r = Record.End then
    Arena.corrupt arena (Record.inline_slot r + 1) 1
  else if Record.is_inline r then
    Arena.corrupt arena (Record.inline_slot r + 8) 8
  else Arena.corrupt arena (r + 24) 16;
  let tm2 = attach_ok ~ctx:(name ^ " corrupt") cfg arena in
  check_bool
    (name ^ ": torn record counted in stats")
    true
    ((Arena.stats arena).Stats.torn_records >= 1);
  match Tm.last_recovery tm2 with
  | None -> Alcotest.fail (name ^ ": no recovery report")
  | Some rep ->
      check_bool
        (name ^ ": report shows truncation")
        true (rep.Tm.torn_truncated >= 1)

(* Same, via a persistent media fault instead of one-shot corruption: the
   faulty line serves corrupted reads, so the checksum gate must reject
   the record on every pass of recovery. *)
let test_media_fault_record_truncated (name, cfg) () =
  let arena, tm, cells = fresh_setup cfg ~fault:None in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(0) ~value:7L;
  Log.flush_group (Tm.log tm);
  let recs = Log.records (Tm.log tm) in
  check_bool (name ^ ": records present") true (recs <> []);
  Arena.crash arena;
  let fm = Fault_model.create ~seed:5 () in
  Fault_model.set_media_fault fm ~line:(List.hd recs / 64);
  Arena.set_fault_model arena (Some fm);
  ignore (attach_ok ~ctx:(name ^ " media fault") cfg arena);
  check_bool
    (name ^ ": media fault observed")
    true
    ((Arena.stats arena).Stats.media_faults >= 1)

(* A media-faulty header line on a recycled current bucket: the Batch
   last-persistent-index in it reads back as garbage.  On a fresh bucket
   that exposed only zero slots; a recycled one still holds the slots of
   its last life: copies of live records that a compaction moved, and
   addresses of freed records whose memory now holds live ones.  A
   long-running transaction and a checkpoint make the log unlink two
   buckets and compact the third; transactions of four full records and
   an END word then roll the log through the three freed buckets, each
   roll at a write.  Trial [k] crashes as the [k]-th freed bucket is
   relinked, before its first group flush, and faults its header line:
   recovery must reach the committed prefix. *)
let test_media_fault_recycled_header () =
  let cfg = { (Rewind.config_batch ~group:4 ()) with Tm.bucket_cap = 16 } in
  (* big values take full records *)
  let value k = Int64.of_int (1_000_000 + k) in
  let tested = ref [] and compacted = ref 0 in
  for k = 1 to 3 do
    let arena = Arena.create ~size_bytes:(4 lsl 20) () in
    let alloc = Alloc.create arena in
    let tm = Tm.create ~cfg alloc ~root_slot in
    let cells = Array.init 6 (fun _ -> Tm.alloc_cell tm) in
    let committed = Array.make 6 0L in
    for i = 1 to 20 do
      let txn = Tm.begin_txn tm in
      Tm.write tm txn ~addr:cells.(1) ~value:(value i);
      Tm.commit tm txn;
      committed.(1) <- value i
    done;
    let long = Tm.begin_txn tm in
    Tm.write tm long ~addr:cells.(0) ~value:(value 0);
    let current () = List.hd (List.rev (Log.buckets (Tm.log tm))) in
    compacted := current ();
    Tm.checkpoint tm;
    check_bool "the checkpoint compacted the log" false
      (List.mem !compacted (Log.buckets (Tm.log tm)));
    let recycled () = (Arena.stats arena).Stats.buckets_recycled in
    (try
       for i = 21 to 100 do
         let txn = Tm.begin_txn tm in
         for c = 2 to 5 do
           Tm.write tm txn ~addr:cells.(c) ~value:(value i);
           if recycled () = k then raise Exit
         done;
         Tm.commit tm txn;
         Array.fill committed 2 4 (value i);
         if recycled () = k then Alcotest.failf "bucket %d recycled at a commit" k
       done;
       Alcotest.failf "no bucket %d recycled" k
     with Exit -> ());
    let b = current () in
    tested := b :: !tested;
    check_int "nothing durable in it yet" 0
      (Int64.to_int (Arena.durable_read arena b));
    Arena.crash arena;
    let fm = Fault_model.create ~seed:k () in
    Fault_model.set_media_fault fm ~line:(b / 64);
    Arena.set_fault_model arena (Some fm);
    let ctx = Fmt.str "recycled bucket %d" k in
    ignore (attach_ok ~ctx cfg arena);
    check_bool (ctx ^ ": media fault observed") true
      ((Arena.stats arena).Stats.media_faults >= 1);
    Array.iteri
      (fun c want ->
        Alcotest.(check int64)
          (Fmt.str "%s: cell %d is the committed prefix" ctx c)
          want (Arena.read arena cells.(c)))
      committed
  done;
  check_bool "the compacted bucket was among them" true
    (List.mem !compacted !tested)

(* ------------------------------------------------------------------ *)
(* Campaign determinism and health                                     *)
(* ------------------------------------------------------------------ *)

let test_campaign_deterministic () =
  let s1 = F.schedule ~base_seed:7 ~seeds:3 () in
  let s2 = F.schedule ~base_seed:7 ~seeds:3 () in
  check_bool "same schedule for same seed" true (s1 = s2);
  check_int "schedule digest stable" (F.schedule_digest s1)
    (F.schedule_digest s2);
  let v1 = List.map F.run_trial s1 in
  let v2 = List.map F.run_trial s2 in
  check_bool "same verdicts for same schedule" true (v1 = v2);
  let s3 = F.schedule ~base_seed:8 ~seeds:3 () in
  check_bool "different seed, different schedule" true (s1 <> s3)

let test_campaign_passes () =
  let r = F.run_campaign ~quiet:true ~base_seed:42 ~seeds:4 () in
  check_int "trials run" (4 * List.length configs) r.F.trials;
  (match r.F.failures with
  | [] -> ()
  | (t, msg) :: _ ->
      Alcotest.failf "campaign failure: %a (%s)" F.pp_trial t msg);
  check_bool "no failures" true (r.F.failures = [])

let () =
  let tc = Alcotest.test_case in
  let per_config ?(filter = fun _ -> true) name speed f =
    List.filter_map
      (fun (cn, cfg) ->
        if filter cfg then
          Some (tc (name ^ " [" ^ cn ^ "]") speed (f (cn, cfg)))
        else None)
      configs
  in
  let one_layer cfg = cfg.Tm.layers = Tm.One_layer in
  Alcotest.run "faults"
    [
      ( "partial-eviction-sweep",
        per_config "crash everywhere x 8 masks" `Slow test_partial_eviction_sweep
      );
      ( "eviction-transparency",
        per_config "evictions invisible to reads" `Quick
          test_eviction_transparency );
      ( "torn-records",
        per_config ~filter:one_layer "corrupt record truncated" `Quick
          test_corrupt_record_truncated
        @ per_config ~filter:one_layer "media-fault record truncated" `Quick
            test_media_fault_record_truncated
        @ [
            tc "media-faulty header of a recycled bucket" `Quick
              test_media_fault_recycled_header;
          ] );
      ( "campaign",
        [
          tc "deterministic schedules and verdicts" `Slow
            test_campaign_deterministic;
          tc "clean campaign" `Slow test_campaign_passes;
        ] );
    ]
