(* Tests for the NVM substrate: arena cache/durability semantics, crash
   behaviour, crash injection, cost accounting, allocator, block device. *)

open Rewind_nvm
open Support

let arena ?(size = 1 lsl 20) () = Arena.create ~size_bytes:size ()

(* ------------------------------------------------------------------ *)
(* Arena: cache and durability semantics                               *)
(* ------------------------------------------------------------------ *)

let test_cached_write_visible () =
  let a = arena () in
  Arena.write a 1024 42L;
  check_i64 "volatile view sees cached store" 42L (Arena.read a 1024);
  check_i64 "durable image does not" 0L (Arena.durable_read a 1024)

let test_cached_write_lost_on_crash () =
  let a = arena () in
  Arena.write a 1024 42L;
  Arena.crash a;
  check_i64 "cached store lost" 0L (Arena.read a 1024)

let test_flush_makes_durable () =
  let a = arena () in
  Arena.write a 1024 42L;
  Arena.flush_line a 1024;
  Arena.fence a;
  Arena.crash a;
  check_i64 "flushed store survives" 42L (Arena.read a 1024)

let test_nt_write_durable () =
  let a = arena () in
  Arena.nt_write a 2048 7L;
  Arena.crash a;
  check_i64 "non-temporal store survives" 7L (Arena.read a 2048)

let test_flush_line_covers_whole_line () =
  let a = arena () in
  (* Two words on the same 64-byte line. *)
  Arena.write a 1024 1L;
  Arena.write a 1032 2L;
  Arena.flush_line a 1024;
  Arena.crash a;
  check_i64 "first word" 1L (Arena.read a 1024);
  check_i64 "second word on same line" 2L (Arena.read a 1032)

let test_flush_all () =
  let a = arena () in
  Arena.write a 1024 1L;
  Arena.write a 409600 2L;
  Arena.flush_all a;
  Arena.crash a;
  check_i64 "line 1" 1L (Arena.read a 1024);
  check_i64 "line 2" 2L (Arena.read a 409600)

let test_nt_write_does_not_persist_neighbours () =
  let a = arena () in
  Arena.write a 1024 1L;      (* cached, same line as below *)
  Arena.nt_write a 1032 2L;   (* durable word store *)
  Arena.crash a;
  check_i64 "cached neighbour lost" 0L (Arena.read a 1024);
  check_i64 "nt word survives" 2L (Arena.read a 1032)

let test_dirty_tracking () =
  let a = arena () in
  check_bool "clean initially" false (Arena.is_dirty a 1024);
  Arena.write a 1024 1L;
  check_bool "dirty after store" true (Arena.is_dirty a 1024);
  Arena.flush_line a 1024;
  check_bool "clean after flush" false (Arena.is_dirty a 1024)

let test_bytes_roundtrip () =
  let a = arena () in
  Arena.write_bytes a 1024 "hello, nvm!";
  Alcotest.(check string) "bytes" "hello, nvm!" (Arena.read_bytes a 1024 11);
  Arena.flush_range a 1024 11;
  Arena.crash a;
  Alcotest.(check string) "bytes durable" "hello, nvm!" (Arena.read_bytes a 1024 11)

let test_bounds_check () =
  let a = arena ~size:4096 () in
  Alcotest.check_raises "oob read"
    (Invalid_argument "Arena: access [4095,4103) outside arena of 4096 bytes")
    (fun () -> ignore (Arena.read a 4095))

(* ------------------------------------------------------------------ *)
(* Arena: flush_range edge cases                                       *)
(* ------------------------------------------------------------------ *)

let test_flush_range_zero_length () =
  let a = arena () in
  Arena.write a 1024 1L;
  (* A zero-length flush touches nothing: not even a persistence event. *)
  Arena.arm_crash a ~after:0;
  Arena.flush_range a 1024 0;
  Arena.disarm_crash a;
  check_bool "no crash consumed" false (Arena.crashed a);
  Arena.crash a;
  check_i64 "store was not persisted" 0L (Arena.read a 1024)

let test_flush_range_crosses_line_boundary () =
  let a = arena () in
  Arena.write a 1016 1L;  (* last word of one line *)
  Arena.write a 1024 2L;  (* first word of the next *)
  Arena.flush_range a 1016 16;
  Arena.crash a;
  check_i64 "word before boundary" 1L (Arena.read a 1016);
  check_i64 "word after boundary" 2L (Arena.read a 1024)

let test_flush_range_tail_line_shorter_than_cacheline () =
  (* An arena whose size is not a multiple of the cacheline: the last
     line is short, and flushing it must not step out of bounds. *)
  let a = arena ~size:1000 () in
  Arena.write a 992 5L;  (* inside the 40-byte tail line *)
  Arena.flush_range a 960 40;
  Arena.crash a;
  check_i64 "tail line flushed" 5L (Arena.read a 992)

let test_flush_range_interior_clean_lines_free () =
  let a = arena () in
  Arena.write a 1024 1L;
  Arena.write a 1216 2L;  (* three clean lines in between *)
  (* Exactly two dirty lines -> exactly two persistence events. *)
  Arena.arm_crash a ~after:2;
  Arena.flush_range a 1024 200;
  Arena.disarm_crash a;
  check_bool "clean interior lines are not events" false (Arena.crashed a);
  Arena.crash a;
  check_i64 "first line" 1L (Arena.read a 1024);
  check_i64 "last line" 2L (Arena.read a 1216)

(* ------------------------------------------------------------------ *)
(* Arena: crash injection                                              *)
(* ------------------------------------------------------------------ *)

let test_crash_injection_counts_events () =
  let a = arena () in
  Arena.arm_crash a ~after:2;
  Arena.nt_write a 1024 1L;
  Arena.nt_write a 1032 2L;
  (try
     Arena.nt_write a 1040 3L;
     Alcotest.fail "expected crash"
   with Arena.Crash -> ());
  check_i64 "first survived" 1L (Arena.read a 1024);
  check_i64 "second survived" 2L (Arena.read a 1032);
  check_i64 "third never applied" 0L (Arena.read a 1040)

let test_crash_injection_on_flush () =
  let a = arena () in
  Arena.write a 1024 1L;
  Arena.arm_crash a ~after:0;
  (try
     Arena.flush_line a 1024;
     Alcotest.fail "expected crash"
   with Arena.Crash -> ());
  check_i64 "flush interrupted, store lost" 0L (Arena.read a 1024)

let test_disarm () =
  let a = arena () in
  Arena.arm_crash a ~after:0;
  Arena.disarm_crash a;
  Arena.nt_write a 1024 1L;
  check_i64 "no crash after disarm" 1L (Arena.read a 1024)

let test_clean_flush_is_not_an_event () =
  let a = arena () in
  Arena.arm_crash a ~after:0;
  (* Flushing a clean line must not consume a crash budget event. *)
  Arena.flush_line a 1024;
  Arena.disarm_crash a;
  check_bool "no crash happened" false (Arena.crashed a)

let test_rearm_after_disarm () =
  let a = arena () in
  Arena.arm_crash a ~after:1;
  Arena.nt_write a 1024 1L;  (* consumes the countdown: 1 -> 0 *)
  Arena.disarm_crash a;
  Arena.nt_write a 1032 2L;  (* would have crashed if still armed *)
  Arena.arm_crash a ~after:0;
  (try
     Arena.nt_write a 1040 3L;
     Alcotest.fail "expected crash"
   with Arena.Crash -> ());
  check_i64 "pre-disarm store durable" 1L (Arena.read a 1024);
  check_i64 "post-disarm store durable" 2L (Arena.read a 1032);
  check_i64 "crashing store never applied" 0L (Arena.read a 1040)

let test_crash_event_not_double_counted () =
  (* The event that crashes happens *instead of* persisting; after
     clearing the crashed flag the countdown must be disarmed, so later
     persists proceed. *)
  let a = arena () in
  Arena.arm_crash a ~after:0;
  (try Arena.nt_write a 1024 1L with Arena.Crash -> ());
  Arena.clear_crashed a;
  Arena.nt_write a 1032 2L;
  check_i64 "arena usable after crash" 2L (Arena.read a 1032)

(* ------------------------------------------------------------------ *)
(* Arena: cost accounting                                              *)
(* ------------------------------------------------------------------ *)

let test_write_combining () =
  let a = arena () in
  Clock.reset ();
  let cfg = Arena.config a in
  (* Eight words on one cacheline: a single NVM write charge. *)
  for i = 0 to 7 do
    Arena.nt_write a (1024 + (8 * i)) (Int64.of_int i)
  done;
  check_int "one line charge" cfg.Config.nvm_write_ns (Clock.now ());
  check_int "one nvm write counted" 1 (Arena.stats a).Stats.nvm_writes

let test_fence_breaks_combining () =
  let a = arena () in
  Clock.reset ();
  let cfg = Arena.config a in
  Arena.nt_write a 1024 1L;
  Arena.fence a;
  Arena.nt_write a 1032 2L;
  check_int "two line charges plus fence"
    ((2 * cfg.Config.nvm_write_ns) + cfg.Config.fence_ns)
    (Clock.now ())

let test_distinct_lines_charged () =
  let a = arena () in
  Clock.reset ();
  let cfg = Arena.config a in
  Arena.nt_write a 1024 1L;
  Arena.nt_write a 2048 2L;
  check_int "two charges" (2 * cfg.Config.nvm_write_ns) (Clock.now ())

let test_cached_store_cost () =
  let a = arena () in
  Clock.reset ();
  let cfg = Arena.config a in
  Arena.write a 1024 1L;
  check_int "dram cost" cfg.Config.dram_write_ns (Clock.now ())

let test_write_bytes_charges_per_line () =
  let a = arena () in
  let cfg = Arena.config a in
  Clock.reset ();
  let s0 = (Arena.stats a).Stats.stores in
  (* 130 bytes starting on a line boundary: three lines touched. *)
  Arena.write_bytes a 1024 (String.make 130 'x');
  check_int "one store per line" 3 ((Arena.stats a).Stats.stores - s0);
  check_int "time per line" (3 * cfg.Config.dram_write_ns) (Clock.now ())

let test_read_bytes_charges_per_line () =
  let a = arena () in
  let cfg = Arena.config a in
  Clock.reset ();
  let l0 = (Arena.stats a).Stats.loads in
  (* 100 bytes straddling a boundary at offset 1000: lines 15..17. *)
  ignore (Arena.read_bytes a 1000 100);
  check_int "one load per line" 3 ((Arena.stats a).Stats.loads - l0);
  check_int "time per line" (3 * cfg.Config.dram_read_ns) (Clock.now ())

(* ------------------------------------------------------------------ *)
(* Fault model: evictions, partial crash survival, media faults, pins  *)
(* ------------------------------------------------------------------ *)

let test_fault_model_deterministic () =
  let seq () =
    let fm = Fault_model.create ~crash_survival_ppm:500_000 ~seed:9 () in
    List.init 200 (fun _ -> (Fault_model.survives_crash fm, Fault_model.choose fm 10))
  in
  check_bool "same seed, same rolls" true (seq () = seq ())

let test_partial_crash_survival () =
  let a = arena () in
  (* 100% survival: every dirty line persists at the crash. *)
  Arena.set_fault_model a
    (Some (Fault_model.create ~crash_survival_ppm:1_000_000 ~seed:1 ()));
  Arena.write a 1024 1L;
  Arena.write a 4096 2L;
  Arena.crash a;
  check_i64 "dirty line survived" 1L (Arena.read a 1024);
  check_i64 "other dirty line survived" 2L (Arena.read a 4096);
  check_int "survivals counted" 2 (Arena.stats a).Stats.crash_survivals

let test_zero_survival_is_classic_crash () =
  let a = arena () in
  Arena.set_fault_model a
    (Some (Fault_model.create ~crash_survival_ppm:0 ~seed:1 ()));
  Arena.write a 1024 1L;
  Arena.crash a;
  check_i64 "all dirty lines lost" 0L (Arena.read a 1024)

let test_spontaneous_eviction () =
  let a = arena () in
  (* Evict on every cached store: the line becomes durable without any
     flush, silently. *)
  Arena.set_fault_model a
    (Some (Fault_model.create ~eviction_ppm:1_000_000 ~seed:3 ()));
  Arena.write a 1024 5L;
  check_i64 "evicted line is durable" 5L (Arena.durable_read a 1024);
  check_bool "eviction counted" true ((Arena.stats a).Stats.evictions >= 1);
  check_bool "evictions are not persistence events" true
    ((Arena.stats a).Stats.flushes = 0 && (Arena.stats a).Stats.nt_stores = 0)

let test_pinned_line_never_survives_crash () =
  let a = arena () in
  Arena.set_fault_model a
    (Some (Fault_model.create ~crash_survival_ppm:1_000_000 ~seed:1 ()));
  Arena.write a 1024 1L;
  Arena.pin_line a 4096;
  Arena.write a 4096 2L;
  Arena.crash a;
  check_i64 "unpinned dirty line survived" 1L (Arena.read a 1024);
  check_i64 "pinned line lost" 0L (Arena.read a 4096);
  check_bool "pin cleared by crash" false (Arena.is_pinned a 4096)

let test_pinned_line_not_evicted () =
  let a = arena () in
  Arena.set_fault_model a
    (Some (Fault_model.create ~eviction_ppm:1_000_000 ~seed:3 ()));
  Arena.pin_line a 1024;
  Arena.write a 1024 5L;
  check_i64 "pinned line not written back" 0L (Arena.durable_read a 1024);
  check_bool "still pinned and dirty" true
    (Arena.is_pinned a 1024 && Arena.is_dirty a 1024);
  (* Releasing the pin re-exposes the line to the adversary. *)
  Arena.unpin_line a 1024;
  Arena.write a 1032 6L;  (* same line: the store's eviction roll fires *)
  check_i64 "released line evicted" 5L (Arena.durable_read a 1024)

let test_flush_clears_pin () =
  let a = arena () in
  Arena.pin_line a 1024;
  Arena.write a 1024 9L;
  Arena.flush_line a 1024;
  check_bool "explicit flush unpins" false (Arena.is_pinned a 1024);
  check_i64 "and persists" 9L (Arena.durable_read a 1024)

let test_media_fault_corrupts_reads () =
  let a = arena () in
  let fm = Fault_model.create ~seed:4 () in
  Arena.set_fault_model a (Some fm);
  Arena.nt_write a 1024 7L;
  Fault_model.set_media_fault fm ~line:(1024 / 64);
  check_bool "read corrupted" true (Arena.read a 1024 <> 7L);
  check_bool "media fault counted" true ((Arena.stats a).Stats.media_faults >= 1);
  check_i64 "durable image untouched" 7L (Arena.durable_read a 1024);
  Fault_model.clear_media_fault fm ~line:(1024 / 64);
  check_i64 "read clean after clearing" 7L (Arena.read a 1024)

let test_crc32_known_vector () =
  (* The standard IEEE 802.3 check value. *)
  check_int "crc32(123456789)" 0xCBF43926 (Crc32.digest "123456789");
  check_int "crc32 of empty" 0 (Crc32.digest "");
  check_int "digest_sub agrees" (Crc32.digest "456")
    (Crc32.digest_sub "123456789" 3 3)

(* ------------------------------------------------------------------ *)
(* Roots                                                               *)
(* ------------------------------------------------------------------ *)

let test_roots_survive_crash () =
  let a = arena () in
  Arena.root_set a 5 12345L;
  Arena.crash a;
  check_i64 "root durable" 12345L (Arena.root_get a 5)

let test_bad_root_slot () =
  let a = arena () in
  Alcotest.check_raises "slot 0 reserved" (Invalid_argument "Arena: bad root slot")
    (fun () -> ignore (Arena.root_get a 0))

(* ------------------------------------------------------------------ *)
(* Allocator                                                           *)
(* ------------------------------------------------------------------ *)

let test_alloc_distinct () =
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc al 24 and y = Alloc.alloc al 24 in
  check_bool "distinct" true (x <> y);
  check_bool "disjoint" true (abs (x - y) >= 24)

let test_alloc_aligned () =
  let a = arena () in
  let al = Alloc.create a in
  for _ = 1 to 20 do
    let off = Alloc.alloc al 13 in
    check_int "8-aligned" 0 (off land 7)
  done

let test_free_reuse () =
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc al 32 in
  Alloc.free al x 32;
  let y = Alloc.alloc al 32 in
  check_int "freed block reused" x y

let test_alloc_fresh_never_reuses () =
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc_fresh al 64 in
  Arena.nt_write a x 99L;
  Alloc.free al x 64;
  let y = Alloc.alloc_fresh al 64 in
  check_bool "fresh block is new space" true (x <> y);
  check_i64 "fresh block durably zero" 0L (Arena.durable_read a y)

let test_cursor_survives_crash () =
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc al 64 in
  Arena.crash a;
  let al2 = Alloc.recover a in
  let y = Alloc.alloc al2 64 in
  check_bool "no overlap with pre-crash allocation" true (y >= x + 64)

let test_out_of_memory () =
  let a = arena ~size:2048 () in
  let al = Alloc.create a in
  Alcotest.check_raises "oom" Alloc.Out_of_memory_arena (fun () ->
      for _ = 1 to 1000 do
        ignore (Alloc.alloc al 64)
      done)

(* Regressions for the [free] misuse checks: double frees and frees of
   never-allocated offsets used to silently push garbage onto the free
   list, corrupting later allocations. *)
let expect_misuse what f =
  match f () with
  | () -> Alcotest.failf "%s: expected Alloc.Misuse" what
  | exception Alloc.Misuse _ -> ()

let test_free_double () =
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc al 32 in
  Alloc.free al x 32;
  expect_misuse "double free" (fun () -> Alloc.free al x 32)

let test_free_never_allocated () =
  let a = arena () in
  let al = Alloc.create a in
  ignore (Alloc.alloc al 32);
  expect_misuse "never-allocated free" (fun () -> Alloc.free al 4096 32)

let test_free_size_mismatch () =
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc al 32 in
  expect_misuse "size mismatch" (fun () -> Alloc.free al x 64)

let test_free_after_recover () =
  (* A recovered allocator has no live map for pre-crash blocks: their
     first free must stay legal (recovery code returns old memory), but
     the *second* free of the same block is still a double free. *)
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc al 32 in
  Arena.crash a;
  let al2 = Alloc.recover a in
  Alloc.free al2 x 32;
  expect_misuse "double free after recovery" (fun () -> Alloc.free al2 x 32)

(* [alloc_recycled] pops only a freed block of the exact (size, align)
   class, never bumps the cursor, and hands the block out under the same
   bookkeeping as [alloc]. *)
let test_alloc_recycled_empty () =
  let a = arena () in
  let al = Alloc.create a in
  let cursor = Alloc.cursor al in
  check_bool "nothing freed: None" true
    (Alloc.alloc_recycled ~align:64 al 128 = None);
  check_int "the cursor did not move" cursor (Alloc.cursor al);
  check_int "no allocation counted" 0 (Alloc.allocations al)

let test_alloc_recycled_exact () =
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc ~align:64 al 128 in
  Alloc.free ~align:64 al x 128;
  check_bool "another size: None" true
    (Alloc.alloc_recycled ~align:64 al 192 = None);
  check_bool "another alignment: None" true
    (Alloc.alloc_recycled ~align:8 al 128 = None);
  check_bool "the exact class: the freed block" true
    (Alloc.alloc_recycled ~align:64 al 128 = Some x);
  check_bool "popped once" true (Alloc.alloc_recycled ~align:64 al 128 = None)

let test_alloc_recycled_accounting () =
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc ~align:64 al 128 in
  Alloc.free ~align:64 al x 128;
  let live = Alloc.live_bytes al and n = Alloc.allocations al in
  let y = Option.get (Alloc.alloc_recycled ~align:64 al 128) in
  check_int "live bytes grow by the block" (live + 128) (Alloc.live_bytes al);
  check_int "one more allocation" (n + 1) (Alloc.allocations al);
  (* the reused block is live again: one free is legal, a second is not *)
  Alloc.free ~align:64 al y 128;
  check_int "live bytes back" live (Alloc.live_bytes al);
  expect_misuse "double free after reuse" (fun () ->
      Alloc.free ~align:64 al y 128)

let test_alloc_recycled_annotated () =
  let a = arena () in
  let al = Alloc.create a in
  let x = Alloc.alloc ~align:64 al 128 in
  Alloc.free ~align:64 al x 128;
  let seen = ref [] in
  Arena.set_tracer a (Some (fun e -> seen := e :: !seen));
  ignore (Alloc.alloc_recycled ~align:64 al 128);
  Arena.set_tracer a None;
  check_bool "Pmcheck.allocated emitted for the reused block" true
    (List.mem (Trace.Allocated { addr = x; len = 128 }) !seen)

(* ------------------------------------------------------------------ *)
(* Block device                                                        *)
(* ------------------------------------------------------------------ *)

let test_block_roundtrip () =
  let d = Block_dev.create () in
  let b = Bytes.make (Block_dev.block_size d) 'x' in
  Block_dev.write d 3 b;
  Alcotest.(check bytes) "block read back" b (Block_dev.read d 3)

let test_block_absent_is_zero () =
  let d = Block_dev.create () in
  let b = Block_dev.read d 42 in
  check_bool "zeroed" true (Bytes.for_all (fun c -> c = '\000') b)

let test_block_cost_model () =
  let d = Block_dev.create ~syscall_ns:2500 () in
  Clock.reset ();
  Block_dev.write d 0 (Bytes.make 4096 'a');
  (* 4096/64 = 64 cachelines at 150 ns + 2500 ns syscall. *)
  check_int "write cost" (2500 + (64 * 150)) (Clock.now ())

let test_block_survives_crash () =
  let d = Block_dev.create () in
  Block_dev.write d 1 (Bytes.make 4096 'z');
  Block_dev.crash d;
  Alcotest.(check bytes) "durable" (Bytes.make 4096 'z') (Block_dev.read d 1)

(* ------------------------------------------------------------------ *)
(* Sim_mutex                                                           *)
(* ------------------------------------------------------------------ *)

let test_sim_mutex_serialises_time () =
  let m = Sim_mutex.create ~acquire_ns:0 () in
  Clock.reset ();
  Sim_mutex.with_lock m (fun () -> Clock.advance 100);
  (* A later acquirer whose clock is behind must be pulled forward. *)
  Clock.set 10;
  Sim_mutex.lock m;
  check_int "waited until release time" 100 (Clock.now ());
  Sim_mutex.unlock m

let test_sim_mutex_no_wait_when_ahead () =
  let m = Sim_mutex.create ~acquire_ns:0 () in
  Clock.reset ();
  Sim_mutex.with_lock m (fun () -> Clock.advance 50);
  Clock.set 500;
  Sim_mutex.lock m;
  check_int "no artificial wait" 500 (Clock.now ());
  Sim_mutex.unlock m

(* Wait and hold on a hand-computed two-fiber schedule (acquire 10 ns).
   Both fibers start at 0; ties go to fiber 0.
   - fiber 0 locks (yield, resumes first: free) at 0, pays 10: holds from
     10; works 100 to 110 and yields inside the section;
   - fiber 1 (clock 0) works 30, reaches the lock at 30, finds it held
     and chases the holder: its clock jumps to 110 + 1 = 111 (wait 81)
     and it yields;
   - fiber 0 (110 < 111) releases at 110: hold 100;
   - fiber 1 finds the lock free; the release at 110 is behind its 111,
     so no further wait; it pays 10 and holds from 121 to 171: hold 50.
   Totals: wait 81, hold 150 — and the schedule's clocks are exactly
   those of the lock without any accounting. *)
let test_sim_mutex_wait_hold () =
  let m = Sim_mutex.create ~acquire_ns:10 () in
  Clock.reset ();
  let finish = Array.make 2 0 in
  let makespan =
    Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun f _ ->
        if f = 0 then begin
          Sim_mutex.lock m;
          Clock.advance 100;
          Sim_threads.yield ();
          Sim_mutex.unlock m
        end
        else begin
          Clock.advance 30;
          Sim_mutex.with_lock m (fun () -> Clock.advance 50)
        end;
        finish.(f) <- Clock.now ())
  in
  check_int "fiber 0 ends at its release" 110 finish.(0);
  check_int "fiber 1 ends after its own section" 171 finish.(1);
  check_int "makespan" 171 makespan;
  check_int "wait" 81 (Sim_mutex.wait_ns m);
  check_int "hold" 150 (Sim_mutex.hold_ns m)

(* Outside the scheduler the release-time rule is the whole wait. *)
let test_sim_mutex_wait_no_scheduler () =
  let m = Sim_mutex.create ~acquire_ns:0 () in
  Clock.reset ();
  Sim_mutex.with_lock m (fun () -> Clock.advance 100);
  Clock.set 10;
  Sim_mutex.with_lock m (fun () -> Clock.advance 5);
  Clock.set 500;
  Sim_mutex.with_lock m ignore;
  check_int "waited from 10 to the release at 100" 90 (Sim_mutex.wait_ns m);
  check_int "held 100 + 5 + 0" 105 (Sim_mutex.hold_ns m)

(* Fibers with uneven work between their sections reach one lock at
   scattered simulated times, and the lock is contended (acquirers
   wait).  Each grant goes to the earliest arrival still waiting, so the
   arrival times, read in grant order, never decrease. *)
let test_sim_mutex_arrival_order () =
  let m = Sim_mutex.create ~acquire_ns:5 () in
  let grants = ref [] in
  ignore
    (Sim_threads.run ~threads:4 ~ops_per_thread:8 (fun f i ->
         Clock.advance ((f + 1) * 37 + (i * 13 mod 29));
         let arrival = Clock.now () in
         Sim_mutex.with_lock m (fun () ->
             grants := arrival :: !grants;
             Clock.advance (20 + (11 * f)))));
  let arrivals = List.rev !grants in
  check_int "every section granted" 32 (List.length arrivals);
  check_bool "contended" true (Sim_mutex.wait_ns m > 0);
  check_bool "granted in arrival order" true
    (arrivals = List.stable_sort compare arrivals)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Durability property: a random mix of cached writes, NT writes, flushes
   and a final crash must leave exactly the persisted state visible. *)
let prop_durability =
  QCheck.Test.make ~name:"crash keeps persisted writes and only those" ~count:200
    QCheck.(list (pair (int_bound 63) (int_bound 1000)))
    (fun ops ->
      let a = arena ~size:8192 () in
      let durable = Hashtbl.create 16 and volatile = Hashtbl.create 16 in
      List.iter
        (fun (slot, v) ->
          let off = 1024 + (slot * 8) in
          let v = Int64.of_int v in
          if v < 300L then begin
            Arena.write a off v;
            Hashtbl.replace volatile off v
          end
          else if v < 600L then begin
            Arena.nt_write a off v;
            Hashtbl.replace volatile off v;
            Hashtbl.replace durable off v
          end
          else begin
            Arena.write a off v;
            Hashtbl.replace volatile off v;
            Arena.flush_line a off;
            (* the whole line persists *)
            let line = off land lnot 63 in
            Hashtbl.iter
              (fun o v -> if o land lnot 63 = line then Hashtbl.replace durable o v)
              volatile
          end)
        ops;
      Arena.crash a;
      Hashtbl.fold (fun off v acc -> acc && Arena.read a off = v) durable true)

(* Write-back shares: for each n, the n shares (k, n) of one random dirty
   set, spread over several chunks, write every dirty line back exactly
   once between them, share k only lines k mod n, and leave what one
   [flush_all] leaves — the durable image, [nvm_writes] and [flushes];
   the share (0, 1) is [flush_all] trace event for trace event. *)
let prop_flush_share =
  QCheck.Test.make ~name:"write-back shares partition flush_all" ~count:100
    QCheck.(list (pair (int_bound 12_000) (int_bound 1000)))
    (fun stores ->
      let size = (3 * 65536) + 4096 in
      let offs = List.map (fun (w, v) -> (512 + (w * 16), v)) stores in
      let dirtied () =
        let a = arena ~size () in
        List.iter (fun (off, v) -> Arena.write a off (Int64.of_int v)) offs;
        let events = ref [] in
        Arena.set_tracer a (Some (fun e -> events := e :: !events));
        (a, events)
      in
      let line_bytes = (Arena.config (arena ())).Config.cacheline_bytes in
      let dirty =
        List.sort_uniq compare
          (List.map (fun (off, _) -> off / line_bytes * line_bytes) offs)
      in
      let flushed events =
        List.filter_map
          (function Trace.Flush { off; _ } -> Some off | _ -> None)
          !events
      in
      let counts a =
        let s = Arena.stats a in
        (s.Stats.nvm_writes, s.Stats.flushes)
      in
      let durable_image a =
        Arena.crash a;
        Arena.read_bytes a 0 size
      in
      let whole, whole_events = dirtied () in
      Arena.flush_all whole;
      let one, one_events = dirtied () in
      Arena.flush_all ~share:(0, 1) one;
      let same_events = !one_events = !whole_events in
      let whole_counts = counts whole and whole_image = durable_image whole in
      same_events
      && List.for_all
           (fun n ->
             let a, events = dirtied () in
             let shares =
               List.init n (fun k ->
                   events := [];
                   Arena.flush_all ~share:(k, n) a;
                   (k, flushed events))
             in
             List.for_all
               (fun (k, lines) ->
                 List.for_all (fun off -> off / line_bytes mod n = k) lines)
               shares
             && List.sort compare (List.concat_map snd shares) = dirty
             && counts a = whole_counts
             && durable_image a = whole_image)
           [ 1; 2; 3; 4 ])

let prop_alloc_disjoint =
  QCheck.Test.make ~name:"allocations never overlap" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 1 128))
    (fun sizes ->
      let a = arena ~size:(1 lsl 20) () in
      let al = Alloc.create a in
      let regions =
        List.map (fun s -> (Alloc.alloc al s, (s + 7) land lnot 7)) sizes
      in
      let rec disjoint = function
        | [] -> true
        | (o, s) :: rest ->
            List.for_all (fun (o', s') -> o + s <= o' || o' + s' <= o) rest
            && disjoint rest
      in
      disjoint regions)

(* ------------------------------------------------------------------ *)
(* Differential test: the chunked arena against a flat model           *)
(* ------------------------------------------------------------------ *)

(* The oracle: the arena's semantics over two flat images and one flag
   per line, with no chunks.  It counts the statistics and records the
   trace events the arena must (loads untraced, clock not modelled). *)
module Flat = struct
  type t = {
    size : int;
    shift : int;
    vol : Bytes.t;
    dur : Bytes.t;
    dirty : bool array;
    pinned : bool array;
    st : Stats.t;
    fault : Fault_model.t option;
    recent : int array;
    mutable recent_n : int;
    mutable last_line : int;
    mutable countdown : int;
    mutable since_fence : bool;
    events : Trace.event list ref;  (* newest first *)
  }

  let create ?fault ~events ~line size =
    let lines = (size + line - 1) / line in
    let shift = ref 0 in
    while 1 lsl !shift < line do incr shift done;
    { size; shift = !shift; vol = Bytes.make size '\000';
      dur = Bytes.make size '\000'; dirty = Array.make lines false;
      pinned = Array.make lines false; st = Stats.create (); fault;
      recent = Array.make 64 0; recent_n = 0; last_line = -1;
      countdown = -1; since_fence = false; events }

  let ev m e = m.events := e :: !(m.events)
  let line m off = off lsr m.shift

  let span m l =
    let b = l lsl m.shift in
    (b, min (1 lsl m.shift) (m.size - b))

  let crash m =
    Array.iteri
      (fun l d ->
        if d && not m.pinned.(l) then
          match m.fault with
          | Some fm when Fault_model.survives_crash fm ->
              let b, n = span m l in
              Bytes.blit m.vol b m.dur b n;
              m.st.crash_survivals <- m.st.crash_survivals + 1
          | _ -> ())
      m.dirty;
    Bytes.blit m.dur 0 m.vol 0 m.size;
    Array.fill m.dirty 0 (Array.length m.dirty) false;
    Array.fill m.pinned 0 (Array.length m.pinned) false;
    m.last_line <- -1;
    m.since_fence <- false;
    m.countdown <- -1;
    m.st.crashes <- m.st.crashes + 1;
    ev m Trace.Crash

  let persist_event m =
    if m.countdown = 0 then begin crash m; raise Arena.Crash end
    else if m.countdown > 0 then m.countdown <- m.countdown - 1

  let charge m l =
    if l <> m.last_line then begin
      m.last_line <- l;
      m.st.nvm_writes <- m.st.nvm_writes + 1
    end

  let evict m l =
    if m.dirty.(l) && not m.pinned.(l) then begin
      let b, n = span m l in
      Bytes.blit m.vol b m.dur b n;
      m.dirty.(l) <- false;
      m.st.evictions <- m.st.evictions + 1;
      ev m (Trace.Evict { off = b })
    end

  let mark m l =
    m.dirty.(l) <- true;
    if m.fault <> None then begin
      m.recent.(m.recent_n land 63) <- l;
      m.recent_n <- m.recent_n + 1
    end

  let roll m =
    match m.fault with
    | Some fm when Fault_model.roll_eviction fm ->
        evict m m.recent.(Fault_model.choose fm (min m.recent_n 64))
    | _ -> ()

  let media m off =
    match m.fault with
    | Some fm when Fault_model.media_faulty fm ~line:(line m off) ->
        m.st.media_faults <- m.st.media_faults + 1;
        true
    | _ -> false

  let lines_touched m off len =
    if len <= 0 then 1 else line m (off + len - 1) - line m off + 1

  let read m off =
    m.st.loads <- m.st.loads + 1;
    let v = Bytes.get_int64_le m.vol off in
    if media m off then Int64.logxor v 0xA5A5A5A5A5A5A5A5L else v

  let write m off v =
    m.st.stores <- m.st.stores + 1;
    Bytes.set_int64_le m.vol off v;
    mark m (line m off);
    if line m (off + 7) <> line m off then mark m (line m (off + 7));
    ev m (Trace.Store { off; len = 8; durable = false });
    roll m

  let read_byte m off =
    m.st.loads <- m.st.loads + 1;
    let v = Char.code (Bytes.get m.vol off) in
    if media m off then v lxor 0xA5 else v

  let write_byte m off v =
    m.st.stores <- m.st.stores + 1;
    Bytes.set m.vol off (Char.chr (v land 0xff));
    mark m (line m off);
    ev m (Trace.Store { off; len = 1; durable = false });
    roll m

  let read_bytes m off len =
    m.st.loads <- m.st.loads + lines_touched m off len;
    String.init len (fun i ->
        let c = Char.code (Bytes.get m.vol (off + i)) in
        Char.chr (if media m (off + i) then c lxor 0xA5 else c))

  let write_bytes m off s =
    let len = String.length s in
    m.st.stores <- m.st.stores + lines_touched m off len;
    Bytes.blit_string s 0 m.vol off len;
    let first = line m off and last = line m (off + max 0 (len - 1)) in
    if off < m.size then for l = first to last do mark m l done;
    if len > 0 then ev m (Trace.Store { off; len; durable = false });
    for _ = first to last do roll m done

  let nt_write m off v =
    persist_event m;
    m.st.nt_stores <- m.st.nt_stores + 1;
    Bytes.set_int64_le m.vol off v;
    Bytes.set_int64_le m.dur off v;
    charge m (line m off);
    m.since_fence <- true;
    ev m (Trace.Store { off; len = 8; durable = true })

  let flush_line m off =
    let l = line m off in
    if m.dirty.(l) then begin
      persist_event m;
      m.st.flushes <- m.st.flushes + 1;
      let b, n = span m l in
      Bytes.blit m.vol b m.dur b n;
      m.dirty.(l) <- false;
      m.pinned.(l) <- false;
      charge m l;
      m.since_fence <- true;
      ev m (Trace.Flush { off = b; dirty = true })
    end
    else begin
      m.st.redundant_flushes <- m.st.redundant_flushes + 1;
      ev m (Trace.Flush { off; dirty = false })
    end

  let flush_range m off len =
    if len > 0 then
      for l = line m off to line m (off + len - 1) do
        flush_line m (l lsl m.shift)
      done

  let flush_all m =
    Array.iteri (fun l d -> if d then flush_line m (l lsl m.shift)) m.dirty

  let fence m =
    m.st.fences <- m.st.fences + 1;
    if not m.since_fence then
      m.st.redundant_fences <- m.st.redundant_fences + 1;
    m.since_fence <- false;
    m.last_line <- -1;
    ev m Trace.Fence

  let pin m off =
    m.pinned.(line m off) <- true;
    ev m (Trace.Pin { off })

  let unpin m off =
    m.pinned.(line m off) <- false;
    ev m (Trace.Unpin { off })

  let corrupt m off len =
    for i = off to off + len - 1 do
      let flip b = Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff)) in
      flip m.dur;
      flip m.vol
    done

  let open_lines m =
    List.filter
      (fun l -> m.dirty.(l) && not m.pinned.(l))
      (List.init (Array.length m.dirty) Fun.id)

  let materialize m ~survivors =
    let n = create ~events:m.events ~line:(1 lsl m.shift) m.size in
    Bytes.blit m.dur 0 n.dur 0 m.size;
    List.iter
      (fun l ->
        let b, len = span m l in
        Bytes.blit m.vol b n.dur b len)
      survivors;
    Bytes.blit n.dur 0 n.vol 0 m.size;
    n
end

let chunk = 65536

type op =
  | Read of int
  | Write of int * int64
  | Read_byte of int
  | Write_byte of int * int
  | Read_bytes of int * int
  | Write_bytes of int * string
  | Nt_write of int * int64
  | Flush_line of int
  | Flush_range of int * int
  | Flush_all
  | Fence
  | Pin of int
  | Unpin of int
  | Corrupt of int * int
  | Crash
  | Arm of int
  | Image of int  (* capture + materialize; the survivor-mask seed *)

type case = {
  size : int;
  line : int;
  fault : (int * int * int * int list) option;
      (* seed, eviction ppm, crash-survival ppm, media-faulty lines *)
  ops : op list;
}

(* Offsets crowd chunk boundaries and the arena's end; the property
   clamps each into the arena, so an offset past the end lands on the
   last bytes. *)
let gen_case =
  let open QCheck.Gen in
  let off =
    frequency
      [
        (3, int_bound (3 * chunk));
        (3, map2 (fun k d -> (k * chunk) - d) (int_range 1 3) (int_bound 24));
        (1, map (fun d -> max_int - d) (int_bound 8));
      ]
  in
  let word = map Int64.of_int int in
  let op =
    frequency
      [
        (4, map (fun o -> Read o) off);
        (6, map2 (fun o v -> Write (o, v)) off word);
        (2, map (fun o -> Read_byte o) off);
        (2, map2 (fun o v -> Write_byte (o, v)) off (int_bound 255));
        (2, map2 (fun o n -> Read_bytes (o, n)) off (int_bound 200));
        ( 3,
          map2 (fun o s -> Write_bytes (o, s)) off
            (string_size ~gen:printable (int_bound 200)) );
        (3, map2 (fun o v -> Nt_write (o, v)) off word);
        (3, map (fun o -> Flush_line o) off);
        (2, map2 (fun o n -> Flush_range (o, n)) off (int_bound 300));
        (1, return Flush_all);
        (3, return Fence);
        (2, map (fun o -> Pin o) off);
        (1, map (fun o -> Unpin o) off);
        (1, map2 (fun o n -> Corrupt (o, n)) off (int_range 1 12));
        (1, return Crash);
        (1, map (fun k -> Arm k) (int_bound 6));
        (1, map (fun s -> Image s) int);
      ]
  in
  let fault =
    opt
      (map3
         (fun seed (ev, sv) media -> (seed, ev, sv, media))
         int
         (pair (oneofl [ 0; 100_000; 400_000 ]) (oneofl [ 0; 500_000; 1_000_000 ]))
         (list_size (int_bound 3) (int_bound 3000)))
  in
  map3
    (fun (size, line) fault ops -> { size; line; fault; ops })
    (pair
       (oneofl [ (3 * chunk) + 100; chunk + 4037; (2 * chunk) - 24; 1000 ])
       (oneofl [ 32; 64; 256 ]))
    fault
    (list_size (int_range 1 120) op)

let print_case c =
  Printf.sprintf "size=%d line=%d fault=%b ops=%d" c.size c.line
    (c.fault <> None) (List.length c.ops)

let prop_differential =
  QCheck.Test.make ~name:"chunked arena matches the flat model" ~count:400
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let config = Config.default () in
      config.cacheline_bytes <- c.line;
      let fault () =
        Option.map
          (fun (seed, eviction_ppm, crash_survival_ppm, media) ->
            let fm = Fault_model.create ~eviction_ppm ~crash_survival_ppm ~seed () in
            List.iter (fun l -> Fault_model.set_media_fault fm ~line:l) media;
            fm)
          c.fault
      in
      let got = ref [] and want = ref [] in
      let attach a = Arena.set_tracer a (Some (fun e -> got := e :: !got)) in
      let ar = ref (Arena.create ~config ~size_bytes:c.size ()) in
      Arena.set_fault_model !ar (fault ());
      attach !ar;
      let md = ref (Flat.create ?fault:(fault ()) ~events:want ~line:c.line c.size) in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      let same_stats () =
        if Arena.stats !ar <> !md.Flat.st then
          fail "stats differ: %s vs %s"
            (Fmt.str "%a" Stats.pp (Arena.stats !ar))
            (Fmt.str "%a" Stats.pp !md.Flat.st)
      in
      let at need o = max 0 (min o (c.size - need)) in
      let both f g =
        let r x = try Ok (x ()) with Arena.Crash -> Error () in
        let x = r f and y = r g in
        if x <> y then fail "results differ"
      in
      let probe off =
        let off = at 8 off in
        if Arena.durable_read !ar off <> Bytes.get_int64_le !md.dur off then
          fail "durable_read %d differs" off;
        let l = Flat.line !md off in
        if Arena.is_dirty !ar off <> !md.dirty.(l) then fail "is_dirty %d differs" off;
        if Arena.is_pinned !ar off <> !md.pinned.(l) then fail "is_pinned %d differs" off
      in
      List.iter
        (fun op ->
          let a = !ar and m = !md in
          (match op with
          | Read o -> let o = at 8 o in both (fun () -> Arena.read a o) (fun () -> Flat.read m o)
          | Write (o, v) ->
              let o = at 8 o in
              both (fun () -> Arena.write a o v) (fun () -> Flat.write m o v)
          | Read_byte o ->
              let o = at 1 o in
              both (fun () -> Arena.read_byte a o) (fun () -> Flat.read_byte m o)
          | Write_byte (o, v) ->
              let o = at 1 o in
              both (fun () -> Arena.write_byte a o v) (fun () -> Flat.write_byte m o v)
          | Read_bytes (o, n) ->
              let o = at n o in
              both (fun () -> Arena.read_bytes a o n) (fun () -> Flat.read_bytes m o n)
          | Write_bytes (o, s) ->
              let o = at (String.length s) o in
              both (fun () -> Arena.write_bytes a o s) (fun () -> Flat.write_bytes m o s)
          | Nt_write (o, v) ->
              let o = at 8 o in
              both (fun () -> Arena.nt_write a o v) (fun () -> Flat.nt_write m o v)
          | Flush_line o ->
              let o = at 1 o in
              both (fun () -> Arena.flush_line a o) (fun () -> Flat.flush_line m o)
          | Flush_range (o, n) ->
              let o = at n o in
              both (fun () -> Arena.flush_range a o n) (fun () -> Flat.flush_range m o n)
          | Flush_all -> both (fun () -> Arena.flush_all a) (fun () -> Flat.flush_all m)
          | Fence -> both (fun () -> Arena.fence a) (fun () -> Flat.fence m)
          | Pin o -> let o = at 1 o in both (fun () -> Arena.pin_line a o) (fun () -> Flat.pin m o)
          | Unpin o ->
              let o = at 1 o in
              both (fun () -> Arena.unpin_line a o) (fun () -> Flat.unpin m o)
          | Corrupt (o, n) ->
              let o = at n o in
              both (fun () -> Arena.corrupt a o n) (fun () -> Flat.corrupt m o n)
          | Crash -> both (fun () -> Arena.crash a) (fun () -> Flat.crash m)
          | Arm k ->
              Arena.arm_crash a ~after:k;
              m.countdown <- k
          | Image seed ->
              let img = Arena.capture a in
              let lines = Arena.image_dirty_lines img in
              if lines <> Flat.open_lines m then fail "image_dirty_lines differ";
              let survivors = List.filter (fun l -> Hashtbl.hash (seed, l) land 1 = 0) lines in
              same_stats ();
              let a' = Arena.materialize img ~survivors in
              attach a';
              let m' = Flat.materialize m ~survivors in
              if not (Arena.crashed a') then fail "materialized arena not crashed";
              Arena.set_fault_model a' (fault ());
              ar := a';
              md := { m' with fault = fault () });
          match op with
          | Read o | Write (o, _) | Read_byte o | Write_byte (o, _) | Read_bytes (o, _)
          | Write_bytes (o, _) | Nt_write (o, _) | Flush_line o | Flush_range (o, _)
          | Pin o | Unpin o | Corrupt (o, _) ->
              probe o;
              probe (o + 64)
          | _ -> probe 0)
        c.ops;
      (* The whole of both images, every line's flags, the counters and
         the event streams. *)
      both (fun () -> Arena.read_bytes !ar 0 c.size) (fun () -> Flat.read_bytes !md 0 c.size);
      for w = 0 to (c.size / 8) - 1 do
        probe (w * 8)
      done;
      probe c.size;
      for l = 0 to Array.length !md.dirty - 1 do
        probe (l * c.line)
      done;
      same_stats ();
      if !got <> !want then fail "trace event streams differ";
      true)

(* Size independence: on a 1 GiB arena, create, crash, flush_all,
   capture and materialize each allocate what the three touched lines
   need — under 1 MiB — and not what the arena spans. *)
let test_cost_follows_touched_lines () =
  let size = 1 lsl 30 in
  let offs = [ 1024; (size / 2) + 8; size - 8 ] in
  let allocates what f =
    let before = Gc.allocated_bytes () in
    let r = f () in
    let bytes = Gc.allocated_bytes () -. before in
    if bytes >= 1048576. then
      Alcotest.failf "%s allocated %.0f bytes on a 1 GiB arena" what bytes;
    r
  in
  let a = allocates "create" (fun () -> Arena.create ~size_bytes:size ()) in
  let store v = List.iter (fun o -> Arena.write a o v) offs in
  store 1L;
  allocates "crash" (fun () -> Arena.crash a);
  List.iter (fun o -> check_i64 "crash lost the store" 0L (Arena.read a o)) offs;
  store 2L;
  allocates "flush_all" (fun () -> Arena.flush_all a);
  List.iter (fun o -> check_i64 "flushed" 2L (Arena.durable_read a o)) offs;
  store 3L;
  let img = allocates "capture" (fun () -> Arena.capture a) in
  let lines = Arena.image_dirty_lines img in
  check_int "three open lines" 3 (List.length lines);
  let b =
    allocates "materialize" (fun () ->
        Arena.materialize img ~survivors:[ List.hd lines ])
  in
  check_i64 "survivor line written back" 3L (Arena.read b (List.hd offs));
  List.iter (fun o -> check_i64 "lost line durable" 2L (Arena.read b o)) (List.tl offs)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "nvm"
    [
      ( "arena-durability",
        [
          tc "cached write visible" `Quick test_cached_write_visible;
          tc "cached write lost on crash" `Quick test_cached_write_lost_on_crash;
          tc "flush makes durable" `Quick test_flush_makes_durable;
          tc "nt write durable" `Quick test_nt_write_durable;
          tc "flush covers whole line" `Quick test_flush_line_covers_whole_line;
          tc "flush all" `Quick test_flush_all;
          tc "nt write does not persist neighbours" `Quick
            test_nt_write_does_not_persist_neighbours;
          tc "dirty tracking" `Quick test_dirty_tracking;
          tc "bytes roundtrip" `Quick test_bytes_roundtrip;
          tc "bounds check" `Quick test_bounds_check;
          tc "cost follows touched lines" `Quick test_cost_follows_touched_lines;
        ] );
      ( "arena-flush-range",
        [
          tc "zero length" `Quick test_flush_range_zero_length;
          tc "crosses line boundary" `Quick test_flush_range_crosses_line_boundary;
          tc "short tail line" `Quick
            test_flush_range_tail_line_shorter_than_cacheline;
          tc "clean interior lines free" `Quick
            test_flush_range_interior_clean_lines_free;
        ] );
      ( "arena-crash-injection",
        [
          tc "counts events" `Quick test_crash_injection_counts_events;
          tc "crash on flush" `Quick test_crash_injection_on_flush;
          tc "disarm" `Quick test_disarm;
          tc "clean flush is free" `Quick test_clean_flush_is_not_an_event;
          tc "rearm after disarm" `Quick test_rearm_after_disarm;
          tc "usable after injected crash" `Quick
            test_crash_event_not_double_counted;
        ] );
      ( "arena-costs",
        [
          tc "write combining" `Quick test_write_combining;
          tc "fence breaks combining" `Quick test_fence_breaks_combining;
          tc "distinct lines charged" `Quick test_distinct_lines_charged;
          tc "cached store cost" `Quick test_cached_store_cost;
          tc "write_bytes per line" `Quick test_write_bytes_charges_per_line;
          tc "read_bytes per line" `Quick test_read_bytes_charges_per_line;
        ] );
      ( "fault-model",
        [
          tc "deterministic rolls" `Quick test_fault_model_deterministic;
          tc "partial crash survival" `Quick test_partial_crash_survival;
          tc "zero survival = classic crash" `Quick
            test_zero_survival_is_classic_crash;
          tc "spontaneous eviction" `Quick test_spontaneous_eviction;
          tc "pinned line never survives crash" `Quick
            test_pinned_line_never_survives_crash;
          tc "pinned line not evicted" `Quick test_pinned_line_not_evicted;
          tc "flush clears pin" `Quick test_flush_clears_pin;
          tc "media fault corrupts reads" `Quick test_media_fault_corrupts_reads;
          tc "crc32 known vector" `Quick test_crc32_known_vector;
        ] );
      ( "roots",
        [
          tc "roots survive crash" `Quick test_roots_survive_crash;
          tc "bad root slot" `Quick test_bad_root_slot;
        ] );
      ( "alloc",
        [
          tc "distinct" `Quick test_alloc_distinct;
          tc "aligned" `Quick test_alloc_aligned;
          tc "free reuse" `Quick test_free_reuse;
          tc "fresh never reuses" `Quick test_alloc_fresh_never_reuses;
          tc "cursor survives crash" `Quick test_cursor_survives_crash;
          tc "out of memory" `Quick test_out_of_memory;
          tc "double free" `Quick test_free_double;
          tc "never-allocated free" `Quick test_free_never_allocated;
          tc "size-mismatch free" `Quick test_free_size_mismatch;
          tc "free after recovery" `Quick test_free_after_recover;
          tc "recycled: None when nothing is free" `Quick
            test_alloc_recycled_empty;
          tc "recycled: exact class only" `Quick test_alloc_recycled_exact;
          tc "recycled: accounting and double free" `Quick
            test_alloc_recycled_accounting;
          tc "recycled: allocation annotated" `Quick
            test_alloc_recycled_annotated;
        ] );
      ( "block-dev",
        [
          tc "roundtrip" `Quick test_block_roundtrip;
          tc "absent is zero" `Quick test_block_absent_is_zero;
          tc "cost model" `Quick test_block_cost_model;
          tc "survives crash" `Quick test_block_survives_crash;
        ] );
      ( "sim-mutex",
        [
          tc "serialises time" `Quick test_sim_mutex_serialises_time;
          tc "no wait when ahead" `Quick test_sim_mutex_no_wait_when_ahead;
          tc "wait and hold, two fibers" `Quick test_sim_mutex_wait_hold;
          tc "wait and hold, no scheduler" `Quick
            test_sim_mutex_wait_no_scheduler;
          tc "grants in arrival order" `Quick test_sim_mutex_arrival_order;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_durability;
          QCheck_alcotest.to_alcotest prop_flush_share;
          QCheck_alcotest.to_alcotest prop_alloc_disjoint;
          QCheck_alcotest.to_alcotest prop_differential;
        ] );
    ]
