(* Seeded adversarial fault model for the simulated NVM (the "arbitrary
   eviction" adversary of NVTraverse / In-Cache-Line Logging).

   Real hardware may write a dirty cacheline back to NVM at any moment —
   not only at an explicit flush — and a power failure persists an
   unpredictable *subset* of the dirty lines rather than none of them.
   An armed fault model makes {!Arena} behave that way:

   - {b partial-eviction crash}: at crash time each dirty line survives
     independently with probability [crash_survival_ppm] / 1e6, instead
     of all dirty lines being dropped;
   - {b spontaneous eviction}: every cached store rolls a die with
     probability [eviction_ppm] / 1e6 to write back one recently-dirtied
     line, modelling clean-capacity eviction under cache pressure;
   - {b media faults}: designated lines return corrupted data on every
     cached read, modelling NVM media wear (detected downstream by record
     checksums).

   All randomness comes from one {!Random.State} seeded at creation, so a
   (seed, workload) pair replays the identical fault schedule — the basis
   of the reproducible fault campaign in [bin/faultcamp]. *)

type t = {
  seed : int;
  rng : Random.State.t;
  eviction_ppm : int;
  crash_survival_ppm : int;
  media_faulty : (int, unit) Hashtbl.t;  (* line number -> faulty *)
}

let ppm_max = 1_000_000

let check_ppm name p =
  if p < 0 || p > ppm_max then
    Fmt.invalid_arg "Fault_model: %s=%d not in [0,%d]" name p ppm_max

let create ?(eviction_ppm = 0) ?(crash_survival_ppm = 500_000) ~seed () =
  check_ppm "eviction_ppm" eviction_ppm;
  check_ppm "crash_survival_ppm" crash_survival_ppm;
  {
    seed;
    rng = Random.State.make [| seed; 0x5EED; seed lxor 0x9E3779B9 |];
    eviction_ppm;
    crash_survival_ppm;
    media_faulty = Hashtbl.create 4;
  }

let seed t = t.seed
let eviction_ppm t = t.eviction_ppm
let crash_survival_ppm t = t.crash_survival_ppm

let roll t ppm = ppm > 0 && Random.State.int t.rng ppm_max < ppm

(* One die roll per cached store; [true] asks the arena to evict a
   recently-dirtied line. *)
let roll_eviction t = roll t t.eviction_ppm

(* One die roll per dirty line at crash time, in ascending line order, so
   a given seed always yields the same eviction mask. *)
let survives_crash t = roll t t.crash_survival_ppm

let choose t n = if n <= 0 then 0 else Random.State.int t.rng n

let set_media_fault t ~line = Hashtbl.replace t.media_faulty line ()
let clear_media_fault t ~line = Hashtbl.remove t.media_faulty line
let media_faulty t ~line = Hashtbl.mem t.media_faulty line
let media_fault_count t = Hashtbl.length t.media_faulty

let pp ppf t =
  Fmt.pf ppf "{seed=%d; evict=%dppm; survive=%dppm; media_faults=%d}" t.seed
    t.eviction_ppm t.crash_survival_ppm
    (Hashtbl.length t.media_faulty)
