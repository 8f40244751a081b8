(* What one round of a workload reports, and the two steps every workload
   shares: metering its measured operations, and a power failure followed
   by restart. *)

open Rewind_nvm

let wall = Unix.gettimeofday

type recovery = {
  sim_ns : int;  (** [Alloc.recover] + [Tm.attach] on the simulated clock *)
  crash_wall : float;  (** seconds in [Arena.crash] *)
  alloc_wall : float;  (** seconds in [Alloc.recover] *)
  attach_wall : float;  (** seconds in [Tm.attach] *)
  work : Stats.t;  (** NVM work of the recovery *)
  report : Rewind.Tm.recovery_report;
  phases : (string * int) list;  (** recovery profile: phase, simulated ns *)
}

let recovery_wall r = r.crash_wall +. r.alloc_wall +. r.attach_wall

(* The totals of a round's measured operations, possibly in several
   stretches.  It holds no reference to the arena, so a finished round's
   arena can be collected while its totals are kept. *)
type meter = {
  mutable wall_s : float;
  mutable traced_wall_s : float;  (** of [wall_s], inside outermost spans *)
  mutable sim_ns : int;
  stats : Stats.t;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
}

let meter () =
  {
    wall_s = 0.;
    traced_wall_s = 0.;
    sim_ns = 0;
    stats = Stats.create ();
    minor_words = 0.;
    promoted_words = 0.;
    major_collections = 0;
  }

(* Run [f] as measured operations on [arena]: charge its wall time,
   simulated time, NVM counters and allocation to [m]. *)
let metered m (layer : Layer.t) arena f =
  let s0 = Stats.snapshot (Arena.stats arena) in
  let top0 = layer.top_wall in
  let g0 = Gc.quick_stat () in
  let c = Clock.start () in
  let w0 = wall () in
  let v = f () in
  let w1 = wall () in
  m.sim_ns <- m.sim_ns + Clock.elapsed c;
  let g1 = Gc.quick_stat () in
  Stats.add m.stats (Stats.diff (Arena.stats arena) s0);
  m.wall_s <- m.wall_s +. (w1 -. w0);
  m.traced_wall_s <- m.traced_wall_s +. (layer.top_wall -. top0);
  m.minor_words <- m.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  m.promoted_words <-
    m.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  m.major_collections <-
    m.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  v

type t = {
  attempted : int;  (** operations issued *)
  failed : int;
      (** operations, or checked cells, that disagreed with the model *)
  lat_ns : int array;  (** simulated latency of every operation *)
  ops_per_sim_s : float;
  meter : meter;
  commits : int;
  recoveries : recovery list;
  nvm_bytes : int;  (** persistent heap in use after the measured work *)
  digest : int;  (** CRC-32 of the generated input stream *)
  extra : (string * float * string) list;
      (** workload-specific simulated per-layer metrics: name, value, unit *)
}

(* Everything a round computes on the simulated clock.  Identical inputs
   must give identical values, traced or not, in every round. *)
let sim_view r =
  ( (r.attempted, r.failed, r.lat_ns, r.ops_per_sim_s, r.commits),
    (r.digest, r.nvm_bytes, r.meter.stats, r.meter.sim_ns),
    List.map
      (fun (x : recovery) -> (x.sim_ns, x.work, x.report, x.phases))
      r.recoveries,
    r.extra )

(* Power failure, then restart: [Arena.crash], [Alloc.recover],
   [Tm.attach].  Returns the recovered allocator and manager. *)
let crash_recover layer arena ~cfg ~root_slot =
  let w0 = wall () in
  Layer.span layer "nvm.crash" (fun () -> Arena.crash arena);
  let w1 = wall () in
  let s0 = Stats.snapshot (Arena.stats arena) in
  let c = Clock.start () in
  let alloc =
    Layer.span layer "nvm.alloc_recover" (fun () -> Alloc.recover arena)
  in
  let w2 = wall () in
  let tm =
    Layer.span layer "core.attach" (fun () ->
        Rewind.Tm.attach ~cfg alloc ~root_slot)
  in
  let w3 = wall () in
  let sim_ns = Clock.elapsed c in
  let work = Stats.diff (Arena.stats arena) s0 in
  let report =
    match Rewind.Tm.last_recovery tm with
    | Some r -> r
    | None -> failwith "Tm.attach left no recovery report"
  in
  let phases =
    match Rewind.Tm.last_recovery_profile tm with
    | None -> []
    | Some p ->
        List.map (fun ph -> (ph.Probe.name, ph.Probe.sim_ns)) (Probe.phases p)
  in
  ( alloc,
    tm,
    {
      sim_ns;
      crash_wall = w1 -. w0;
      alloc_wall = w2 -. w1;
      attach_wall = w3 -. w2;
      work;
      report;
      phases;
    } )

let throughput ops sim_ns =
  if sim_ns <= 0 then 0. else float_of_int ops /. (float_of_int sim_ns /. 1e9)

(* The input digest: CRC-32 over every generated value, in order. *)
let digest () = ref Crc32.init
let feed d v = d := Crc32.update_int64 !d (Int64.of_int v)
let digest_value d = Crc32.finish !d

(* [n] random writes over [cells] cells: cell indices and 48-bit values,
   fed to the digest. *)
let random_writes rng d ~n ~cells =
  let cell = Array.make n 0 and value = Array.make n 0 in
  for k = 0 to n - 1 do
    cell.(k) <- Rewind_tpcc.Rng.int rng 0 (cells - 1);
    value.(k) <- Int64.to_int (Rewind_tpcc.Rng.next rng) land 0xFFFF_FFFF_FFFF;
    feed d cell.(k);
    feed d value.(k)
  done;
  (cell, value)

type workload = {
  name : string;
  prepare : tiny:bool -> seed:int -> Layer.t -> t;
      (** Set up a fresh system and generate the inputs; the returned
          function runs the round. *)
}
