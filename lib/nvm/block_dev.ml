(* Simulated PMFS-style block device for the baseline systems.

   The paper runs Stasis, BerkeleyDB and Shore-MT over PMFS: a kernel,
   byte-addressability-optimised file system on NVM reached through
   ordinary file-system calls.  Costs per operation therefore combine a
   kernel crossing with NVM writes at cacheline granularity.  As in the
   paper's setup, only user-data writes are charged NVM latency — the file
   system's internal bookkeeping is free — which deliberately favours the
   baselines.

   Durability model: [write] makes a block durable immediately (PMFS is a
   synchronous, cache-bypassing store), so baseline recovery reads exactly
   the blocks written before the crash. *)

type t = {
  arena_cfg : Config.t;
  block_size : int;
  syscall_ns : int;
  blocks : (int, Bytes.t) Hashtbl.t;
  mutable writes : int;
  mutable reads : int;
}

let create ?(config = Config.default ()) ?(block_size = 4096) ?(syscall_ns = 2500) () =
  {
    arena_cfg = config;
    block_size;
    syscall_ns;
    blocks = Hashtbl.create 1024;
    writes = 0;
    reads = 0;
  }

let block_size t = t.block_size

(* Writing a block costs one kernel crossing plus one NVM write per
   cacheline of user data actually transferred. *)
let charge_write t len =
  let lines =
    (len + t.arena_cfg.Config.cacheline_bytes - 1)
    / t.arena_cfg.Config.cacheline_bytes
  in
  Clock.advance (t.syscall_ns + (lines * t.arena_cfg.Config.nvm_write_ns))

let write t idx data =
  if Bytes.length data > t.block_size then invalid_arg "Block_dev.write: oversized";
  t.writes <- t.writes + 1;
  charge_write t (Bytes.length data);
  Hashtbl.replace t.blocks idx (Bytes.copy data)

(* Partial block write, e.g. a log tail smaller than a block. *)
let write_sub t idx data len =
  t.writes <- t.writes + 1;
  charge_write t len;
  let b =
    match Hashtbl.find_opt t.blocks idx with
    | Some b -> Bytes.copy b
    | None -> Bytes.make t.block_size '\000'
  in
  Bytes.blit data 0 b 0 len;
  Hashtbl.replace t.blocks idx b

let read t idx =
  t.reads <- t.reads + 1;
  Clock.advance t.syscall_ns;
  match Hashtbl.find_opt t.blocks idx with
  | Some b -> Bytes.copy b
  | None -> Bytes.make t.block_size '\000'

let mem t idx = Hashtbl.mem t.blocks idx

let sync t =
  (* PMFS writes are already durable; fsync is just a kernel crossing. *)
  Clock.advance t.syscall_ns

let writes t = t.writes
let reads t = t.reads

(* A crash loses nothing at the device level; volatile state (page caches,
   log buffers) lives in the baseline systems themselves. *)
let crash (_ : t) = ()
