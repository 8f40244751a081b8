(* Span/phase profiler: named accumulators of simulated time and NVM
   counter deltas.  See the interface for the attribution story. *)

type phase = {
  name : string;
  mutable count : int;
  mutable sim_ns : int;
  stats : Stats.t;
}

type t = {
  tbl : (string, phase) Hashtbl.t;
  mutable order : phase list;  (* newest first *)
}

let create () = { tbl = Hashtbl.create 16; order = [] }

let get t name =
  match Hashtbl.find_opt t.tbl name with
  | Some p -> p
  | None ->
      let p = { name; count = 0; sim_ns = 0; stats = Stats.create () } in
      Hashtbl.replace t.tbl name p;
      t.order <- p :: t.order;
      p

let charge t name ~sim_ns ~stats =
  let p = get t name in
  p.count <- p.count + 1;
  p.sim_ns <- p.sim_ns + sim_ns;
  Stats.add p.stats stats

let span t stats name f =
  let before = Stats.snapshot stats in
  let t0 = Clock.now () in
  let finish () =
    charge t name ~sim_ns:(Clock.now () - t0) ~stats:(Stats.diff stats before)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let phases t = List.rev t.order
let find t name = Hashtbl.find_opt t.tbl name

let total_sim_ns t =
  List.fold_left (fun acc p -> acc + p.sim_ns) 0 (phases t)

let pp ppf t =
  List.iter
    (fun p ->
      Fmt.pf ppf "%-16s %6dx  %a  (lines %d, nt %d, flushes %d, fences %d)@."
        p.name p.count Clock.pp_ns p.sim_ns p.stats.Stats.nvm_writes
        p.stats.Stats.nt_stores p.stats.Stats.flushes p.stats.Stats.fences)
    (phases t)
