(* Distributed REWIND: two-phase commit with presumed abort across N
   independent REWIND nodes, each a private simulated-NVM arena with its
   own allocator and transaction manager.

   The commit authority is split exactly as in the classical protocol:

   - a participant's vote is its durable PREPARE record ({!Tm.prepare});
     from that point its transaction is in doubt and survives recovery
     un-undone until resolved;
   - the coordinator's durable decision record, in its own WAL, is the
     only thing that can turn an in-doubt transaction into a commit.
     Absence of a decision means abort (presumed abort), so aborts cost
     the coordinator no log writes at all;
   - after every participant has ACKed the commit the decision record is
     removed (ACK-driven forgetting) — it has no reader left.

   Messages traverse a lossy simulated fabric ({!Net}); every RPC is
   retried with bounded exponential backoff on the simulated clock, and
   the participant-side handlers are idempotent so a retry after a lost
   reply is harmless.  Any component may crash at any persistence event
   ([Arena.Crash]); a crashed component simply stops answering until
   {!recover} replays its logs. *)

open Rewind_nvm

type config = {
  nodes : int;
  tm_cfg : Rewind.Tm.config;
  arena_kb : int;          (* per component (coordinator and each node) *)
  latency_ns : int;
  drop_1_in : int;         (* 0 = lossless fabric *)
  seed : int;
  max_retries : int;       (* RPC retries before the caller gives up *)
  backoff_ns : int;        (* base backoff, doubled per retry *)
}

let default_config =
  {
    nodes = 3;
    tm_cfg = Rewind.config_1l_nfp;
    arena_kb = 512;
    latency_ns = 1500;
    drop_1_in = 0;
    seed = 1;
    max_retries = 3;
    backoff_ns = 4000;
  }

(* Root-slot map.  Participants: allocator cursor at 1, manager at 2.
   Coordinator: allocator cursor at 1, decision log at 2, durable gtid
   high-water mark at 3 (so a recovered coordinator never reuses a global
   transaction id whose decision record was already forgotten). *)
let node_tm_slot = 2
let decision_log_slot = 2
let gtid_slot = 3

type node = {
  id : int;
  n_arena : Arena.t;
  mutable n_alloc : Alloc.t;
  mutable n_tm : Rewind.Tm.t option;  (* None while crashed *)
  (* Volatile handler state, lost with the node.  [active] makes the
     execute handler idempotent across retries; [prepared] does the same
     for phase 1 (the durable PREPARE must not be appended twice). *)
  active : (int, Rewind.Tm.txn) Hashtbl.t;
  prepared : (int, Rewind.Tm.txn) Hashtbl.t;
}

type t = {
  cfg : config;
  net : Net.t;
  c_arena : Arena.t;
  mutable c_alloc : Alloc.t;
  mutable c_log : Rewind.Log.t option;  (* None while crashed *)
  nodes : node array;
  mutable next_gtid : int;
  mutable committed : int;
  mutable aborted : int;
  mutable unknown : int;
  mutable retries : int;
  mutable decisions : int;
  mutable forgotten : int;
  (* Test hook: coordinator dies right after the decision record is
     durable, before any COMMIT message is sent — the state a crash armed
     at a persistence event cannot reach because no coordinator
     persistence event separates the decision from the fan-out. *)
  mutable chaos_after_decision : bool;
}

type outcome = Committed | Aborted | Unknown

let pp_outcome ppf = function
  | Committed -> Fmt.string ppf "committed"
  | Aborted -> Fmt.string ppf "aborted"
  | Unknown -> Fmt.string ppf "unknown"

type op = { node : int; addr : int; value : int64 }

let create (cfg : config) =
  if cfg.nodes < 1 then invalid_arg "Twopc.create: need at least one node";
  let size_bytes = cfg.arena_kb lsl 10 in
  let c_arena = Arena.create ~size_bytes () in
  let c_alloc = Alloc.create c_arena in
  let c_log =
    Rewind.Log.create Rewind.Log.Optimized c_alloc ~root_slot:decision_log_slot
  in
  Arena.root_set c_arena gtid_slot 1L;
  let nodes =
    Array.init cfg.nodes (fun id ->
        let n_arena = Arena.create ~size_bytes () in
        let n_alloc = Alloc.create n_arena in
        let tm = Rewind.Tm.create ~cfg:cfg.tm_cfg n_alloc ~root_slot:node_tm_slot in
        {
          id;
          n_arena;
          n_alloc;
          n_tm = Some tm;
          active = Hashtbl.create 8;
          prepared = Hashtbl.create 8;
        })
  in
  {
    cfg;
    net =
      Net.create ~latency_ns:cfg.latency_ns ~drop_1_in:cfg.drop_1_in
        ~seed:cfg.seed ();
    c_arena;
    c_alloc;
    c_log = Some c_log;
    nodes;
    next_gtid = 1;
    committed = 0;
    aborted = 0;
    unknown = 0;
    retries = 0;
    decisions = 0;
    forgotten = 0;
    chaos_after_decision = false;
  }

let nodes t = Array.length t.nodes
let coordinator_up t = t.c_log <> None
let node_up t i = t.nodes.(i).n_tm <> None
let node_arena t i = t.nodes.(i).n_arena
let coordinator_arena t = t.c_arena

(* Coordinator first, then the participants — the order the
   crash-everywhere sweep reports node indices in. *)
let arenas t = Array.append [| t.c_arena |] (Array.map (fun n -> n.n_arena) t.nodes)

let alloc_cell t i = Alloc.alloc_fresh t.nodes.(i).n_alloc 8
let read_cell t i addr = Arena.read t.nodes.(i).n_arena addr

let chaos_crash_coordinator_after_decision t on = t.chaos_after_decision <- on

(* Externally-injected power failures (demos, tests): the component's
   volatile state is discarded and it stops answering until {!recover}. *)
let crash_node t i =
  let n = t.nodes.(i) in
  Arena.crash n.n_arena;
  n.n_tm <- None

let crash_coordinator t =
  Arena.crash t.c_arena;
  t.c_log <- None

(* -- RPC plumbing ------------------------------------------------------- *)

(* One RPC to a participant: request hop, handler, reply hop.  A down node
   never answers; a node that crashes inside the handler is marked down
   (the caller sees a lost reply and retries into silence). *)
let node_call t n f =
  match n.n_tm with
  | None -> None
  | Some tm ->
      if not (Net.deliver t.net) then None
      else (
        match f tm with
        | v -> if Net.deliver t.net then Some v else None
        | exception Arena.Crash ->
            n.n_tm <- None;
            None)

let with_retries t n f =
  let rec go attempt =
    match node_call t n f with
    | Some _ as r -> r
    | None ->
        if attempt >= t.cfg.max_retries then None
        else begin
          t.retries <- t.retries + 1;
          Clock.advance (t.cfg.backoff_ns lsl min attempt 6);
          go (attempt + 1)
        end
  in
  go 0

(* Coordinator-local durable action; a crash takes the coordinator down. *)
let coord_call t f =
  match t.c_log with
  | None -> None
  | Some log -> (
      try Some (f log)
      with Arena.Crash ->
        t.c_log <- None;
        None)

(* -- participant-side handlers (all idempotent) ------------------------- *)

let h_execute n tm gtid writes =
  match Hashtbl.find_opt n.active gtid with
  | Some txn -> txn  (* duplicate request after a lost reply *)
  | None ->
      let txn = Rewind.Tm.begin_txn tm in
      Hashtbl.add n.active gtid txn;
      List.iter (fun (addr, value) -> Rewind.Tm.write tm txn ~addr ~value) writes;
      txn

let h_prepare n tm gtid =
  match Hashtbl.find_opt n.active gtid with
  | None -> false  (* no trace of the transaction here: vote no *)
  | Some txn ->
      if not (Hashtbl.mem n.prepared gtid) then begin
        Rewind.Tm.prepare tm txn ~gtid;
        Hashtbl.replace n.prepared gtid txn
      end;
      true

let h_commit n tm gtid =
  (match Hashtbl.find_opt n.prepared gtid with
  | Some txn ->
      Rewind.Tm.resolve_in_doubt tm txn ~commit:true;
      Hashtbl.remove n.prepared gtid
  | None -> ());  (* already committed: duplicate COMMIT, just ACK *)
  Hashtbl.remove n.active gtid

let h_abort n tm gtid =
  (match Hashtbl.find_opt n.prepared gtid with
  | Some txn ->
      Rewind.Tm.resolve_in_doubt tm txn ~commit:false;
      Hashtbl.remove n.prepared gtid
  | None -> (
      match Hashtbl.find_opt n.active gtid with
      | Some txn -> Rewind.Tm.rollback tm txn
      | None -> ()));
  Hashtbl.remove n.active gtid

(* -- coordinator-side durable state ------------------------------------- *)

(* The decision record: txn field carries the gtid; nothing else matters.
   Appending it durably is THE commit point of the global transaction. *)
let log_decision log gtid =
  ignore
    (Rewind.Log.append_record ~is_end:true log ~lsn:gtid ~txn:gtid
       ~typ:Rewind.Record.End ~addr:0 ~old_value:0L ~new_value:1L ~undo_next:0)

let forget log gtid =
  let arena = Rewind.Log.arena log in
  Rewind.Log.remove_where log (fun r -> Rewind.Record.txn arena r = gtid)

(* Durably advance the gtid high-water mark before handing out [g]. *)
let fresh_gtid t =
  let g = t.next_gtid in
  t.next_gtid <- g + 1;
  match
    coord_call t (fun _ ->
        Arena.root_set t.c_arena gtid_slot (Int64.of_int t.next_gtid))
  with
  | Some () -> Some g
  | None -> None

(* -- the protocol ------------------------------------------------------- *)

let best_effort_abort t gtid involved =
  List.iter
    (fun (n, _) -> ignore (with_retries t n (fun tm -> h_abort n tm gtid)))
    involved

let submit t ops =
  if t.c_log = None then invalid_arg "Twopc.submit: coordinator is down";
  List.iter
    (fun o ->
      if o.node < 0 || o.node >= Array.length t.nodes then
        invalid_arg "Twopc.submit: no such node")
    ops;
  match fresh_gtid t with
  | None ->
      (* Coordinator died before anything ran anywhere. *)
      t.unknown <- t.unknown + 1;
      Unknown
  | Some gtid -> (
      let involved =
        Array.to_list t.nodes
        |> List.filter_map (fun n ->
               match List.filter (fun o -> o.node = n.id) ops with
               | [] -> None
               | ws -> Some (n, List.map (fun o -> (o.addr, o.value)) ws))
      in
      let executed =
        List.for_all
          (fun (n, writes) ->
            with_retries t n (fun tm -> h_execute n tm gtid writes) <> None)
          involved
      in
      if not executed then begin
        best_effort_abort t gtid involved;
        t.aborted <- t.aborted + 1;
        Aborted
      end
      else
        (* Phase 1: collect votes.  A lost or crashed participant is a
           no-vote — presumed abort needs no durable coordinator state. *)
        let all_yes =
          List.for_all
            (fun (n, _) ->
              with_retries t n (fun tm -> h_prepare n tm gtid) = Some true)
            involved
        in
        if not all_yes then begin
          best_effort_abort t gtid involved;
          t.aborted <- t.aborted + 1;
          Aborted
        end
        else
          (* Phase 2: the durable decision, then the COMMIT fan-out. *)
          match coord_call t (fun log -> log_decision log gtid) with
          | None ->
              (* Coordinator crashed at the decision append.  Whether the
                 record made it durable is exactly what recovery reads
                 back: torn record -> presumed abort, intact -> commit. *)
              t.unknown <- t.unknown + 1;
              Unknown
          | Some () ->
              t.decisions <- t.decisions + 1;
              if t.chaos_after_decision then begin
                (* Decision durable, coordinator dies before any COMMIT
                   message leaves: every participant stays in doubt. *)
                t.c_log <- None;
                t.committed <- t.committed + 1;
                Committed
              end
              else begin
                let all_acked =
                  List.for_all
                    (fun (n, _) ->
                      with_retries t n (fun tm -> h_commit n tm gtid) <> None)
                    involved
                in
                (* ACK-driven forgetting: only once every participant has
                   durably committed may the decision record go — a
                   silent participant may still need to read it. *)
                if all_acked then (
                  match coord_call t (fun log -> forget log gtid) with
                  | Some () -> t.forgotten <- t.forgotten + 1
                  | None -> ());
                t.committed <- t.committed + 1;
                Committed
              end)

(* -- recovery ----------------------------------------------------------- *)

let recover t =
  (* Coordinator first: its log is the sole commit authority. *)
  if t.c_log = None then begin
    Arena.clear_crashed t.c_arena;
    t.c_alloc <- Alloc.recover t.c_arena;
    t.c_log <-
      Some
        (Rewind.Log.attach Rewind.Log.Optimized t.c_alloc
           ~root_slot:decision_log_slot);
    t.next_gtid <-
      max t.next_gtid (Int64.to_int (Arena.root_get t.c_arena gtid_slot))
  end;
  let log = Option.get t.c_log in
  let log_arena = Rewind.Log.arena log in
  let decided = Hashtbl.create 16 in
  Rewind.Log.iter log (fun r ->
      Hashtbl.replace decided (Rewind.Record.txn log_arena r) ());
  (* Participants: replay each crashed node's WAL, then resolve every
     in-doubt transaction — on crashed and surviving nodes alike — from
     the decision log alone: decision present -> commit, absent -> abort. *)
  Array.iter
    (fun n ->
      if n.n_tm = None then begin
        Arena.clear_crashed n.n_arena;
        n.n_alloc <- Alloc.recover n.n_arena;
        Hashtbl.reset n.active;
        Hashtbl.reset n.prepared;
        n.n_tm <-
          Some (Rewind.Tm.attach ~cfg:t.cfg.tm_cfg n.n_alloc ~root_slot:node_tm_slot)
      end;
      let tm = Option.get n.n_tm in
      List.iter
        (fun (txn, gtid) ->
          Rewind.Tm.resolve_in_doubt tm txn ~commit:(Hashtbl.mem decided gtid);
          Hashtbl.remove n.prepared gtid;
          Hashtbl.remove n.active gtid)
        (Rewind.Tm.in_doubt tm))
    t.nodes;
  (* Every in-doubt transaction everywhere is now durably resolved, so the
     surviving decision records have no reader left (implicit global ACK). *)
  if Hashtbl.length decided > 0 then begin
    Rewind.Log.clear_all log;
    t.forgotten <- t.forgotten + Hashtbl.length decided
  end

let in_doubt_total t =
  Array.fold_left
    (fun acc n ->
      match n.n_tm with
      | Some tm -> acc + List.length (Rewind.Tm.in_doubt tm)
      | None -> acc)
    0 t.nodes

(* -- statistics --------------------------------------------------------- *)

type stats = {
  committed : int;
  aborted : int;
  unknown : int;
  retries : int;
  msgs_sent : int;
  msgs_dropped : int;
  decisions : int;
  forgotten : int;
}

let stats (t : t) =
  {
    committed = t.committed;
    aborted = t.aborted;
    unknown = t.unknown;
    retries = t.retries;
    msgs_sent = Net.sent t.net;
    msgs_dropped = Net.dropped t.net;
    decisions = t.decisions;
    forgotten = t.forgotten;
  }
