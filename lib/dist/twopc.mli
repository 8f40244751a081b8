(** Distributed REWIND: presumed-abort two-phase commit across [nodes]
    independent REWIND instances, each a private simulated-NVM arena with
    its own allocator, transaction manager and fault model, plus a
    coordinator whose own WAL holds the commit decisions.

    Durable protocol state is exactly the classical minimum:
    - participant vote = PREPARE record in that node's WAL
      ({!Rewind.Tm.prepare});
    - global commit point = decision record in the coordinator's WAL,
      appended durably {e before} any COMMIT message is sent;
    - no decision record means abort (presumed abort);
    - decision records are removed once every participant ACKs
      (ACK-driven forgetting).

    Any component may crash at any persistence event ([Arena.Crash]); it
    stops answering until {!recover} replays the logs.  Messages may be
    dropped ({!Net}); every RPC retries with bounded exponential backoff
    on the simulated clock, against idempotent participant handlers. *)

type config = {
  nodes : int;
  tm_cfg : Rewind.Tm.config;
  arena_kb : int;   (** per component (coordinator and each node) *)
  latency_ns : int;
  drop_1_in : int;  (** 0 = lossless fabric *)
  seed : int;
  max_retries : int;
  backoff_ns : int; (** base backoff, doubled per retry *)
}

val default_config : config
(** 3 nodes, [config_1l_nfp] managers, 512 KiB arenas, lossless fabric,
    3 retries with 4 us base backoff. *)

type t

val create : config -> t

type outcome =
  | Committed  (** decision record durable; all-present after recovery *)
  | Aborted    (** no decision record; all-absent after recovery *)
  | Unknown
      (** coordinator crashed mid-protocol; recovery decides from its log
          alone, but atomically (all-present or all-absent) *)

val pp_outcome : outcome Fmt.t

type op = { node : int; addr : int; value : int64 }

val submit : t -> op list -> outcome
(** Run one distributed transaction: execute the writes on every involved
    node, collect PREPARE votes, log the decision, fan out the result.
    Raises [Invalid_argument] if the coordinator is down ({!recover}
    first) or an op names a nonexistent node. *)

val recover : t -> unit
(** Restart every crashed component from its durable image and resolve
    every in-doubt transaction cluster-wide, using only the logs: each
    crashed node replays its WAL ({!Rewind.Tm.attach}), then every node's
    {!Rewind.Tm.in_doubt} list is resolved against the coordinator's
    decision log — decision present = commit, absent = abort.  Decision
    records with no remaining reader are then forgotten. *)

(** {1 Topology and cells} *)

val nodes : t -> int
val coordinator_up : t -> bool
val node_up : t -> int -> bool

val arenas : t -> Rewind_nvm.Arena.t array
(** All arenas, coordinator first — index 0 is the coordinator, index
    [i+1] is node [i].  The crash-everywhere sweep iterates this. *)

val alloc_cell : t -> int -> int
(** A durably-zero 8-byte cell on node [i], for workload payloads. *)

val read_cell : t -> int -> int -> int64
(** [read_cell t i addr] on node [i]'s arena. *)

val in_doubt_total : t -> int
(** In-doubt transactions summed over all live nodes — must be 0 after
    {!recover}. *)

val crash_node : t -> int -> unit
(** Power-fail node [i] right now: volatile state discarded, the node
    stops answering until {!recover}. *)

val chaos_crash_coordinator_after_decision : t -> bool -> unit
(** Test hook: when on, the coordinator dies immediately after a decision
    record becomes durable, before any COMMIT message is sent — the state
    no arena crash point can reach, leaving every participant in doubt
    with the decision on stable storage. *)

(** {1 Statistics} *)

type stats = {
  committed : int;
  aborted : int;
  unknown : int;
  retries : int;      (** RPC retries after timeouts/losses *)
  msgs_sent : int;
  msgs_dropped : int;
  decisions : int;    (** decision records durably logged *)
  forgotten : int;    (** decision records removed after full ACKs *)
}

val stats : t -> stats
