(* Distributed-commit harness: the canonical crash-everywhere workload
   over {!Rewind_dist.Twopc}, shared by the `rewind 2pc` CLI, the test
   suite and the committed BENCH_2pc.json baseline.

   The workload is built for checkability: transaction [j] writes the
   value [1000 + j] into a cell reserved for it on every participating
   node, so after recovery the global all-or-nothing property reads
   directly off the cells — for each [j], either every participant holds
   the value (commit) or none does (abort) — and is cross-checked
   against the outcome the coordinator reported to the client. *)

open Rewind_nvm
module Harness = Rewind_analysis.Crash_harness
module Twopc = Rewind_dist.Twopc

(* Which nodes transaction [j] touches: even transactions span the whole
   cluster, odd ones a pair — partial participation exercises the
   coordinator's bookkeeping of who must vote and who must ACK. *)
let participants ~nodes j =
  if nodes = 1 || j land 1 = 0 then List.init nodes Fun.id
  else List.sort_uniq compare [ 0; 1 + (j mod (nodes - 1)) ]

type world = {
  cluster : Twopc.t;
  cells : int array array;  (* cells.(node).(j): written only by txn j *)
  outcomes : Twopc.outcome option array;  (* None = never submitted *)
  chaos_at : int option;
      (* crash the coordinator right after txn j's decision is durable *)
}

let make_world ~nodes ~txns ~drop_1_in ~seed ~chaos_at () =
  let cluster =
    Twopc.create { Twopc.default_config with nodes; drop_1_in; seed }
  in
  let cells =
    Array.init nodes (fun i -> Array.init txns (fun _ -> Twopc.alloc_cell cluster i))
  in
  { cluster; cells; outcomes = Array.make txns None; chaos_at }

let run_workload w =
  let t = w.cluster in
  let nodes = Twopc.nodes t in
  for j = 0 to Array.length w.outcomes - 1 do
    (* A dead coordinator ends the run; dead participants just vote no by
       silence, so the loop keeps going around them. *)
    if Twopc.coordinator_up t then begin
      if w.chaos_at = Some j then
        Twopc.chaos_crash_coordinator_after_decision t true;
      let ops =
        List.map
          (fun i ->
            {
              Twopc.node = i;
              addr = w.cells.(i).(j);
              value = Int64.of_int (1000 + j);
            })
          (participants ~nodes j)
      in
      w.outcomes.(j) <- Some (Twopc.submit t ops)
    end
  done

(* The global outcome of every transaction, read after the cluster's
   log-only recovery. *)
let verify_outcomes w =
  let t = w.cluster in
  if Twopc.in_doubt_total t > 0 then
    Some
      (Printf.sprintf "%d transaction(s) still in doubt after recovery"
         (Twopc.in_doubt_total t))
  else begin
    let nodes = Twopc.nodes t in
    let bad = ref None in
    Array.iteri
      (fun j outcome ->
        if !bad = None then begin
          let parts = participants ~nodes j in
          let expect = Int64.of_int (1000 + j) in
          let vals = List.map (fun i -> Twopc.read_cell t i w.cells.(i).(j)) parts in
          let total = List.length vals in
          let present = List.length (List.filter (fun v -> v = expect) vals) in
          let absent = List.length (List.filter (fun v -> v = 0L) vals) in
          let fail msg = bad := Some (Printf.sprintf "txn %d: %s" j msg) in
          if present + absent <> total then
            fail "cell holds a value no transaction wrote"
          else
            match outcome with
            | None ->
                if absent <> total then
                  fail "never submitted but writes survived recovery"
            | Some Twopc.Committed ->
                if present <> total then
                  Fmt.kstr fail
                    "reported committed but only %d/%d participants hold the \
                     writes"
                    present total
            | Some Twopc.Aborted ->
                if absent <> total then
                  Fmt.kstr fail
                    "reported aborted but %d/%d participants hold the writes"
                    present total
            | Some Twopc.Unknown ->
                if present <> total && absent <> total then
                  Fmt.kstr fail
                    "outcome unknown and recovery split it: %d/%d participants \
                     hold the writes"
                    present total
        end)
      w.outcomes;
    !bad
  end

(* The cluster as a crash scenario: any ONE component may fail at any of
   its persistence events while the others keep running (the workload
   absorbs the failure); recovery is the cluster's log-only restart of
   every crashed component. *)
let scenario make =
  {
    Harness.setup = make;
    arenas = (fun w -> Twopc.arenas w.cluster);
    window = run_workload;
    recover = (fun w _ -> Twopc.recover w.cluster);
    check = (fun w () -> verify_outcomes w);
  }

(* Recover the cluster from its logs alone — sanitizers collecting on
   every arena — and verify the global outcome of every transaction. *)
let check_world w =
  match Harness.recover_checked (scenario (fun () -> w)) w with
  | () -> None
  | exception Harness.Failed { detail; _ } -> Some detail

(* -- the crash-everywhere proof ----------------------------------------- *)

type enum_report = {
  arenas_swept : int;  (* lossless sweep: arenas with workload events *)
  crash_points : int;  (* armed (arena, event) pairs, both sweeps *)
  after_decision_states : int;
      (* coordinator-crash-after-decision-before-any-COMMIT states *)
}

let pp_enum_report ppf r =
  Fmt.pf ppf
    "arenas=%d crash points=%d coordinator-after-decision states=%d: all \
     recover consistently"
    r.arenas_swept r.crash_points r.after_decision_states

(* Raises {!Harness.Failed} on the first inconsistent crash state. *)
let enumerate ?(nodes = 3) ?(txns = 6) () =
  let fail_unless_consistent ~arena ~event w =
    Option.iter
      (fun detail -> raise (Harness.Failed { arena; event; detail }))
      (check_world w)
  in
  let sweep make =
    (* the crash-free run must already be consistent *)
    (let w = make () in
     run_workload w;
     fail_unless_consistent ~arena:(-1) ~event:0 w);
    Harness.every_event (scenario make)
  in
  (* Every (component, persistence event) single crash over a lossless
     run: participants and the coordinator (index 0) alike. *)
  let lossless =
    sweep (make_world ~nodes ~txns ~drop_1_in:0 ~seed:1 ~chaos_at:None)
  in
  (* The same sweep under heavy message loss: dropped votes, COMMITs and
     ACKs force the retry/timeout paths and presumed aborts while the
     crash point moves. *)
  let lossy =
    sweep
      (make_world ~nodes ~txns:(max 3 (txns / 2)) ~drop_1_in:3 ~seed:7
         ~chaos_at:None)
  in
  (* No coordinator persistence event separates the decision append from
     the COMMIT fan-out, so a crash armed at an event cannot reach the
     classic worst case: decision durable, every participant in doubt.
     The chaos hook plants the crash there for each transaction in turn. *)
  for j = 0 to txns - 1 do
    let w = make_world ~nodes ~txns ~drop_1_in:0 ~seed:1 ~chaos_at:(Some j) () in
    run_workload w;
    fail_unless_consistent ~arena:0 ~event:j w
  done;
  {
    arenas_swept = lossless.Harness.arenas_swept;
    crash_points = lossless.Harness.crash_points + lossy.Harness.crash_points;
    after_decision_states = txns;
  }

(* -- benchmark ----------------------------------------------------------- *)

let run_one ~nodes ~txns ~drop_1_in =
  let w = make_world ~nodes ~txns ~drop_1_in ~seed:11 ~chaos_at:None () in
  let span = Clock.start () in
  run_workload w;
  let makespan = Clock.elapsed span in
  let s = Twopc.stats w.cluster in
  {
    Bench_row.bench = "2pc";
    labels =
      [
        ("nodes", string_of_int nodes); ("drop_1_in", string_of_int drop_1_in);
      ];
    metrics =
      Bench_row.
        [
          info_int "txns" txns;
          info_int "committed" s.Twopc.committed;
          info_int "aborted" s.Twopc.aborted;
          info_int "unknown" s.Twopc.unknown;
          info_int "retries" s.Twopc.retries;
          info_int "msgs_sent" s.Twopc.msgs_sent;
          info_int "msgs_dropped" s.Twopc.msgs_dropped;
          lower_int "makespan_sim_ns" makespan;
          higher "throughput_commits_per_s"
            (if makespan = 0 then 0.
             else
               float_of_int s.Twopc.committed *. 1e9 /. float_of_int makespan);
        ];
  }

let default_points = [ (3, 0); (5, 0); (3, 7) ]

let run ?(txns = 200) ?(points = default_points) () =
  List.map (fun (nodes, drop_1_in) -> run_one ~nodes ~txns ~drop_1_in) points
