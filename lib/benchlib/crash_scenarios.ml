(* Crash scenarios shared by `rewind check` and the test suite: each
   states a protocol's crash-consistency claim once, as a
   {!Rewind_analysis.Crash_harness.scenario}; the CLI and the tests pick
   the drivers.

   The allowed sets:
   - WAL: the committed prefix — a transaction is all-or-nothing;
   - InCLL: the last durable epoch boundary, never a commit inside an
     epoch;
   - the lock-free set: the prefix of the op sequence decided by the
     announcement — a completed op survives with its result, an
     in-flight one is decided by the detectability oracle.

   [sanitizer_tour] and [lfset_tour] are the `rewind check` workloads:
   their worlds carry a collecting sanitizer over the whole run, whose
   report the CLI prints. *)

open Rewind_nvm
module Harness = Rewind_analysis.Crash_harness
module San = Rewind_analysis.Sanitizer
module Tm = Rewind.Tm
module Log = Rewind.Log
module Lfset = Rewind_pds.Lfset

let root_slot = 2

(* -- a manager over a row of cells ----------------------------------------- *)

type 'x cells = { arena : Arena.t; tm : Tm.t; cells : int array; x : 'x }

(* A fresh manager over [n] managed cells on a [size_bytes] arena ([hook]
   sees the arena before the manager is created, e.g. to attach a fault
   model or a sanitizer); [prepare] runs
   before the window and its result is handed to [window] and [check].
   Recovery reattaches and reads the cells back. *)
let tm_cells ?(size_bytes = 8 lsl 20) ?(n = 10) ?(hook = ignore) cfg ~prepare
    ~window ~check =
  {
    Harness.setup =
      (fun () ->
        let arena = Arena.create ~size_bytes () in
        let alloc = Alloc.create arena in
        hook arena;
        let tm = Tm.create ~cfg alloc ~root_slot in
        let cells = Array.init n (fun _ -> Tm.alloc_cell tm) in
        { arena; tm; cells; x = prepare tm cells });
    arenas = (fun w -> [| w.arena |]);
    window = (fun w -> window w.tm w.cells w.x);
    recover =
      (fun w arena ->
        let tm = Tm.attach ~cfg (Alloc.recover arena) ~root_slot in
        (tm, Array.map (Arena.read arena) w.cells));
    check = (fun w (tm, got) -> check w.x tm got);
  }

(* The first cell that differs from [want]. *)
let expect_cells want got =
  let rec first i =
    if i >= Array.length got then None
    else if got.(i) <> want i then
      Some (Fmt.str "cell %d = %Ld, want %Ld" i got.(i) (want i))
    else first (i + 1)
  in
  first 0

let pp_cells = Fmt.(array ~sep:sp int64)

(* -- the mixed world -------------------------------------------------------- *)

(* The WAL configurations the mixed world's sweeps and the fault
   campaign run. *)
let wal_configs =
  [
    ("1L-NFP", Rewind.config_1l_nfp);
    ("1L-FP", Rewind.config_1l_fp);
    ("2L-NFP", Rewind.config_2l_nfp);
    ("2L-FP", Rewind.config_2l_fp);
    ("simple", Rewind.config_simple);
    ("batch8", Rewind.config_batch ());
  ]

(* Commits, rollbacks and a checkpoint over 8 cells: [txns] transactions
   (default 12) of [writes] writes each (default 3), every third rolled
   back, a checkpoint after transaction [checkpoint_at] (default 6).
   Values encode their writer as [tno * 100 + i + 1]. *)
let mixed_script ?(txns = 12) ?(writes = 3) ?(checkpoint_at = 6) tm cells =
  for tno = 1 to txns do
    let txn = Tm.begin_txn tm in
    for i = 0 to writes - 1 do
      Tm.write tm txn
        ~addr:cells.((tno + i) mod 8)
        ~value:(Int64.of_int ((tno * 100) + i + 1))
    done;
    if tno mod 3 <> 0 then Tm.commit tm txn else Tm.rollback tm txn;
    if tno = checkpoint_at then Tm.checkpoint tm
  done

(* Recovery cleared the log and left no value of a rolled-back
   transaction of [mixed_script]. *)
let no_rolled_back _ tm got =
  if Log.length (Tm.log tm) <> 0 then Some "log not cleared after recovery"
  else
    Array.to_list got
    |> List.mapi (fun i v -> (i, Int64.to_int v))
    |> List.find_opt (fun (_, v) -> v <> 0 && v / 100 mod 3 = 0)
    |> Option.map (fun (i, v) ->
           Fmt.str "cell %d holds %d from rolled-back txn %d" i v (v / 100))

(* [mixed_script] as the crash window over a fresh manager. *)
let mixed ?size_bytes ?hook ?txns ?writes ?checkpoint_at cfg =
  tm_cells ?size_bytes ~n:8 ?hook cfg
    ~prepare:(fun _ _ -> ())
    ~window:(fun tm cells () ->
      mixed_script ?txns ?writes ?checkpoint_at tm cells)
    ~check:no_rolled_back

(* -- the crash demo --------------------------------------------------------- *)

(* `rewind crash-demo`'s workload: [txns] transactions (default 1 000),
   each writing [value tno i] (default [tno * 10 + i]; 0 for [tno] 0) to
   cell [i] of [n] (default 8), with a checkpoint after every
   [checkpoint_every]-th (default 100).  [durable] is the protocol's own
   durable point: the last committed transaction (WAL) or the
   transaction the last epoch boundary covers (InCLL); [pending] is the
   point a crash may have interrupted on its way there, a commit or an
   epoch advance. *)
type demo = {
  value : int -> int -> int64;
  mutable durable : int;
  mutable pending : int;
}

let demo_value tno i = if tno = 0 then 0L else Int64.of_int ((tno * 10) + i)

let demo ?(txns = 1_000) ?(checkpoint_every = 100) ?(n = 8)
    ?(value = demo_value) cfg =
  tm_cells ~n cfg
    ~prepare:(fun _ _ -> { value; durable = 0; pending = 0 })
    ~window:(fun tm cells d ->
      (* run [f], which moves the durable point to [tno] if [moves] *)
      let reach ~moves tno f =
        if moves then d.pending <- tno;
        f ();
        if moves then d.durable <- tno
      in
      let incll = cfg.Tm.incll in
      for tno = 1 to txns do
        let txn = Tm.begin_txn tm in
        Array.iteri
          (fun i c -> Tm.write tm txn ~addr:c ~value:(value tno i))
          cells;
        reach ~moves:(not incll) tno (fun () -> Tm.commit tm txn);
        if tno mod checkpoint_every = 0 then
          reach ~moves:incll tno (fun () -> Tm.checkpoint tm)
      done)
    ~check:(fun d _ got ->
      let is tno = got = Array.init n (value tno) in
      if is d.durable || is d.pending then None
      else
        Some
          (Fmt.str "recovered %a, want transaction %d's values" pp_cells got
             d.durable))

(* [demo]'s allowed set for a driver that checks every crash state
   against the world after the whole window (the crash-state
   enumerator): the state after some transaction up to the last. *)
let any_committed_prefix s =
  {
    s with
    Harness.check =
      (fun w (_, got) ->
        let is tno = got = Array.init (Array.length got) (w.x.value tno) in
        if List.exists is (List.init (w.x.durable + 1) Fun.id) then None
        else Some (Fmt.str "recovered %a, no committed prefix" pp_cells got));
  }

(* A Batch log that recycles its buckets: Batch(4) over 8-slot buckets,
   two cells a transaction — an inline pair, a full record (its value is
   wider than a pair holds) and an END word, so a bucket fills every two
   transactions — and a checkpoint after every third.  Each checkpoint unlinks the filled buckets whole; the next
   bucket rolls take them back from the free list and relink them, so
   the crash points fall before, inside and after a recycled bucket's
   first group flush.  The arena's [Stats.buckets_recycled] counts the
   reuses.  [recycle_cfg] may be sharded into partitions. *)
let recycle_cfg = { (Rewind.config_batch ~group:4 ()) with Tm.bucket_cap = 8 }

let batch_recycle ?(txns = 12) cfg =
  let value tno i =
    if i = 0 || tno = 0 then demo_value tno i
    else Int64.add (demo_value tno i) 1_000_000L
  in
  demo ~txns ~checkpoint_every:3 ~n:2 ~value cfg

(* -- transactional worlds ------------------------------------------------- *)

type txn_world = { alloc : Alloc.t; mutable cells : int array }

let txn_world ~size_bytes =
  { alloc = Alloc.create (Arena.create ~size_bytes ()); cells = [||] }

let arena_of w = [| Alloc.arena w.alloc |]

let recovered_cells cfg w arena =
  ignore (Tm.attach ~cfg (Alloc.recover arena) ~root_slot);
  Array.map (Arena.read arena) w.cells

(* WAL, one three-write transaction.  The manager is created inside the
   window, so the crash points include its creation.  The cells sit a
   cacheline apart: under the Optimized log the writes and the END
   encode as inline slot pairs, and the last pair straddles a line, so
   the subset sweep reaches torn-pair states recovery must truncate. *)
let wal_txn cfg =
  {
    Harness.setup =
      (fun () ->
        (* room for each partition's current bucket (8 KiB at the default
           bucket capacity) plus the workload's records *)
        let w =
          txn_world ~size_bytes:((64 * 1024) + (16 * 1024 * cfg.Tm.partitions))
        in
        w.cells <- Array.init 3 (fun _ -> Alloc.alloc ~align:64 w.alloc 8);
        w);
    arenas = arena_of;
    window =
      (fun w ->
        let tm = Tm.create ~cfg w.alloc ~root_slot in
        let txn = Tm.begin_txn tm in
        Tm.write tm txn ~addr:w.cells.(0) ~value:7L;
        Tm.write tm txn ~addr:w.cells.(1) ~value:9L;
        Tm.write tm txn ~addr:w.cells.(2) ~value:11L;
        Tm.commit tm txn);
    recover = recovered_cells cfg;
    check =
      (fun _ v ->
        match v with
        | [| 0L; 0L; 0L |] | [| 7L; 9L; 11L |] -> None
        | _ -> Some (Fmt.str "partial state %a" pp_cells v));
  }

(* InCLL, two advanced epochs; the cells are registered inside the
   window too.  Legal recovered states are exactly the epoch boundaries:
   nothing, the first advance's snapshot, or the second's. *)
let incll_epochs () =
  let cfg = Rewind.config_incll in
  {
    Harness.setup = (fun () -> txn_world ~size_bytes:(64 * 1024));
    arenas = arena_of;
    window =
      (fun w ->
        let tm = Tm.create ~cfg w.alloc ~root_slot in
        w.cells <- Array.init 3 (fun _ -> Tm.alloc_cell tm);
        let a = w.cells.(0) and b = w.cells.(1) and c = w.cells.(2) in
        let txn = Tm.begin_txn tm in
        Tm.write tm txn ~addr:a ~value:7L;
        Tm.write tm txn ~addr:b ~value:9L;
        Tm.commit tm txn;
        Tm.advance_epoch tm;
        let txn = Tm.begin_txn tm in
        Tm.write tm txn ~addr:a ~value:8L;
        Tm.write tm txn ~addr:c ~value:11L;
        Tm.commit tm txn;
        Tm.advance_epoch tm);
    recover = recovered_cells cfg;
    check =
      (fun _ v ->
        match v with
        | [| 0L; 0L; 0L |] | [| 7L; 9L; 0L |] | [| 8L; 9L; 11L |] -> None
        | _ -> Some (Fmt.str "non-epoch-boundary state %a" pp_cells v));
  }

(* -- the lock-free set ---------------------------------------------------- *)

type set_op = [ `I of int | `R of int ]

type set_world = {
  set_alloc : Alloc.t;
  mutable set : Lfset.t option;  (* created by the window *)
}

(* states.(i) = sorted contents after the first i ops; results.(i) = the
   boolean op i returns when run to completion. *)
let model ops =
  let n = Array.length ops in
  let states = Array.make (n + 1) [] and results = Array.make n false in
  Array.iteri
    (fun i op ->
      match op with
      | `I k ->
          results.(i) <- not (List.mem k states.(i));
          states.(i + 1) <-
            (if results.(i) then List.sort compare (k :: states.(i))
             else states.(i))
      | `R k ->
          results.(i) <- List.mem k states.(i);
          states.(i + 1) <- List.filter (( <> ) k) states.(i))
    ops;
  (states, results)

let pp_keys = Fmt.(list ~sep:comma int)

(* The announcement-decided prefix, under the whole-cache crash model
   (every dirty line lost); the recovered set must stay operational.  No
   recovered set means the crash hit inside [Lfset.create]: the set was
   never created, which is the empty prefix. *)
let lfset_check ops =
  let states, results = model ops in
  function
  | None -> None
  | Some s -> (
      let decided =
        match Lfset.announcement s ~thread:0 with
        | None -> Some states.(0)
        | Some { Lfset.an_seq = q; an_status; _ }
          when q >= 1 && q <= Array.length ops -> (
            let eff = Lfset.op_took_effect s ~thread:0 in
            match an_status with
            | Lfset.Done r when r = results.(q - 1) && eff = Some r ->
                Some states.(q)
            | Lfset.Done _ -> None
            | Lfset.In_progress ->
                Some (if eff = Some true then states.(q) else states.(q - 1)))
        | Some _ -> None
      in
      match decided with
      | None -> Some "the announcement contradicts the model or the oracle"
      | Some expect when Lfset.bindings s <> expect ->
          Some
            (Fmt.str "recovered {%a}, the announcement decides {%a}" pp_keys
               (Lfset.bindings s) pp_keys expect)
      | Some _ ->
          if Lfset.insert s 1000 && Lfset.mem s 1000 then None
          else Some "the recovered set rejects a fresh insert")

let lfset ?(size_bytes = 256 * 1024) ops =
  {
    Harness.setup =
      (fun () ->
        { set_alloc = Alloc.create (Arena.create ~size_bytes ()); set = None });
    arenas = (fun w -> [| Alloc.arena w.set_alloc |]);
    window =
      (fun w ->
        let s = Lfset.create ~nbuckets:4 ~nthreads:1 w.set_alloc in
        w.set <- Some s;
        Array.iter
          (function
            | `I k -> ignore (Lfset.insert s k) | `R k -> ignore (Lfset.remove s k))
          ops;
        ignore (Lfset.mem s 9));
    recover =
      (fun w arena ->
        (* [Lfset.create] persists the header before it returns, so once
           the set exists a [Mismatch] is a recovery bug and propagates. *)
        Option.map
          (fun s -> Lfset.attach (Alloc.recover arena) ~base:(Lfset.base s))
          w.set);
    check = (fun _ -> lfset_check ops);
  }

(* Under fence-boundary subsets the claim checked is weaker — the
   recovered contents are a prefix of the op sequence — because the
   subset sweep reaches states where the announcement decides otherwise
   (an open finding, ROADMAP item 3). *)
let lfset_prefix ?size_bytes ops =
  let prefixes = Array.to_list (fst (model ops)) in
  {
    (lfset ?size_bytes ops) with
    recover =
      (fun w arena ->
        (* States are materialized after the whole window ran, so the set
           exists even for a capture point inside [Lfset.create]; there a
           [Mismatch] means the header had not persisted yet, which is
           the empty prefix. *)
        let base = Lfset.base (Option.get w.set) in
        match Lfset.attach (Alloc.recover arena) ~base with
        | s -> Some s
        | exception Lfset.Mismatch _ -> None);
    check =
      (fun _ recovered ->
        let got = Option.fold ~none:[] ~some:Lfset.bindings recovered in
        if List.mem got prefixes then None
        else
          Some
            (Fmt.str "recovered {%a}: not a prefix of the op sequence" pp_keys
               got));
  }

let lfset_bindings _ = function
  | None -> "{}"
  | Some s -> Fmt.str "{%a}" pp_keys (Lfset.bindings s)

(* -- `rewind check` tours ------------------------------------------------- *)

(* A representative transactional workload: commits, a rollback, a
   partial rollback to a savepoint, a checkpoint; then the window, which
   [crash_once] interrupts, and recovery plus one more transaction.  The
   WAL configurations produce persistence events on every logged write,
   so an open transaction suffices; InCLL writes are cached until the
   epoch advance, so its window advances — the crash lands mid-advance.
   Returns the scenario and the last world's sanitizer. *)
let sanitizer_tour cfg =
  let san = ref None in
  let prepare tm cells =
    let txn = Tm.begin_txn tm in
    Array.iteri
      (fun i c -> Tm.write tm txn ~addr:c ~value:(Int64.of_int (i + 1)))
      cells;
    Tm.commit tm txn;
    let txn = Tm.begin_txn tm in
    Tm.write tm txn ~addr:cells.(0) ~value:99L;
    Tm.rollback tm txn;
    let txn = Tm.begin_txn tm in
    Tm.write tm txn ~addr:cells.(1) ~value:41L;
    let sp = Tm.savepoint tm txn in
    Tm.write tm txn ~addr:cells.(2) ~value:42L;
    Tm.rollback_to tm txn sp;
    Tm.commit tm txn;
    Tm.checkpoint tm;
    (cells, if cfg.Tm.incll then None else Some (Tm.begin_txn tm))
  in
  let window tm cells (_, open_txn) =
    let write txn i =
      Tm.write tm txn ~addr:cells.(i mod 8) ~value:(Int64.of_int (100 + i))
    in
    for i = 0 to 999 do
      match open_txn with
      | Some txn -> write txn i
      | None ->
          let txn = Tm.begin_txn tm in
          write txn i;
          Tm.commit tm txn;
          if i mod 4 = 3 then Tm.advance_epoch tm
    done
  in
  ( tm_cells ~size_bytes:(16 lsl 20) ~n:8
      ~hook:(fun a -> san := Some (San.attach ~mode:San.Collect a))
      cfg ~prepare ~window
      ~check:(fun (cells, _) tm _ ->
        let txn = Tm.begin_txn tm in
        Tm.write tm txn ~addr:cells.(3) ~value:7L;
        Tm.commit tm txn;
        None),
    fun () -> Option.get !san )

(* The lock-free set's tour: inserts, removes, a traversal, the window
   of inserts a crash interrupts, recovery via attach from the root
   slot, and post-recovery operations. *)
let lfset_tour () =
  let base_slot = 3 in
  {
    Harness.setup =
      (fun () ->
        let arena = Arena.create ~size_bytes:(1 lsl 20) () in
        let alloc = Alloc.create arena in
        let san = San.attach ~mode:San.Collect arena in
        let set = Lfset.create ~nbuckets:8 ~nthreads:1 alloc in
        Arena.root_set arena base_slot (Int64.of_int (Lfset.base set));
        for k = 0 to 15 do
          ignore (Lfset.insert set k)
        done;
        for k = 0 to 7 do
          ignore (Lfset.remove set (2 * k))
        done;
        ignore (Lfset.mem set 3);
        (alloc, set, san));
    arenas = (fun (alloc, _, _) -> [| Alloc.arena alloc |]);
    window =
      (fun (_, set, _) ->
        for k = 16 to 999 do
          ignore (Lfset.insert set k)
        done);
    recover =
      (fun (_, _, san) arena ->
        let base = Int64.to_int (Arena.root_get arena base_slot) in
        let set = Lfset.attach (Alloc.recover arena) ~base in
        ignore (Lfset.insert set 100);
        ignore (Lfset.mem set 100);
        san);
    check = (fun _ _ -> None);
  }
