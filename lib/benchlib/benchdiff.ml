(* Benchmark-regression gate: compare a benchmark's rows (any
   BENCH_*.json, see {!Bench_row}) against a committed baseline and fail
   on regressions.

   Every benchmark metric in this repository is *simulated* — NVM line
   write-backs, fences, simulated nanoseconds — so the numbers are
   deterministic and machine-independent: a committed baseline is exact,
   and any drift is a real behavioural change, not noise.  The tolerance
   exists to let intentional small costs (an extra counter flush, say)
   pass while catching the order-of-magnitude mistakes: a removed fast
   path, an accidental flush-per-append, a recovery phase gone
   quadratic.

   Rows pair by {!Bench_row.key} (bench name plus labels).  Each metric
   is judged by the direction and tolerance the *baseline* declares;
   [Info] metrics are never judged.  A judged baseline metric missing
   from the current run is itself a failure — a silently dropped
   benchmark row must not pass the gate. *)

open Bench_row

type regression = {
  metric : string;
  baseline : float;
  current : float;
  delta_pct : float;  (** signed; positive = worse *)
}

type outcome = {
  checked : int;  (** gated metrics compared *)
  regressions : regression list;
  missing : string list;  (** gated baseline metrics absent from current *)
  new_metrics : string list;
      (** gated current metrics absent from the baseline — ungated until
          the baseline is regenerated, so surfaced as a warning *)
  improvements : int;  (** gated metrics better by more than the tolerance *)
}

let pct_change ~baseline ~current =
  if baseline = 0. then if current = 0. then 0. else infinity
  else (current -. baseline) /. Float.abs baseline *. 100.

let compare_rows ~tolerance base cur =
  let index rows =
    let t = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace t (key r) r) rows;
    t
  in
  let base_tbl = index base and cur_tbl = index cur in
  let find tbl r name =
    Option.bind (Hashtbl.find_opt tbl (key r)) (fun r -> value r name)
  in
  let path r m = key r ^ "/" ^ m.name in
  (* Gated metrics only the current run produces: the gate cannot judge
     them (nothing to compare against), and silently skipping them would
     let a new benchmark leg ship ungated.  They are a warning, not a
     failure — the fix is committing a regenerated baseline. *)
  let new_metrics =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun m ->
            if m.better <> Info && find base_tbl r m.name = None then
              Some (path r m)
            else None)
          r.metrics)
      cur
  in
  let checked = ref 0 and regressions = ref [] and missing = ref [] in
  let improvements = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun m ->
          let bv = m.value in
          match (m.better, find cur_tbl r m.name) with
          | Info, _ -> ()
          | _, None -> missing := path r m :: !missing
          | dir, Some cv ->
              incr checked;
              let tolerance = Option.value m.tolerance ~default:tolerance in
              let higher = dir = Higher in
              let worse, better =
                if bv = 0. then
                  if higher then (false, cv > 0.) else (cv > 0., false)
                else
                  let above = cv > bv *. (1. +. tolerance)
                  and below = cv < bv *. (1. -. tolerance) in
                  if higher then (below, above) else (above, below)
              in
              let delta = pct_change ~baseline:bv ~current:cv in
              let delta = if higher then -.delta else delta in
              if worse then
                regressions :=
                  {
                    metric = path r m;
                    baseline = bv;
                    current = cv;
                    delta_pct = delta;
                  }
                  :: !regressions
              else if better then incr improvements)
        r.metrics)
    base;
  {
    checked = !checked;
    regressions = List.rev !regressions;
    missing = List.rev !missing;
    new_metrics;
    improvements = !improvements;
  }

let passed o = o.regressions = [] && o.missing = []

(* -- file-level entry point ---------------------------------------------- *)

(* CI drives the gate with file paths; every way a path can disappoint —
   missing, unreadable, truncated mid-read, not JSON, not a row list,
   ambiguous — must come back as a diagnostic naming the file and its
   role, never as an exception.  The CLI maps [Error] to its own exit code
   (2), distinct from a benchmark regression (1), so a gate that failed to
   *run* is never mistaken for a gate that *passed judgment*. *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception Sys_error e -> Error e
          | exception End_of_file ->
              Error (path ^ ": truncated while reading"))

let read_rows role path =
  match read_file path with
  | Error e -> Error (Printf.sprintf "cannot read %s: %s" role e)
  | Ok s -> (
      match of_json s with
      | Ok rows -> Ok rows
      | Error e -> Error (Printf.sprintf "%s %s is %s" role path e))

let compare_files ~tolerance ~baseline ~current =
  Result.bind (read_rows "baseline" baseline) (fun base ->
      Result.map
        (compare_rows ~tolerance base)
        (read_rows "current results" current))

let pp_outcome ppf o =
  List.iter
    (fun r ->
      Fmt.pf ppf "REGRESSION %-60s baseline %.4g  current %.4g  (%+.1f%%)@."
        r.metric r.baseline r.current r.delta_pct)
    o.regressions;
  List.iter
    (fun m -> Fmt.pf ppf "MISSING    %-60s (in baseline, not in current)@." m)
    o.missing;
  Fmt.pf ppf
    "benchdiff: %d metrics checked, %d regressed, %d missing, %d new \
     (ungated), %d improved@."
    o.checked (List.length o.regressions) (List.length o.missing)
    (List.length o.new_metrics) o.improvements
