(* Shape-regression tests: tiny versions of the paper's figures asserting
   the qualitative relationships the reproduction stands on.  If a change
   to the cost model or the core breaks "who wins", these fail long before
   anyone reads bench output. *)

open Rewind_benchlib
open Support

(* Figure values are read by series name, each a column over the x
   points.  The figure runs are shared with the round-trip case below. *)
let col name rows = List.map (fun r -> Option.get (Bench_row.value r name)) rows
let last name rows = List.nth (col name rows) (List.length rows - 1)

let increasing xs =
  let rec go = function
    | a :: (b :: _ as rest) -> a <= b && go rest
    | _ -> true
  in
  go xs

let strictly_dominates a b = List.for_all2 (fun x y -> x > y) a b

let fig3_left = lazy (Figures.fig3_left ~n_ops:1_000 ())
let fig3_right = lazy (Figures.fig3_right ~target_updates:15 ())
let fig4_left = lazy (Figures.fig4_left ~target_updates:15 ())
let fig4_right = lazy (Figures.fig4_right ~target_updates:15 ())
let fig7_left = lazy (Figures.fig7_left ~n_records:800 ~n_ops:1_500 ())
let fig7_right = lazy (Figures.fig7_right ~n_records:800 ~n_ops:1_500 ())
let fig8_left = lazy (Figures.fig8_left ~n_records:800 ())
let fig8_right = lazy (Figures.fig8_right ~n_records:800 ())
let fig10 = lazy (Figures.fig10 ~n_records:500 ~n_ops:1_000 ())
let fig9 = lazy (Figures.fig9 ~ops_per_thread:800 ~n_records:400 ())

let fig11 = lazy (Figures.fig11 ~txns_per_terminal:40 ())
let ablation_group = lazy (Figures.ablation_group ~n_ops:4_000 ())

let figures =
  [
    fig3_left; fig3_right; fig4_left; fig4_right; fig7_left; fig7_right;
    fig8_left; fig8_right; fig10; fig9; fig11; ablation_group;
  ]

(* fig3-left: 2L-FP > 2L-NFP > 1L-FP > 1L-NFP, and all overheads decrease
   with lower update intensity *)
let test_fig3_left_shape () =
  let rows = Lazy.force fig3_left in
  let above a b = strictly_dominates (col a rows) (col b rows) in
  check_bool "2L-FP worst" true (above "2L-FP" "2L-NFP");
  check_bool "2L-NFP > 1L-FP" true (above "2L-NFP" "1L-FP");
  check_bool "1L-FP > 1L-NFP" true (above "1L-FP" "1L-NFP");
  check_bool "overhead grows with intensity" true
    (increasing (col "1L-NFP" rows))

(* fig3-right: 1L grows with skip records, 2L stays flat (within 25 %) *)
let test_fig3_right_shape () =
  let rows = Lazy.force fig3_right in
  let two_l = col "2L-FP" rows and one_l = col "1L-FP" rows in
  check_bool "1L grows" true
    (List.nth one_l (List.length one_l - 1) > 3. *. List.hd one_l);
  let mn = List.fold_left min (List.hd two_l) two_l in
  let mx = List.fold_left max (List.hd two_l) two_l in
  check_bool "2L flat" true (mx < 1.25 *. mn)

(* fig4-left: 1L rollback linear in skip records; crossover exists *)
let test_fig4_left_shape () =
  let rows = Lazy.force fig4_left in
  check_bool "1L grows" true (increasing (col "1L-FP" rows));
  check_bool "1L eventually exceeds 2L" true
    (last "1L-FP" rows > last "2L-FP" rows)

(* fig4-right: one-layer recovery beats two-layer at every point *)
let test_fig4_right_shape () =
  let rows = Lazy.force fig4_right in
  check_bool "1L recovery cheaper" true
    (strictly_dominates (col "2L-FP" rows) (col "1L-FP" rows))

(* fig7: Simple > Optimized > Batch > NVM >= DRAM at 100 % updates, and
   the baselines are at least an order of magnitude above REWIND *)
let test_fig7_shape () =
  let rows = Lazy.force fig7_left in
  let simple = last "REWIND" rows and opt = last "REWIND-Opt" rows in
  let batch = last "REWIND-Batch" rows and nvm = last "NVM" rows in
  check_bool "simple > opt" true (simple > opt);
  check_bool "opt > batch" true (opt > batch);
  check_bool "batch > nvm" true (batch > nvm);
  check_bool "nvm >= dram" true (nvm >= last "DRAM" rows);
  let rows = Lazy.force fig7_right in
  let bdb = last "BerkeleyDB" rows and stasis = last "Stasis" rows in
  check_bool "shore worst" true (last "Shore-MT" rows > bdb && bdb > stasis);
  check_bool "rewind 10x better than stasis" true
    (stasis > 10. *. last "REWIND-Batch" rows)

(* fig8: rollback/recovery ordering Stasis > BDB > Shore > REWIND *)
let test_fig8_shape () =
  let check rows =
    let bdb = last "BerkeleyDB" rows and shore = last "Shore-MT" rows in
    check_bool "stasis > bdb" true (last "Stasis" rows > bdb);
    check_bool "bdb > shore" true (bdb > shore);
    check_bool "shore > rewind" true (shore > last "REWIND-Batch" rows)
  in
  check (Lazy.force fig8_left);
  check (Lazy.force fig8_right)

(* fig10: larger batch groups are less fence-sensitive; the optimized log
   is the most sensitive *)
let test_fig10_shape () =
  let rows = Lazy.force fig10 in
  let slope name =
    let c = col name rows in
    List.nth c (List.length c - 1) /. List.hd c
  in
  check_bool "batch32 least sensitive" true
    (slope "Batch-32" < slope "Batch-8");
  check_bool "batch8 < optimized" true (slope "Batch-8" < slope "Optimized")

(* fig9: REWIND scales far better than the baselines *)
let test_fig9_shape () =
  let rows = Lazy.force fig9 in
  let rewind = last "REWIND-Batch" rows in
  check_bool "rewind beats bdb at 8 threads" true
    (last "BerkeleyDB" rows > 5. *. rewind);
  check_bool "8 partitions beat the single latch at 8 threads" true
    (last "REWIND-Batch-P8" rows < rewind)

(* fig11: NVM fastest; distributed log within 1.5x; naive REWIND worst *)
let test_fig11_shape () =
  let rows = Lazy.force fig11 in
  let get name =
    List.filter (fun r -> Bench_row.label r "configuration" = Some name) rows
    |> last "ktpm"
  in
  let nvm = get "Simple NVM B+Trees" in
  let dlog = get "REWIND Opt. Data Structure D.Log" in
  let opt = get "REWIND Opt. Data Structure" in
  let naive = get "REWIND Naive Data Structure" in
  check_bool "nvm fastest" true (nvm >= dlog && nvm >= opt && nvm >= naive);
  check_bool "dlog within 1.5x of nvm" true (nvm /. dlog < 1.5);
  check_bool "dlog beats shared log" true (dlog > opt);
  check_bool "naive worst" true (naive <= opt)

(* ablation-group: per-record cost decreases with group size and the gap
   widens with fence cost *)
let test_ablation_group_shape () =
  let rows = Lazy.force ablation_group in
  let cheap = col "fence=100ns" rows and dear = col "fence=1us" rows in
  check_bool "cheap fences: decreasing" true (increasing (List.rev cheap));
  check_bool "expensive fences: decreasing" true (increasing (List.rev dear));
  let gain c = List.hd c /. List.nth c (List.length c - 1) in
  check_bool "grouping matters more at 1us fences" true (gain dear > gain cheap)

(* benchdiff file handling: a gate that cannot run (missing, unreadable,
   malformed or ambiguous input) must say which file and why, as an
   [Error] the CLI maps to its own exit code — never a bare exception or
   a silent pass. *)

let write_tmp name contents =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

(* One bench "x" row at the point ops=10. *)
let x metrics =
  Bench_row.to_json [ { Bench_row.bench = "x"; labels = [ ("ops", "10") ]; metrics } ]

let valid_bench = x [ Bench_row.higher "throughput" 5.0 ]

let test_benchdiff_missing_baseline () =
  match
    Benchdiff.compare_files ~tolerance:0.1
      ~baseline:"/nonexistent/benchdiff-baseline.json"
      ~current:(write_tmp "bd_current_ok.json" valid_bench)
  with
  | Ok _ -> Alcotest.fail "missing baseline must not compare"
  | Error msg ->
      check_bool "names the baseline" true (contains msg "baseline");
      check_bool "names the path" true (contains msg "benchdiff-baseline.json")

let test_benchdiff_missing_current () =
  match
    Benchdiff.compare_files ~tolerance:0.1
      ~baseline:(write_tmp "bd_baseline_ok.json" valid_bench)
      ~current:"/nonexistent/benchdiff-current.json"
  with
  | Ok _ -> Alcotest.fail "missing current must not compare"
  | Error msg ->
      check_bool "names the current side" true (contains msg "current");
      check_bool "names the path" true (contains msg "benchdiff-current.json")

let test_benchdiff_malformed_json () =
  let garbage = write_tmp "bd_garbage.json" "this is not json {" in
  match
    Benchdiff.compare_files ~tolerance:0.1
      ~baseline:(write_tmp "bd_baseline_ok2.json" valid_bench) ~current:garbage
  with
  | Ok _ -> Alcotest.fail "malformed current must not compare"
  | Error msg ->
      check_bool "says invalid JSON" true (contains msg "not valid JSON");
      check_bool "names the culprit file" true (contains msg "bd_garbage.json")

let test_benchdiff_self_compare () =
  let path = write_tmp "bd_self.json" valid_bench in
  match Benchdiff.compare_files ~tolerance:0.1 ~baseline:path ~current:path with
  | Error msg -> Alcotest.fail ("self-compare failed: " ^ msg)
  | Ok o ->
      check_bool "gated a metric" true (o.Benchdiff.checked > 0);
      check_bool "identical results pass" true (Benchdiff.passed o)

(* Two rows with the same key, compared with itself, once paired the first
   baseline row with the second current row and reported a regression.
   Such a file is ambiguous, so it is an error naming the file. *)
let test_benchdiff_duplicate_rows () =
  let path =
    write_tmp "bd_dup.json"
      {|[ {"bench": "x", "labels": {}, "metrics": {"a_sim_ns": {"value": 1, "better": "lower"}}},
          {"bench": "x", "labels": {}, "metrics": {"a_sim_ns": {"value": 100, "better": "lower"}}} ]|}
  in
  match Benchdiff.compare_files ~tolerance:0.1 ~baseline:path ~current:path with
  | Ok _ -> Alcotest.fail "ambiguous rows must not compare"
  | Error msg ->
      check_bool "names the file" true (contains msg "bd_dup.json");
      check_bool "names the key" true (contains msg "share the key x")

let test_benchdiff_bad_direction () =
  let path =
    write_tmp "bd_sideways.json"
      {|[ {"bench": "x", "labels": {}, "metrics": {"a_sim_ns": {"value": 1, "better": "sideways"}}} ]|}
  in
  match Benchdiff.compare_files ~tolerance:0.1 ~baseline:path ~current:path with
  | Ok _ -> Alcotest.fail "an unknown direction must not compare"
  | Error msg ->
      check_bool "names the file" true (contains msg "bd_sideways.json");
      check_bool "names the metric" true (contains msg "a_sim_ns")

(* per-metric tolerance: a baseline metric's [tolerance] overrides the
   global [--tolerance] for that one metric. *)

let compare_strings ~tolerance ~baseline ~current =
  match
    Benchdiff.compare_files ~tolerance
      ~baseline:(write_tmp "bd_tol_baseline.json" baseline)
      ~current:(write_tmp "bd_tol_current.json" current)
  with
  | Error msg -> Alcotest.fail ("compare failed: " ^ msg)
  | Ok o -> o

let test_benchdiff_per_metric_tolerance () =
  (* 40% throughput drop: fails the 10% global gate, but the baseline
     grants that metric 50% *)
  let o =
    compare_strings ~tolerance:0.1
      ~baseline:
        (x [ { (Bench_row.higher "throughput" 10.0) with tolerance = Some 0.5 } ])
      ~current:(x [ Bench_row.higher "throughput" 6.0 ])
  in
  check_bool "wide per-metric tolerance admits the drop" true
    (Benchdiff.passed o);
  check_bool "exactly one metric gated" true (o.Benchdiff.checked = 1);
  check_bool "nothing missing" true (o.Benchdiff.missing = [])

let test_benchdiff_tolerance_fallback () =
  (* the override is per metric: the metric without one still uses the
     global tolerance and regresses *)
  let o =
    compare_strings ~tolerance:0.1
      ~baseline:
        (x
           [
             { (Bench_row.higher "throughput" 10.0) with tolerance = Some 0.5 };
             Bench_row.lower "sim_ns_per_op" 100.0;
           ])
      ~current:
        (x [ Bench_row.higher "throughput" 6.0; Bench_row.lower "sim_ns_per_op" 140.0 ])
  in
  check_bool "metric without a tolerance falls back to global" false
    (Benchdiff.passed o);
  check_bool "exactly the fallback metric regressed" true
    (List.length o.Benchdiff.regressions = 1)

let test_benchdiff_new_metrics () =
  (* A gated metric only the current run produces cannot be judged; it
     must surface in [new_metrics] (a CLI warning) without failing the
     gate — and [Info] metrics never count as new metrics. *)
  let o =
    compare_strings ~tolerance:0.1
      ~baseline:(x [ Bench_row.higher "throughput" 10.0 ])
      ~current:
        (x
           [
             Bench_row.higher "throughput" 10.0;
             Bench_row.lower ~tolerance:0.5 "latency_p99_sim_ns" 4096.0;
             Bench_row.info "row_count" 7.0;
           ])
  in
  check_bool "still passes" true (Benchdiff.passed o);
  check_bool "the gated current-only metric is reported" true
    (o.Benchdiff.new_metrics = [ "x/ops=10/latency_p99_sim_ns" ]);
  (* a baseline that already has the metric reports none *)
  let both =
    x [ Bench_row.higher "throughput" 10.0; Bench_row.lower "latency_p99_sim_ns" 4096.0 ]
  in
  let o2 = compare_strings ~tolerance:0.1 ~baseline:both ~current:both in
  check_bool "known metrics are not new" true (o2.Benchdiff.new_metrics = [])

let test_benchdiff_tighter_per_metric () =
  (* the override can also tighten: 5% drop passes the 20% global but
     not the metric's own 1% *)
  let o =
    compare_strings ~tolerance:0.2
      ~baseline:
        (x [ { (Bench_row.higher "throughput" 10.0) with tolerance = Some 0.01 } ])
      ~current:(x [ Bench_row.higher "throughput" 9.5 ])
  in
  check_bool "tight per-metric tolerance rejects the drop" false
    (Benchdiff.passed o)

(* The baseline, not the metric's name, says which way is better: a
   "throughput" the file declares [lower] regresses when it rises. *)
let test_benchdiff_direction_from_file () =
  let o =
    compare_strings ~tolerance:0.1
      ~baseline:(x [ Bench_row.lower "throughput" 10.0 ])
      ~current:(x [ Bench_row.higher "throughput" 20.0 ])
  in
  check_bool "rise of a lower-is-better metric fails" false (Benchdiff.passed o);
  check_bool "reported as a regression" true
    (List.map (fun r -> r.Benchdiff.metric) o.Benchdiff.regressions
    = [ "x/ops=10/throughput" ])

(* Every bench's rows, at its smallest size, and the figure rows above
   read back unchanged. *)
let test_rows_round_trip () =
  let rows =
    Append_bench.run ~n_ops:64 ()
    @ Recovery_bench.run ~sizes:[ 64 ] ~intervals:[ 0 ] ()
    @ Scaling_bench.run ~threads:2 ~partitions:[ 1; 2 ] ~txns_per_thread:4 ()
    @ fst (Tpcc_bench.run ~warehouses:1 ~partitions:1 ~arrivals:20 ~arena_mb:64 ())
    @ Twopc_bench.run ~txns:4 ()
    @ List.concat_map Lazy.force figures
  in
  List.iter
    (fun bench ->
      check_bool (bench ^ " rows present") true
        (List.exists (fun r -> r.Bench_row.bench = bench) rows))
    [ "append"; "recovery"; "scaling"; "tpcc"; "2pc" ];
  check_bool "of_json (to_json rows) = rows" true
    (Bench_row.of_json (Bench_row.to_json rows) = Ok rows)

(* Small values keep four significant digits, so 0.00104 and 0.00096
   no longer both print as 0.0010; larger ones print as before. *)
let test_table_cells () =
  List.iter
    (fun (v, want) ->
      Alcotest.(check string) (string_of_float v) want (Bench_row.cell v))
    [
      (0.00104, "0.001040");
      (0.00096, "0.0009600");
      (-0.0123456, "-0.01235");
      (0.5, "0.5000");
      (12.5, "12.5000");
      (1234.5, "1234.50");
      (42., "42");
    ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "benchshape"
    [
      ( "benchdiff-files",
        [
          tc "missing baseline" `Quick test_benchdiff_missing_baseline;
          tc "missing current" `Quick test_benchdiff_missing_current;
          tc "malformed json" `Quick test_benchdiff_malformed_json;
          tc "self-compare passes" `Quick test_benchdiff_self_compare;
          tc "per-metric tolerance override" `Quick
            test_benchdiff_per_metric_tolerance;
          tc "global tolerance fallback" `Quick test_benchdiff_tolerance_fallback;
          tc "tighter per-metric tolerance" `Quick
            test_benchdiff_tighter_per_metric;
          tc "current-only gated metrics warn" `Quick
            test_benchdiff_new_metrics;
          tc "duplicate rows rejected" `Quick test_benchdiff_duplicate_rows;
          tc "unknown direction rejected" `Quick test_benchdiff_bad_direction;
          tc "direction read from the baseline" `Quick
            test_benchdiff_direction_from_file;
          tc "every bench's rows round-trip" `Quick test_rows_round_trip;
          tc "table cells keep 4 significant digits" `Quick test_table_cells;
        ] );
      ( "figures",
        [
          tc "fig3-left ordering" `Slow test_fig3_left_shape;
          tc "fig3-right crossover" `Slow test_fig3_right_shape;
          tc "fig4-left crossover" `Slow test_fig4_left_shape;
          tc "fig4-right 1L wins" `Slow test_fig4_right_shape;
          tc "fig7 ordering" `Slow test_fig7_shape;
          tc "fig8 ordering" `Slow test_fig8_shape;
          tc "fig10 fence sensitivity" `Slow test_fig10_shape;
          tc "fig9 scaling" `Slow test_fig9_shape;
          tc "fig11 ordering" `Slow test_fig11_shape;
          tc "ablation-group" `Slow test_ablation_group_shape;
        ] );
    ]
