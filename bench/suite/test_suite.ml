(* The benchmark's own checks, at a tiny scale: every workload repeats
   exactly, tracing changes no simulated output, a wrong model is caught,
   percentiles and quartiles are the textbook ones, [compare] judges and
   refuses as documented, and the metric names match BENCHMARK.json. *)

open Rewind_suite

let workloads = Driver.workloads

let round ?(trace = false) (w : Round.workload) seed =
  let go = w.prepare ~tiny:true ~seed in
  let layer = Layer.create ~on:trace in
  Fun.protect ~finally:(fun () -> Layer.close layer) (fun () -> go layer)

let repeats (w : Round.workload) () =
  let a = round w 3 and b = round w 3 and traced = round ~trace:true w 3 in
  Alcotest.(check int) "no failed operations" 0 a.failed;
  Alcotest.(check bool) "same seed, same simulated outputs" true
    (Round.sim_view a = Round.sim_view b);
  Alcotest.(check bool) "tracing changes no simulated output" true
    (Round.sim_view a = Round.sim_view traced);
  Alcotest.(check bool) "another seed, other inputs" true
    ((round w 4).digest <> a.digest)

let corrupted_model () =
  let r = Wl_recover.prepare ~corrupt:true ~tiny:true ~seed:3 Layer.off in
  Alcotest.(check bool)
    "a model disagreeing with the recovered state fails" true (r.failed > 0)

let percentile () =
  let a = Array.init 1000 (fun i -> i + 1) in
  let p = Stat.percentile a in
  Alcotest.(check (option int)) "p50" (Some 500) (p 500);
  Alcotest.(check (option int)) "p99: ten samples beyond" (Some 990) (p 990);
  Alcotest.(check (option int)) "p99.9: one beyond, omitted" None (p 999);
  let q = Stat.percentile (Array.init 40 (fun i -> 10 * (i + 1))) in
  Alcotest.(check (option int)) "nearest rank rounds up" (Some 110) (q 260);
  Alcotest.(check (option int)) "p25 of forty" (Some 100) (q 250);
  Alcotest.(check (option int)) "p75: ten samples beyond" (Some 300) (q 750);
  Alcotest.(check (option int)) "p76: nine beyond, omitted" None (q 760);
  Alcotest.(check (option int)) "no samples" None (Stat.percentile [||] 500)

let quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Stat.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3

let json () =
  let v =
    Json.Obj
      [
        ("a", Json.Num 0.1);
        ("b", Json.Arr [ Json.Num 3.; Json.Null; Json.Bool true ]);
        ("c", Json.Str "q\"\\\n");
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check string)
    "shortest digits"
    {|{"a": 0.1, "b": [3, null, true], "c": "q\"\\\n"}|} s;
  Alcotest.(check bool) "round trip" true (Json.of_string s = v);
  Alcotest.(check bool) "garbage refused" true
    (match Json.of_string {|{"a": }|} with
    | _ -> false
    | exception Json.Parse_error _ -> true)

let classify () =
  let c = Compare.classify ~lower:true ~bound:0.1 in
  let same = List.init 10 (fun _ -> 100.) in
  let v = Alcotest.testable (Fmt.of_to_string Compare.verdict_name) ( = ) in
  Alcotest.(check v) "identical runs" Compare.Unchanged (c same same);
  Alcotest.(check v) "20% worse everywhere" Compare.Regressed
    (c same (List.init 10 (fun _ -> 120.)));
  Alcotest.(check v) "5% better everywhere" Compare.Improved
    (c same (List.init 10 (fun _ -> 95.)));
  Alcotest.(check v) "5% worse, within the bound" Compare.Unchanged
    (c same (List.init 10 (fun _ -> 105.)));
  let noisy = List.init 10 (fun i -> if i mod 2 = 0 then 60. else 140.) in
  Alcotest.(check v) "base spread wider than the bound" Compare.Unresolved
    (c noisy (List.init 10 (fun i -> if i mod 2 = 0 then 140. else 60.)))

let bench_json = "../../BENCHMARK.json"

let names key =
  match Json.member key (Json.read_file bench_json) with
  | Some (Json.Arr l) ->
      List.map
        (fun e ->
          match Json.member "name" e with
          | Some (Json.Str n) -> n
          | _ -> Alcotest.fail "an entry without a name")
        l
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

(* A workload through the driver, traced, for several rounds: every round
   agrees, and the summary line's metric names are BENCHMARK.json's. *)
let driver () =
  let r =
    Driver.run ~tiny:true ~seed:3 ~seconds:0.3 ~trace:true Wl_recover.workload
  in
  Alcotest.(check bool) "correct" true (Driver.correct r);
  Alcotest.(check bool) "several rounds" true (r.rounds >= 3);
  Alcotest.(check (list string)) "per-layer metrics" (names "per_layer")
    (List.map (fun (x : Driver.metric) -> x.name) r.per_layer);
  let e2e = List.map (fun (x : Driver.metric) -> x.name) r.e2e in
  (* a tiny run has too few samples for its highest percentiles *)
  let expected =
    List.filter
      (fun n ->
        List.mem n e2e || not (String.starts_with ~prefix:"latency_p" n))
      (names "end_to_end")
  in
  Alcotest.(check (list string)) "end-to-end metrics" expected e2e;
  Alcotest.(check (list string)) "workloads" (names "workloads")
    (List.map (fun (w : Round.workload) -> w.name) workloads)

let report ~workload ~digest ~value =
  Json.Obj
    [
      ( "workloads",
        Json.Arr
          [
            Json.Obj
              [
                ("workload", Json.Str workload); ("seed", Json.Num 7.);
                ("digest", Json.Str digest); ("failed", Json.Num 0.);
                ( "metrics",
                  Json.Obj
                    (List.map
                       (fun n -> (n, Json.Obj [ ("value", Json.Num value) ]))
                       (names "end_to_end")) );
              ];
          ] );
    ]

let runs ~digest ~value =
  let dir = Filename.temp_dir "suite-compare" "" in
  for i = 0 to 9 do
    Json.write_file
      (Filename.concat dir (Printf.sprintf "%02d.json" i))
      (report ~workload:"update" ~digest ~value)
  done;
  dir

let remove dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let compare_dirs () =
  let base = runs ~digest:"0000002a" ~value:100. in
  let against ~digest ~value =
    let head = runs ~digest ~value in
    Fun.protect ~finally:(fun () -> remove head) (fun () ->
        Compare.run ~bounds_file:bench_json base head)
  in
  Fun.protect ~finally:(fun () -> remove base) (fun () ->
      Alcotest.(check int) "same numbers" 0
        (against ~digest:"0000002a" ~value:100.);
      Alcotest.(check int) "every metric 60% worse" 1
        (against ~digest:"0000002a" ~value:160.);
      Alcotest.(check bool) "different inputs refused" true
        (match against ~digest:"0000002b" ~value:100. with
        | _ -> false
        | exception Compare.Refused _ -> true))

let () =
  Alcotest.run "bench-suite"
    [
      ( "workloads",
        List.map
          (fun (w : Round.workload) ->
            Alcotest.test_case w.name `Quick (repeats w))
          workloads
        @ [ Alcotest.test_case "corrupted model" `Quick corrupted_model ] );
      ( "stat",
        [
          Alcotest.test_case "percentile" `Quick percentile;
          Alcotest.test_case "quartiles" `Quick quartiles;
          Alcotest.test_case "json" `Quick json;
        ] );
      ( "compare",
        [
          Alcotest.test_case "classify" `Quick classify;
          Alcotest.test_case "directories" `Quick compare_dirs;
        ] );
      ( "driver",
        [ Alcotest.test_case "rounds and metric names" `Quick driver ] );
    ]
