(* The result surfaces: a human table, the JSON report, Prometheus text,
   Chrome trace spans, and the one-line summary printed last. *)

open Driver

let int n = Json.Num (float_of_int n)

let pp_metric ppf x =
  Fmt.pf ppf "  %-40s %20s %-12s%s" x.name (Json.number x.value) x.unit
    (match x.samples with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

let pp ppf r =
  let section title l =
    if l <> [] then Fmt.pf ppf "  -- %s@," title;
    List.iter (Fmt.pf ppf "%a@," pp_metric) l
  in
  Fmt.pf ppf "@[<v>== %s  seed %d  input digest %08x  rounds %d (%d traced)@,"
    r.workload r.seed r.digest r.rounds r.traced_rounds;
  Fmt.pf ppf "  attempted %d  failed %d  simulated outputs %s@," r.attempted
    r.failed
    (if r.deterministic then "identical in every round"
     else "DIFFER between rounds");
  section "end to end (gated)" r.e2e;
  section "wall clock (reported, not gated)" r.wall;
  section "per layer (traced rounds)" (r.per_layer @ r.layer);
  Fmt.pf ppf "@]"

let metric_obj l =
  Json.Obj
    (List.map
       (fun x ->
         let samples =
           match x.samples with Some n -> [ ("samples", int n) ] | None -> []
         in
         ( x.name,
           Json.Obj
             ([ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ]
             @ samples) ))
       l)

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", int r.seed);
      ("digest", Json.Str (Printf.sprintf "%08x" r.digest));
      ("rounds", int r.rounds);
      ("traced_rounds", int r.traced_rounds);
      ("correct", Json.Bool (correct r));
      ("attempted", int r.attempted);
      ("failed", int r.failed);
      ("metrics", metric_obj r.e2e);
      ("wall", metric_obj r.wall);
      ("layer", metric_obj (r.per_layer @ r.layer));
    ]

let report results =
  Json.Obj [ ("workloads", Json.Arr (List.map to_json results)) ]

let prometheus results =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "# HELP rewind_suite Benchmark metric; the name label is its JSON key.\n\
     # TYPE rewind_suite gauge\n";
  List.iter
    (fun r ->
      List.iter
        (fun x ->
          Printf.bprintf b "rewind_suite{workload=%S,name=%S,unit=%S} %s\n"
            r.workload x.name x.unit (Json.number x.value))
        (r.e2e @ r.wall @ r.per_layer @ r.layer))
    results;
  Buffer.contents b

let spans results =
  let events pid r =
    match r.spans with Some l -> Layer.chrome l ~pid | None -> []
  in
  Json.Obj
    [ ("traceEvents", Json.Arr (List.concat (List.mapi events results))) ]

(* The summary line: correctness, operation counts, and the end-to-end
   metrics (or, traced, the per-layer ones).  With several workloads the
   metric names carry a "workload." prefix. *)
let summary ~trace results =
  let prefix r = match results with [ _ ] -> "" | _ -> r.workload ^ "." in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun x ->
            ( prefix r ^ x.name,
              Json.Obj
                [ ("value", Json.Num x.value); ("unit", Json.Str x.unit) ] ))
          (if trace then r.per_layer else r.e2e))
      results
  in
  let sum f = int (List.fold_left (fun a r -> a + f r) 0 results) in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all correct results));
      ("attempted", sum (fun r -> r.attempted));
      ("failed", sum (fun r -> r.failed));
      ("metrics", Json.Obj metrics);
    ]
