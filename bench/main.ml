(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) from the simulated-NVM cost model, plus
   the ablation benches from DESIGN.md and a Bechamel wall-clock
   micro-benchmark section for the core operations.

   Usage:
     bench/main.exe                 run everything at the default scale
     bench/main.exe --quick         smaller parameters (CI-sized)
     bench/main.exe fig7-left fig9  run selected figures only
     bench/main.exe micro           run only the Bechamel micro-benches
     bench/main.exe --json FILE ... also write every figure row to FILE

   Table 1 of the paper is qualitative (pros/cons of FS vs DBMS vs
   library); it has no measurable series and is discussed in
   EXPERIMENTS.md. *)

open Rewind_benchlib

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock micro-benchmarks                                 *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let mk_env variant =
    let arena = Rewind_nvm.Arena.create ~size_bytes:(512 lsl 20) () in
    let alloc = Rewind_nvm.Alloc.create arena in
    let cfg = { Rewind.Tm.default_config with variant } in
    let tm = Rewind.Tm.create ~cfg alloc ~root_slot:2 in
    (alloc, tm)
  in
  let tm_write ?(inline = true) variant =
    let alloc, tm = mk_env variant in
    Rewind.Log.set_inline (Rewind.Tm.log tm) inline;
    let cell = Rewind_nvm.Alloc.alloc alloc 8 in
    let txn = ref (Rewind.Tm.begin_txn tm) in
    let n = ref 0 in
    Staged.stage (fun () ->
        Rewind.Tm.write tm !txn ~addr:cell ~value:(Int64.of_int !n);
        incr n;
        (* bound transaction length so the log does not explode *)
        if !n mod 1024 = 0 then begin
          Rewind.Tm.commit tm !txn;
          Rewind.Tm.checkpoint tm;
          txn := Rewind.Tm.begin_txn tm
        end)
  in
  (* a whole short transaction per run: begin, 8 word writes, commit *)
  let tm_commit ?(inline = true) variant =
    let alloc, tm = mk_env variant in
    Rewind.Log.set_inline (Rewind.Tm.log tm) inline;
    let cells = Array.init 8 (fun _ -> Rewind_nvm.Alloc.alloc alloc 8) in
    let n = ref 0 in
    Staged.stage (fun () ->
        let txn = Rewind.Tm.begin_txn tm in
        Array.iter
          (fun c ->
            incr n;
            Rewind.Tm.write tm txn ~addr:c ~value:(Int64.of_int (!n land 0xFFF)))
          cells;
        Rewind.Tm.commit tm txn;
        if !n mod 8192 = 0 then Rewind.Tm.checkpoint tm)
  in
  let adll_append =
    let arena = Rewind_nvm.Arena.create ~size_bytes:(512 lsl 20) () in
    let alloc = Rewind_nvm.Alloc.create arena in
    let l = Rewind.Adll.create alloc in
    Staged.stage (fun () -> ignore (Rewind.Adll.append l 42))
  in
  let btree_insert =
    let arena = Rewind_nvm.Arena.create ~size_bytes:(512 lsl 20) () in
    let alloc = Rewind_nvm.Alloc.create arena in
    let bt = Rewind_pds.Btree.create Rewind_pds.Btree.Dram alloc in
    let n = ref 0 in
    Staged.stage (fun () ->
        incr n;
        Rewind_pds.Btree.insert bt 0 (Int64.of_int !n) 1L)
  in
  let tests =
    Test.make_grouped ~name:"core"
      [
        Test.make ~name:"tm-write-simple" (tm_write Rewind.Log.Simple);
        Test.make ~name:"tm-write-optimized" (tm_write Rewind.Log.Optimized);
        Test.make ~name:"tm-write-optimized-full"
          (tm_write ~inline:false Rewind.Log.Optimized);
        Test.make ~name:"tm-write-batch8" (tm_write (Rewind.Log.Batch 8));
        Test.make ~name:"tm-write-batch8-full"
          (tm_write ~inline:false (Rewind.Log.Batch 8));
        Test.make ~name:"tm-commit8-optimized" (tm_commit Rewind.Log.Optimized);
        Test.make ~name:"tm-commit8-optimized-full"
          (tm_commit ~inline:false Rewind.Log.Optimized);
        Test.make ~name:"adll-append" adll_append;
        Test.make ~name:"btree-insert-dram" btree_insert;
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
    in
    let raw = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw) instances
    in
    Analyze.merge ols instances results
  in
  Fmt.pr "@.== micro: Bechamel wall-clock micro-benchmarks ==@.";
  let results = benchmark () in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Fmt.pr "%-28s %10.1f ns/op (wall)@." name est
          | Some _ | None -> Fmt.pr "%-28s (no estimate)@." name)
        tbl)
    results;
  Fmt.pr "@."

let () =
  let rec parse json names = function
    | "--json" :: file :: rest -> parse (Some file) names rest
    | "--quick" :: rest -> parse json names rest
    | name :: rest -> parse json (name :: names) rest
    | [] -> (json, List.rev names)
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let json, names = parse None [] args in
  let to_run =
    match names with [] -> Figures.names @ [ "micro" ] | ns -> ns
  in
  let t0 = Unix.gettimeofday () in
  let rows =
    List.concat_map
      (fun name ->
        if name = "micro" then (micro (); [])
        else
          match Figures.find name with
          | Some e ->
              let s = Unix.gettimeofday () in
              let rows = Figures.run ~quick e in
              Fmt.pr "# %s completed in %.1fs wall@." name
                (Unix.gettimeofday () -. s);
              Gc.compact ();
              rows
          | None ->
              Fmt.epr "unknown figure %S; available: %s micro@." name
                (String.concat " " Figures.names);
              [])
      to_run
  in
  Bench_row.write_rows ?json rows;
  Fmt.pr "@.# total wall time: %.1fs@." (Unix.gettimeofday () -. t0)
