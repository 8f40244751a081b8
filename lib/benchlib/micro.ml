(* Bechamel wall-clock micro-benchmarks of the core operations: how fast
   the OCaml simulator runs them, not their simulated cost.  One row per
   operation, its [info] metric [wall_ns_per_op] the OLS estimate over
   Bechamel's monotonic clock.  Wall-clock values vary from machine to
   machine and run to run, so nothing here is gated. *)

open Bechamel
open Rewind_nvm

let env name =
  let alloc = Alloc.create (Arena.create ~size_bytes:(512 lsl 20) ()) in
  let cfg = Option.get (Rewind.config_of_name name) in
  (alloc, Rewind.Tm.create ~cfg alloc ~root_slot:2)

(* One logged word write per run, in transactions bounded at 1 024 writes
   so the log does not grow without end. *)
let tm_write ?(inline = true) name =
  let alloc, tm = env name in
  Rewind.Log.set_inline (Rewind.Tm.log tm) inline;
  let cell = Alloc.alloc alloc 8 in
  let txn = ref (Rewind.Tm.begin_txn tm) in
  let n = ref 0 in
  Staged.stage (fun () ->
      Rewind.Tm.write tm !txn ~addr:cell ~value:(Int64.of_int !n);
      incr n;
      if !n mod 1024 = 0 then begin
        Rewind.Tm.commit tm !txn;
        Rewind.Tm.checkpoint tm;
        txn := Rewind.Tm.begin_txn tm
      end)

(* A whole short transaction per run: begin, 8 word writes, commit. *)
let tm_commit ?(inline = true) name =
  let alloc, tm = env name in
  Rewind.Log.set_inline (Rewind.Tm.log tm) inline;
  let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
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

let adll_append () =
  let alloc = Alloc.create (Arena.create ~size_bytes:(512 lsl 20) ()) in
  let l = Rewind.Adll.create alloc in
  Staged.stage (fun () -> ignore (Rewind.Adll.append l 42))

let btree_insert () =
  let alloc = Alloc.create (Arena.create ~size_bytes:(512 lsl 20) ()) in
  let bt = Rewind_pds.Btree.create Rewind_pds.Btree.Dram alloc in
  let n = ref 0 in
  Staged.stage (fun () ->
      incr n;
      Rewind_pds.Btree.insert bt 0 (Int64.of_int !n) 1L)

let tests () =
  Test.make_grouped ~name:"core"
    [
      Test.make ~name:"tm-write-simple" (tm_write "simple");
      Test.make ~name:"tm-write-1l-nfp" (tm_write "1l-nfp");
      Test.make ~name:"tm-write-1l-nfp-full" (tm_write ~inline:false "1l-nfp");
      Test.make ~name:"tm-write-batch" (tm_write "batch");
      Test.make ~name:"tm-write-batch-full" (tm_write ~inline:false "batch");
      Test.make ~name:"tm-commit8-1l-nfp" (tm_commit "1l-nfp");
      Test.make ~name:"tm-commit8-1l-nfp-full"
        (tm_commit ~inline:false "1l-nfp");
      Test.make ~name:"adll-append" (adll_append ());
      Test.make ~name:"btree-insert-dram" (btree_insert ());
    ]

(* One row per operation with an estimate, in name order. *)
let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let results =
    Analyze.all ols clock (Benchmark.all cfg [ clock ] (tests ()))
  in
  Hashtbl.fold
    (fun name est acc ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] ->
          {
            Bench_row.bench = "micro";
            labels = [ ("op", name) ];
            metrics = [ Bench_row.info "wall_ns_per_op" ns ];
          }
          :: acc
      | _ -> acc)
    results []
  |> List.sort (fun a b -> compare a.Bench_row.labels b.Bench_row.labels)
