(* The repository benchmark: four workloads over the REWIND stack, every
   metric on the simulated clock and the wall clock, and [compare] for
   judging a change from paired runs.  See README.md. *)

open Rewind_suite

let workloads = Driver.workloads

let usage =
  "usage: suite.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]\n\
  \                 [--json FILE] [--prom FILE] [--spans FILE]\n\
  \       suite.exe compare BASE_DIR HEAD_DIR\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Round.name) workloads)

type opts = {
  mutable chosen : Round.workload list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable json : string option;
  mutable prom : string option;
  mutable spans : string option;
}

let bad fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("suite: " ^ s);
      prerr_endline usage;
      exit 2)
    fmt

let parse args =
  let o =
    {
      chosen = [];
      seed = 7;
      seconds = 10.;
      trace = false;
      json = None;
      prom = None;
      spans = None;
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match List.find_opt (fun x -> x.Round.name = w) workloads with
        | Some x -> o.chosen <- o.chosen @ [ x ]
        | None -> bad "unknown workload %S" w);
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> o.seed <- n
        | None -> bad "--seed wants an integer, got %S" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> o.seconds <- s
        | _ -> bad "--seconds wants a positive number, got %S" v);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> o.trace <- false
        | "1" -> o.trace <- true
        | _ -> bad "--trace wants 0 or 1, got %S" v);
        go rest
    | "--json" :: f :: rest ->
        o.json <- Some f;
        go rest
    | "--prom" :: f :: rest ->
        o.prom <- Some f;
        go rest
    | "--spans" :: f :: rest ->
        o.spans <- Some f;
        go rest
    | a :: _ -> bad "unexpected argument %S" a
  in
  go args;
  if o.chosen = [] then o.chosen <- workloads;
  o

let write path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> exit (Compare.main rest)
  | args ->
      let o = parse args in
      let results =
        List.map
          (fun w ->
            let r =
              Driver.run ~seed:o.seed ~seconds:o.seconds ~trace:o.trace w
            in
            Fmt.pr "%a@." Report.pp r;
            r)
          o.chosen
      in
      Option.iter (fun f -> Json.write_file f (Report.report results)) o.json;
      Option.iter (fun f -> write f (Report.prometheus results)) o.prom;
      Option.iter (fun f -> Json.write_file f (Report.spans results)) o.spans;
      print_endline (Json.to_string (Report.summary ~trace:o.trace results));
      exit (if List.for_all Driver.correct results then 0 else 1)
