(* [suite.exe compare BASE_DIR HEAD_DIR]: judge a change from paired runs.

   Each directory holds the [--json] reports of one commit's runs; the
   files of the two directories pair up in name order, so run them
   alternately (base, head, base, head, ...) with the same seed per pair.
   For each end-to-end metric of BENCHMARK.json and each workload:

   - improved: the head wins at least 9 of every 10 pairs (ties count for
     neither) and the medians differ by more than the base runs'
     interquartile range;
   - unresolved: otherwise, when the base runs spread (IQR over median)
     wider than the metric's bound, unless every head run beats every
     base run;
   - regressed: otherwise, when the head median is worse than the base
     median by more than the bound;
   - unchanged: everything else.

   A head with more failed operations than its base regresses whatever
   its metrics say.  Pairs whose input digests or seeds differ measured
   different inputs and are refused.  Exit status: 0, 1 on any
   regression, 2 when the runs cannot be compared. *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let min_pairs = 10

let classify ~lower ~bound base head =
  let better a b = if lower then a < b else a > b in
  let wins =
    List.length
      (List.filter (fun (b, h) -> better h b) (List.combine base head))
  in
  let mb = Stat.median base and mh = Stat.median head in
  let q1, q3 = Stat.quartiles base in
  let scale = Float.max (Float.abs mb) Float.epsilon in
  let worse_by = (if lower then mh -. mb else mb -. mh) /. scale in
  let all_better = List.for_all (fun h -> List.for_all (better h) base) head in
  if 10 * wins >= 9 * List.length base && better mh mb
     && Float.abs (mh -. mb) > q3 -. q1
  then Improved
  else if (q3 -. q1) /. scale > bound && not all_better then Unresolved
  else if worse_by > bound then Regressed
  else Unchanged

exception Refused of string

let refuse fmt = Printf.ksprintf (fun s -> raise (Refused s)) fmt

let read path =
  try Json.read_file path
  with Json.Parse_error e | Sys_error e -> refuse "%s: %s" path e

(* (path, report) of every run in [dir], in name order. *)
let reports dir =
  let files =
    try Sys.readdir dir with Sys_error e -> refuse "%s" e
  in
  Array.to_list files
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (path, read path))

let workloads (path, v) =
  match Json.member "workloads" v with
  | Some (Json.Arr l) ->
      List.map
        (fun w ->
          match Json.member "workload" w with
          | Some (Json.Str name) -> (name, w)
          | _ -> refuse "%s: a workload without a name" path)
        l
  | _ -> refuse "%s: not a suite report" path

let field path w key =
  match Json.member key w with
  | Some v -> v
  | None -> refuse "%s: no %s" path key

let num path w key =
  match field path w key with
  | Json.Num x -> x
  | _ -> refuse "%s: %s is not a number" path key

let metric path w name =
  match Json.member name (field path w "metrics") with
  | Some o -> num path o "value"
  | None -> refuse "%s: no metric %s" path name

(* (name, lower is better, bound) of every end-to-end metric. *)
let bounds file =
  match Json.member "end_to_end" (read file) with
  | Some (Json.Arr l) ->
      List.map
        (fun e ->
          let get k = Json.member k e in
          match (get "name", get "better", get "bound") with
          | Some (Json.Str n), Some (Json.Str b), Some (Json.Num x) ->
              (n, b = "lower", x)
          | _ -> refuse "%s: malformed end_to_end entry" file)
        l
  | _ -> refuse "%s: no end_to_end list" file

let spread l =
  let q1, q3 = Stat.quartiles l in
  Printf.sprintf "%s [%s, %s]"
    (Json.number (Stat.median l))
    (Json.number q1) (Json.number q3)

let run ~bounds_file base_dir head_dir =
  let bounds = bounds bounds_file in
  let base = reports base_dir and head = reports head_dir in
  let n = List.length base in
  if n <> List.length head then
    refuse "%d base runs against %d head runs: runs must pair up" n
      (List.length head);
  if n < min_pairs then refuse "%d pairs; at least %d are needed" n min_pairs;
  let pairs = List.combine base head in
  let regressed = ref false in
  List.iter
    (fun (wname, _) ->
      let side run =
        match List.assoc_opt wname (workloads run) with
        | Some w -> (fst run, w)
        | None -> refuse "%s: no workload %s" (fst run) wname
      in
      let sides = List.map (fun (b, h) -> (side b, side h)) pairs in
      List.iter
        (fun ((bp, b), (hp, h)) ->
          if field bp b "digest" <> field hp h "digest"
             || num bp b "seed" <> num hp h "seed"
          then
            refuse "%s and %s: %s ran different inputs (seed or digest differ)"
              bp hp wname)
        sides;
      let failed pick =
        List.fold_left
          (fun a s ->
            let p, w = pick s in
            a +. num p w "failed")
          0. sides
      in
      let fb = failed fst and fh = failed snd in
      if fh > fb then begin
        regressed := true;
        Printf.printf "%-8s failed operations: %g base, %g head: regressed\n"
          wname fb fh
      end;
      List.iter
        (fun (name, lower, bound) ->
          let b = List.map (fun ((p, w), _) -> metric p w name) sides
          and h = List.map (fun (_, (p, w)) -> metric p w name) sides in
          let v = classify ~lower ~bound b h in
          if v = Regressed then regressed := true;
          Printf.printf "%-8s %-20s base %-36s head %-36s %s\n" wname name
            (spread b) (spread h) (verdict_name v))
        bounds)
    (workloads (List.hd base));
  if !regressed then 1 else 0

let main = function
  | [ base; head ] -> (
      try run ~bounds_file:"BENCHMARK.json" base head
      with Refused why ->
        prerr_endline ("compare: " ^ why);
        2)
  | _ ->
      prerr_endline "usage: suite.exe compare BASE_DIR HEAD_DIR";
      2
