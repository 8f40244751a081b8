(* The one result format every benchmark in this repository emits, and the
   committed baselines under bench/baselines/ are made of.

   A row is one workload point of one bench: the bench name, the labels
   that identify the point (configuration, sizes, phase, ...) and its
   metrics.  Each metric declares its own direction — [Lower] and
   [Higher] are gated by benchdiff, [Info] is reported but never judged —
   and optionally its own tolerance, overriding the gate's global one for
   that metric alone.  Because the file carries the direction, the gate
   never has to guess it from a metric's name.

   Rows render as JSON (the baselines and CI artifacts), Prometheus text
   and the human table, and parse back from JSON with the small
   recursive-descent reader below (the toolchain has no JSON
   dependency). *)

type better = Lower | Higher | Info

type metric = {
  name : string;
  value : float;
  better : better;
  tolerance : float option;  (** [None]: the gate's global tolerance *)
}

type t = {
  bench : string;
  labels : (string * string) list;
  metrics : metric list;
}

let metric ?tolerance better name value = { name; value; better; tolerance }
let lower ?tolerance name v = metric ?tolerance Lower name v
let higher name v = metric Higher name v
let info name v = metric Info name v

(* Integer-valued metrics, the common case. *)
let lower_int ?tolerance name v = lower ?tolerance name (float_of_int v)
let info_int name v = info name (float_of_int v)

(* Identity of the workload point: benchdiff pairs baseline and current
   rows on it, and it prefixes every metric in the gate's report. *)
let key r =
  String.concat "/" (r.bench :: List.map (fun (k, v) -> k ^ "=" ^ v) r.labels)

let value r name =
  List.find_map
    (fun m -> if m.name = name then Some m.value else None)
    r.metrics

let label r k = List.assoc_opt k r.labels

(* Sum of one metric over every row that has it. *)
let total name rows =
  List.fold_left
    (fun acc r -> acc +. Option.value ~default:0. (value r name))
    0. rows

let string_of_better = function
  | Lower -> "lower"
  | Higher -> "higher"
  | Info -> "info"

(* -- JSON ----------------------------------------------------------------- *)

(* Shortest decimal that reads back as the same float, so
   [of_json (to_json rows) = rows]. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_json rows =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  add "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then add ",\n";
      add (Printf.sprintf "  {\"bench\": %S, \"labels\": {" r.bench);
      add
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) r.labels));
      add "}, \"metrics\": {";
      add
        (String.concat ", "
           (List.map
              (fun m ->
                Printf.sprintf "%S: {\"value\": %s, \"better\": %S%s}" m.name
                  (num m.value) (string_of_better m.better)
                  (match m.tolerance with
                  | Some t -> ", \"tolerance\": " ^ num t
                  | None -> ""))
              r.metrics));
      add "}}")
    rows;
  add "\n]\n";
  Buffer.contents b

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'u' ->
              (* escaped code point: keep a placeholder — names and
                 labels never contain them in practice *)
              advance ();
              for _ = 1 to 4 do
                if !pos < n then advance ()
              done;
              Buffer.add_char b '?';
              go ()
          | Some c -> advance (); Buffer.add_char b c; go ()
          | None -> fail "unterminated escape")
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* Well-formed JSON that is not a row list. *)
exception Bad_row of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_row s)) fmt

let row_of_json j =
  let obj what = function Obj fs -> fs | _ -> bad "%s is not an object" what in
  let str what = function Str s -> s | _ -> bad "%s is not a string" what in
  let fields = obj "row" j in
  let field k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> bad "row without %S" k
  in
  let metric (name, m) =
    let ms = obj ("metric " ^ name) m in
    let value =
      match List.assoc_opt "value" ms with
      | Some (Num v) -> v
      | _ -> bad "metric %s has no numeric value" name
    in
    let better =
      match List.assoc_opt "better" ms with
      | Some (Str "lower") -> Lower
      | Some (Str "higher") -> Higher
      | Some (Str "info") -> Info
      | _ -> bad "metric %s: \"better\" is not lower, higher or info" name
    in
    let tolerance =
      match List.assoc_opt "tolerance" ms with
      | None -> None
      | Some (Num t) -> Some t
      | Some _ -> bad "metric %s: \"tolerance\" is not a number" name
    in
    { name; value; better; tolerance }
  in
  {
    bench = str "bench" (field "bench");
    labels =
      List.map
        (fun (k, v) -> (k, str ("label " ^ k) v))
        (obj "labels" (field "labels"));
    metrics = List.map metric (obj "metrics" (field "metrics"));
  }

(* A row list, or a one-line reason it is not one.  Two rows with the same
   {!key} make a file ambiguous — which of them would a comparison pair
   with? — so they are rejected here rather than silently collapsed. *)
let of_json s =
  match parse s with
  | exception Parse_error e -> Error ("not valid JSON: " ^ e)
  | Arr items -> (
      match List.map row_of_json items with
      | exception Bad_row e -> Error ("not a bench-row list: " ^ e)
      | rows -> (
          let seen = Hashtbl.create 64 in
          match
            List.find_opt
              (fun r ->
                let k = key r in
                Hashtbl.mem seen k || (Hashtbl.add seen k (); false))
              rows
          with
          | Some r ->
              Error
                (Printf.sprintf "ambiguous: two rows share the key %s" (key r))
          | None -> Ok rows))
  | _ -> Error "not a bench-row list: top level is not an array"

(* -- Prometheus text ------------------------------------------------------ *)

(* One gauge per bench and metric, [rewind_<bench>_<metric>], labelled by
   the row's labels; every sample of a gauge is emitted under its one TYPE
   line, as the exposition format requires. *)
let to_prometheus rows =
  let sanitize =
    String.map (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
      | _ -> '_')
  in
  let samples = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun r ->
      let labels =
        String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%S" (sanitize k) v)
             r.labels)
      in
      List.iter
        (fun m ->
          let g = sanitize (Printf.sprintf "rewind_%s_%s" r.bench m.name) in
          if not (Hashtbl.mem samples g) then begin
            Hashtbl.add samples g (Buffer.create 256);
            order := g :: !order
          end;
          Buffer.add_string (Hashtbl.find samples g)
            (Printf.sprintf "%s{%s} %s\n" g labels (num m.value)))
        r.metrics)
    rows;
  String.concat ""
    (List.rev_map
       (fun g ->
         Printf.sprintf "# TYPE %s gauge\n%s" g
           (Buffer.contents (Hashtbl.find samples g)))
       !order)

(* -- human table ---------------------------------------------------------- *)

(* Four decimals below 100, but never fewer than four significant
   digits: 0.00104 prints as 0.001040. *)
let cell v =
  if Float.is_integer v then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100. then Printf.sprintf "%.2f" v
  else
    let magnitude = int_of_float (Float.floor (Float.log10 (Float.abs v))) in
    Printf.sprintf "%.*f" (max 4 (3 - magnitude)) v

(* Consecutive rows of one bench with the same labels and metrics share a
   header; labels are left-aligned, metric values right-aligned. *)
let pp_table ppf rows =
  let columns r =
    ("bench", `L) :: List.map (fun (k, _) -> (k, `L)) r.labels
    @ List.map (fun m -> (m.name, `R)) r.metrics
  in
  let cells r =
    (r.bench :: List.map snd r.labels)
    @ List.map (fun m -> cell m.value) r.metrics
  in
  let rec print = function
    | [] -> ()
    | r :: _ as rows ->
        let cols = columns r in
        let rec split acc = function
          | r' :: rest when columns r' = cols -> split (r' :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let group, rest = split [] rows in
        let lines = List.map cells group in
        let widths =
          List.fold_left
            (List.map2 (fun w c -> max w (String.length c)))
            (List.map (fun (h, _) -> String.length h) cols)
            lines
        in
        let line cs =
          String.concat "  "
            (List.map2
               (fun (w, (_, align)) c ->
                 let pad = String.make (w - String.length c) ' ' in
                 if align = `L then c ^ pad else pad ^ c)
               (List.combine widths cols) cs)
        in
        Fmt.pf ppf "%s@." (line (List.map fst cols));
        List.iter (fun cs -> Fmt.pf ppf "%s@." (line cs)) lines;
        print rest
  in
  print rows

(* -- files ---------------------------------------------------------------- *)

(* Write [rows] as JSON to [json] and as Prometheus text to [prom], each
   only if given.  A path that cannot be written is a one-line diagnostic
   and exit 2 — the CLI's "could not run" code — not an uncaught exception
   after the whole bench has run. *)
let write_rows ?json ?prom rows =
  let write render = function
    | None -> ()
    | Some path -> (
        match open_out path with
        | exception Sys_error e ->
            (* [e] reads "<path>: <reason>" *)
            Fmt.epr "cannot write results: %s@." e;
            exit 2
        | oc ->
            output_string oc (render rows);
            close_out oc;
            Fmt.pr "wrote %s@." path)
  in
  write to_json json;
  write to_prometheus prom
