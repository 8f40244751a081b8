(* Integer options shared by the command-line tools: an option outside
   its bounds is cmdliner's usage error (exit 124), not a run. *)

open Cmdliner

(* An integer in [[min, max]]. *)
let bounded ~min ~max =
  let parse s =
    match int_of_string_opt s with
    | Some n when n < min ->
        Error (`Msg (Fmt.str "%s is below the minimum of %d" s min))
    | Some n when n > max ->
        Error (`Msg (Fmt.str "%s is above the maximum of %d" s max))
    | Some n -> Ok n
    | None -> Error (`Msg (Fmt.str "%S is not an integer" s))
  in
  Arg.conv (parse, Fmt.int)

(* A count option: an integer of at least [min]. *)
let count ~min = bounded ~min ~max:max_int
