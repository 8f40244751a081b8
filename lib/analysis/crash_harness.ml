(* The crash harness.  Every crash sweep in the repository is one of a few
   shapes — crash at every persistence event of a window, at every
   fence-boundary subset, inside recovery, or at one random point — and
   each shape is written here once, over a scenario record that states
   the claim: the world, the crash window, the reattach, and the
   protocol's allowed-set predicate.

   Two rules hold for every driver:
   - a trial armed at a point must crash there.  The dry run's event
     count names the points, so a trial that completes means the
     scenario is not deterministic or the sweep is mis-armed — either
     way it has tested nothing, and it fails loudly;
   - every recovery runs under a collecting sanitizer on each of the
     world's arenas that is not already traced, and any violation fails
     the trial. *)

open Rewind_nvm
module San = Sanitizer

type ('w, 'r) scenario = {
  setup : unit -> 'w;
  arenas : 'w -> Arena.t array;
  window : 'w -> unit;
  recover : 'w -> Arena.t -> 'r;
  check : 'w -> 'r -> string option;
}

exception Failed of { arena : int; event : int; detail : string }

let () =
  Printexc.register_printer (function
    | Failed { arena; event; detail } ->
        Some
          (Printf.sprintf
             "Crash_harness.Failed: arena %d, window event %d: %s" arena
             event detail)
    | _ -> None)

let fail ~arena ~event fmt =
  Fmt.kstr (fun detail -> raise (Failed { arena; event; detail })) fmt

type sweep = {
  arenas_swept : int;
  crash_points : int;
  recovery_crash_points : int;
}

let sweep points recovery_crash_points =
  {
    arenas_swept = List.length (List.sort_uniq compare (List.map fst points));
    crash_points = List.length points;
    recovery_crash_points;
  }

type origin = [ `Window_end | `Every_event ]

(* Persistence events are exactly the points [Arena.arm_crash] counts. *)
let events a =
  let s = Arena.stats a in
  s.Stats.nt_stores + s.Stats.flushes

(* Run [f] (a recovery) with a collecting sanitizer on every untraced
   arena of [arenas].  A violation wins over whatever [f] did, including
   a crash; otherwise [f]'s result or exception passes through. *)
let sanitized arenas f =
  let sans =
    List.fold_left
      (fun acc a ->
        if Arena.traced a then acc else San.attach ~mode:San.Collect a :: acc)
      [] arenas
  in
  let result = match f () with r -> Ok r | exception e -> Error e in
  List.iter San.detach sans;
  match (List.concat_map San.violations sans, result) with
  | (v :: _ as vs), _ ->
      Error
        (Fmt.str "%d sanitizer violation(s) during recovery, first: %a"
           (List.length vs) San.pp_violation v)
  | [], Ok r -> Ok r
  | [], Error e -> raise e

(* Recover the world from its first arena — with a crash armed at
   recovery event [arm + 1], if given — and apply the allowed-set
   predicate.  Returns the recovered state and the recovery's
   persistence-event count (the check's own events excluded).  The armed
   crash passes through; any other exception in recovery is a failed
   trial. *)
let recover_at ?arm s w ~arena ~event =
  let a = (s.arenas w).(0) in
  let before = events a in
  let recover () =
    Option.iter (fun after -> Arena.arm_crash a ~after) arm;
    Fun.protect
      ~finally:(fun () -> Arena.disarm_crash a)
      (fun () -> s.recover w a)
  in
  let outcome =
    match sanitized (Array.to_list (s.arenas w)) recover with
    | Error detail -> Error detail
    | Ok r -> (
        let n = events a - before in
        match s.check w r with None -> Ok (r, n) | Some d -> Error d)
    | exception ((Arena.Crash | Failed _) as e) -> raise e
    | exception e -> Error ("recovery raised " ^ Printexc.to_string e)
  in
  match outcome with Ok rn -> rn | Error d -> fail ~arena ~event "%s" d

let recover_checked s w = fst (recover_at s w ~arena:(-1) ~event:0)

(* The crash points of the window, as (arena, event) pairs: a dry run
   counts each arena's persistence events. *)
let window_points ?(stride = fun _ -> 1) s =
  let w = s.setup () in
  let arenas = s.arenas w in
  let before = Array.map events arenas in
  s.window w;
  List.concat
    (List.mapi
       (fun i a ->
         let n = events a - before.(i) in
         let step = max 1 (stride n) in
         List.init ((n + step - 1) / step) (fun j -> (i, 1 + (j * step))))
       (Array.to_list arenas))

(* A fresh world crashed at window point [(i, k)]; [k = 0] is a power
   failure of every arena after the window completes. *)
let crashed_world s (i, k) =
  let w = s.setup () in
  let arenas = s.arenas w in
  if k = 0 then begin
    s.window w;
    Array.iter Arena.crash arenas
  end
  else begin
    let a = arenas.(i) in
    Arena.arm_crash a ~after:(k - 1);
    (try s.window w with Arena.Crash -> ());
    Arena.disarm_crash a;
    if not (Arena.crashed a) then
      fail ~arena:i ~event:k
        "armed at window event %d, but the window completed without crashing"
        k
  end;
  Array.iter Arena.clear_crashed arenas;
  w

let every_event ?stride s =
  let points = window_points ?stride s in
  List.iter
    (fun ((i, k) as p) ->
      ignore (recover_at s (crashed_world s p) ~arena:i ~event:k))
    points;
  sweep points 0

let every_fence_subset ?at_every_event s =
  let w = s.setup () in
  Enumerator.run ?at_every_event (s.arenas w).(0)
    ~workload:(fun () -> s.window w)
    ~recover:(fun crashed ->
      sanitized [ crashed ] (fun () -> s.recover w crashed))
    ~check:(function Ok r -> s.check w r | Error detail -> Some detail)

let origin_points s = function
  | `Window_end -> [ (0, 0) ]
  | `Every_event -> window_points s

(* Recover [w] with a crash armed at recovery event [after + 1]: true if
   the recovery crashed, false if it completed (and passed the check). *)
let recovery_crashed s w ~after ~arena ~event =
  match recover_at ~arm:after s w ~arena ~event with
  | _ -> false
  | exception Arena.Crash ->
      Arena.clear_crashed (s.arenas w).(0);
      true

let during_recovery ?(from = `Window_end) s ~observe =
  let points = origin_points s from in
  let crashes = ref 0 in
  List.iter
    (fun ((arena, event) as p) ->
      let recovered w = recover_at s w ~arena ~event in
      let w = crashed_world s p in
      let r, n = recovered w in
      let reference = observe w r in
      for j = 1 to n do
        incr crashes;
        let w = crashed_world s p in
        if not (recovery_crashed s w ~after:(j - 1) ~arena ~event)
        then
          fail ~arena ~event
            "recovery armed at its event %d/%d completed without crashing" j n;
        let got = observe w (fst (recovered w)) in
        if got <> reference then
          fail ~arena ~event
            "recovery crashed at its event %d/%d, then reached %s; an \
             uninterrupted recovery reaches %s"
            j n got reference
      done)
    points;
  sweep points !crashes

let recovery_chain ?(from = `Window_end) s =
  let points = origin_points s from in
  let crashes = ref 0 in
  List.iter
    (fun ((arena, event) as p) ->
      let w = crashed_world s p in
      let depth = ref 0 in
      while recovery_crashed s w ~after:!depth ~arena ~event do
        incr depth
      done;
      crashes := !crashes + !depth)
    points;
  sweep points !crashes

let crash_once s ~after =
  match List.filter (fun (i, _) -> i = 0) (window_points s) with
  | [] -> fail ~arena:0 ~event:0 "the window has no persistence events"
  | points ->
      let k = (after mod List.length points) + 1 in
      fst (recover_at s (crashed_world s (0, k)) ~arena:0 ~event:k)
