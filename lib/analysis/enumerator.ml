(* The crash-state enumerator: a deterministic, exhaustive complement to
   the randomized fault campaign.

   The simulator's crash model already bounds what a power failure can do:
   the durable image always survives; each dirty, unpinned cacheline
   either was or was not written back by the hardware before the failure;
   pinned lines sit in the store buffer and never survive.  At a *fence*
   the set of possibilities collapses — everything written back is
   ordered — so fences are the natural capture points.

   For a bounded workload the enumerator snapshots the arena at every
   fence (and once at the end), then for each snapshot materializes every
   one of the 2^n crash states (n = dirty, unpinned lines), runs the
   caller's recovery procedure against a fresh arena holding that state,
   and applies the caller's legality check.  If any reachable crash state
   recovers to an illegal result, [Illegal] reports the capture point and
   the surviving-line subset, which together replay the failure
   deterministically.

   Soundness: within the simulator's crash model this enumeration is
   exhaustive *at fence boundaries* — every durable state a crash-at-a-
   fence could leave is generated, because line write-backs are the only
   nondeterminism and each is tried both ways.  Crash points *between*
   persistence events are covered by {!Crash_harness.every_event} (every
   intermediate state, in program order) and by the fault campaign; the
   enumerator's contribution is the subsets, which a single linear order
   of crash points cannot reach. *)

open Rewind_nvm

type stats = {
  capture_points : int; (* fences snapshotted (plus the final state) *)
  crash_states : int;   (* materialized and recovered *)
  max_open_lines : int; (* largest dirty-line set at any capture point *)
}

let pp_stats ppf s =
  Fmt.pf ppf "capture points=%d crash states=%d max open lines=%d"
    s.capture_points s.crash_states s.max_open_lines

exception
  Illegal of {
    capture_point : int; (* which fence (0-based, in trace order) *)
    survivors : int list; (* dirty lines that were written back *)
    detail : string;
  }

(* Subset of [lines] selected by the bits of [mask]. *)
let subset lines mask =
  let rec go i acc = function
    | [] -> List.rev acc
    | l :: rest ->
        go (i + 1) (if mask land (1 lsl i) <> 0 then l :: acc else acc) rest
  in
  go 0 [] lines

let run ?(max_lines = 14) ?(at_every_event = false) arena ~workload ~recover
    ~check =
  let images = ref [] in
  (* Fences are the default capture points (the WAL protocols put one at
     every ordering-significant moment).  The epoch protocol (InCLL) is
     nearly fence-free, and — unlike the WAL protocols, whose recovery
     input only changes at persistence events — the *potential* crash
     image changes at every cached store too: a dirty line that the
     hardware writes back carries its volatile content of that instant,
     so the intra-line store sequences (undo written, tag not yet) are
     distinct crash states.  [at_every_event] therefore captures at every
     store (cached or durable) and at every dirty write-back — the
     write-back capture lands *after* the line went durable, pairing with
     the store capture just before it to bracket each flush of an epoch
     advance. *)
  let capture () = images := Arena.capture arena :: !images in
  Arena.set_tracer arena
    (Some
       (function
       | Trace.Fence -> capture ()
       | Trace.Store _ | Trace.Flush { dirty = true; _ } ->
           if at_every_event then capture ()
       | _ -> ()));
  Fun.protect
    ~finally:(fun () -> Arena.set_tracer arena None)
    (fun () -> workload ());
  (* The quiescent end state is a capture point too: it is what a crash
     after the workload must recover from. *)
  images := Arena.capture arena :: !images;
  let images = List.rev !images in
  let states = ref 0 and max_open = ref 0 in
  List.iteri
    (fun point img ->
      let lines = Arena.image_dirty_lines img in
      let n = List.length lines in
      if n > !max_open then max_open := n;
      if n > max_lines then
        Fmt.invalid_arg
          "Enumerator.run: %d dirty lines at capture point %d exceeds \
           max_lines=%d (2^%d states); shrink the workload or raise the bound"
          n point max_lines n;
      for mask = 0 to (1 lsl n) - 1 do
        let survivors = subset lines mask in
        let crashed = Arena.materialize img ~survivors in
        incr states;
        let recovered = recover crashed in
        match check recovered with
        | None -> ()
        | Some detail -> raise (Illegal { capture_point = point; survivors; detail })
      done)
    images;
  {
    capture_points = List.length images;
    crash_states = !states;
    max_open_lines = !max_open;
  }
