(* Simulated nanosecond clock.

   The simulator runs on one domain, so there is one clock.  Multi-threaded
   benchmarks (Figure 9, Figure 11) run their threads as {!Sim_threads}
   fibers, which swap each fiber's time in and out of this counter with
   {!set} at every switch and model lock contention with {!Sim_mutex};
   library code simply calls {!advance}. *)

type t = { mutable ns : int }

let clock = { ns = 0 }
let advance ns = clock.ns <- clock.ns + ns
let now () = clock.ns
let set ns = clock.ns <- ns
let reset () = set 0

(* Bring the clock up to at least [ns]; used when a simulated lock was
   released at a later simulated time than the acquirer has reached. *)
let advance_to ns = if ns > clock.ns then clock.ns <- ns

type span = { start : int }

let start () = { start = now () }
let elapsed s = now () - s.start

let pp_ns ppf ns =
  if ns >= 1_000_000_000 then Fmt.pf ppf "%.3fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then Fmt.pf ppf "%.3fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Fmt.pf ppf "%.3fus" (float_of_int ns /. 1e3)
  else Fmt.pf ppf "%dns" ns
