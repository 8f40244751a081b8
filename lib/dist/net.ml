(* The simulated message fabric between the 2PC coordinator and its
   participant nodes.

   Messages are synchronous calls in the simulator, so the fabric models
   only the two failure-relevant properties: latency (charged to the
   caller's simulated clock, once per message) and loss.  Loss is
   sampled from a private linear-congruential generator, so a run is a
   pure function of the seed — the crash-everywhere enumerator depends on
   replaying the exact same message schedule while it moves the crash
   point. *)

open Rewind_nvm

type t = {
  latency_ns : int;
  drop_1_in : int;  (* 0 = lossless; n > 0 drops ~1/n messages *)
  mutable state : int;
  mutable sent : int;
  mutable dropped : int;
}

let create ?(latency_ns = 1500) ?(drop_1_in = 0) ?(seed = 1) () =
  { latency_ns; drop_1_in; state = seed lor 1; sent = 0; dropped = 0 }

(* splitmix-style multiplier that fits OCaml's 63-bit tagged int. *)
let next_state s = (s * 0x2545F4914F6CDD1D) + 0x9E3779B97F4A7C1

(* One message hop: charge latency, then decide whether it arrives. *)
let deliver t =
  t.sent <- t.sent + 1;
  Clock.advance t.latency_ns;
  if t.drop_1_in <= 0 then true
  else begin
    t.state <- next_state t.state;
    let drop = (t.state lsr 33) mod t.drop_1_in = 0 in
    if drop then t.dropped <- t.dropped + 1;
    not drop
  end

let sent t = t.sent
let dropped t = t.dropped
