(* Deterministic pseudo-random generator for TPC-C data and workload
   generation (splitmix64): reproducible across runs and independent of the
   fiber schedule, which the simulated-time methodology requires. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [lo, hi] inclusive. *)
let int t lo hi =
  if hi < lo then invalid_arg "Rng.int";
  let span = hi - lo + 1 in
  lo + Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int span))

let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

(* TPC-C NURand non-uniform distribution. *)
let nurand t a x y =
  let c = 7 in
  (((int t 0 a lor int t x y) + c) mod (y - x + 1)) + x
