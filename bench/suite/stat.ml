(* Order statistics over raw samples. *)

(* Nearest-rank percentile of an ascending array, with the percentile in
   per-mille so the rank is exact integer arithmetic: the smallest sample
   with at least [permille]/1000 of the samples at or below it.  [None]
   when fewer than 10 samples lie beyond that rank — a percentile resting
   on a handful of samples is noise, not a tail. *)
let percentile sorted permille =
  let n = Array.length sorted in
  let rank = max 1 (((permille * n) + 999) / 1000) in
  if n = 0 || n - rank < 10 then None else Some sorted.(rank - 1)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median = function
  | [] -> invalid_arg "Stat.median: no samples"
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so a spread computed here matches
   one computed there from the same values. *)
let quartiles l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then invalid_arg "Stat.quartiles: need two samples";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (q 1, q 3)
