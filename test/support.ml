(* What the test executables share: the Alcotest checks they use, the
   root slot their managers sit at, a substring test, a full-record log
   append, a fresh arena/allocator/manager triple, and by-name picks
   from the configuration matrix. *)

open Rewind_nvm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let root_slot = 2

(* [needle] occurs in [hay] (the empty needle always does). *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* Append a full record the test made with [Record.make] itself. *)
let append ?is_end ?lsn log r =
  ignore (Rewind.Log.put ?is_end log (Rewind.Log.full ?lsn r))

(* A fresh [size_bytes] arena (default 8 MiB), its allocator, and a [cfg]
   manager (default 1L-NFP) at [root_slot]. *)
let fresh ?(size_bytes = 8 lsl 20) ?(cfg = Rewind.config_1l_nfp) () =
  let arena = Arena.create ~size_bytes () in
  let alloc = Alloc.create arena in
  (arena, alloc, Rewind.Tm.create ~cfg alloc ~root_slot)

(* The entries of {!Rewind_benchlib.Crash_scenarios.matrix} at 1, 2 or 4
   partitions with the given names ("batch", "1l-nfp-p4"), in that
   order. *)
let configs names =
  let all =
    List.concat_map Rewind_benchlib.Crash_scenarios.matrix [ 1; 2; 4 ]
  in
  List.map (fun n -> (n, List.assoc n all)) names
