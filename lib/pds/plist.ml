(* The paper's running example (Listings 1 and 2): a persistent
   doubly-linked list whose critical updates are made recoverable by
   enclosing them in a REWIND transaction.  The code deliberately follows
   the shape of the expanded Listing 2: every store to reachable state is
   preceded by its log call (here fused into [Tm.write]), and node
   de-allocation is deferred past commit via a DELETE record.

   Node layout: value, next, prev (three words). *)

open Rewind_nvm
open Rewind

let node_bytes = 24
let o_value = 0
let o_next = 8
let o_prev = 16

type t = {
  tm : Tm.t;
  arena : Arena.t;
  alloc : Alloc.t;
  head_cell : int;
  tail_cell : int;
}

let create tm alloc =
  let arena = Alloc.arena alloc in
  let head_cell = Alloc.alloc_fresh alloc 8 in
  let tail_cell = Alloc.alloc_fresh alloc 8 in
  { tm; arena; alloc; head_cell; tail_cell }

let attach tm alloc ~head_cell ~tail_cell =
  { tm; arena = Alloc.arena alloc; alloc; head_cell; tail_cell }

let head_cell t = t.head_cell
let tail_cell t = t.tail_cell
let rd t off = Int64.to_int (Arena.read t.arena off)
let head t = rd t t.head_cell
let tail t = rd t t.tail_cell
let value t n = Arena.read t.arena (n + o_value)
let next t n = rd t (n + o_next)
let prev t n = rd t (n + o_prev)
let is_empty t = head t = 0

(* Append within an open transaction.  The fresh node is initialised with
   raw durable stores — it only becomes critical once linked. *)
let push_back t txn v =
  let n = Alloc.alloc t.alloc node_bytes in
  Arena.nt_write t.arena (n + o_value) v;
  Arena.nt_write t.arena (n + o_next) 0L;
  Arena.nt_write t.arena (n + o_prev) (Int64.of_int (tail t));
  let tl = tail t in
  if tl = 0 then Tm.write t.tm txn ~addr:t.head_cell ~value:(Int64.of_int n)
  else Tm.write t.tm txn ~addr:(tl + o_next) ~value:(Int64.of_int n);
  Tm.write t.tm txn ~addr:t.tail_cell ~value:(Int64.of_int n);
  n

(* Listing 1's [remove], expanded as in Listing 2. *)
let remove t txn n =
  let p = prev t n and nx = next t n in
  if tail t = n then Tm.write t.tm txn ~addr:t.tail_cell ~value:(Int64.of_int p);
  if head t = n then Tm.write t.tm txn ~addr:t.head_cell ~value:(Int64.of_int nx);
  if p <> 0 then Tm.write t.tm txn ~addr:(p + o_next) ~value:(Int64.of_int nx);
  if nx <> 0 then Tm.write t.tm txn ~addr:(nx + o_prev) ~value:(Int64.of_int p);
  (* "delete(n)": only after commit — a DELETE record defers it. *)
  Tm.log_delete t.tm txn ~addr:n ~size:node_bytes

let iter t f =
  let rec go n =
    if n <> 0 then begin
      f n (value t n);
      go (next t n)
    end
  in
  go (head t)

let to_list t =
  let acc = ref [] in
  iter t (fun _ v -> acc := v :: !acc);
  List.rev !acc

let length t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let find t v =
  let found = ref 0 in
  (try
     iter t (fun n x -> if x = v && !found = 0 then begin found := n; raise Exit end)
   with Exit -> ());
  !found

let well_formed t =
  let ok = ref true in
  let last = ref 0 in
  iter t (fun n _ ->
      if prev t n <> !last then ok := false;
      last := n);
  if tail t <> !last then ok := false;
  !ok
