(* The flat in-memory table used by the Section 5.1 microbenchmarks: a
   fixed array of word cells in NVM, updated either transactionally
   (through a [Tm.t]) or raw (the non-recoverable baseline the logging
   overhead is measured against). *)

open Rewind_nvm
open Rewind

type t = { arena : Arena.t; base : int; slots : int }

let create alloc ~slots =
  let base = Alloc.alloc_fresh ~align:64 alloc (8 * slots) in
  { arena = Alloc.arena alloc; base; slots }

let slots t = t.slots
let addr t i =
  if i < 0 || i >= t.slots then invalid_arg "Ptable.addr";
  t.base + (8 * i)

let get t i = Arena.read t.arena (addr t i)

(* Transactional update through REWIND. *)
let set t tm txn i v = Tm.write tm txn ~addr:(addr t i) ~value:v

(* Non-recoverable persistent update: a non-temporal store straight to NVM. *)
let set_raw_nvm t i v = Arena.nt_write t.arena (addr t i) v
