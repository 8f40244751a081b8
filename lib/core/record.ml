(* Log records, in three forms.

   A full record occupies exactly one 64-byte cacheline (eight words), so
   that creating one "off-line" — cached stores followed by a single
   write-back — costs one NVM write before it is atomically linked into
   the log.  The bucketed logs also hold two compact forms in their own
   slots (layouts below): a one-slot END word for a payload-free user END
   (txn < 2^17, LSN < 2^26), and a two-slot pair for word-sized
   UPDATE/CLR records (txn < 2^17, LSN < 2^26, 16-bit images, address
   < 2^28) and the AAVLT's internal records (36-bit images).  A record
   that fits neither is a full record.  The fields mirror ARIES/REWIND:
   LSN, transaction id, record type, affected address, before/after
   images, the undo-next pointer used by CLRs, and the
   previous-record-of-same-transaction chain used by two-layer logging.

   The type word carries the record's CRC-32 in its upper half (the type
   code needs only the lower half): recovery verifies it before
   interpreting any field, so a torn or media-corrupted line is detected
   and truncated instead of being replayed as garbage.

   Records are manipulated by NVM address (an [int] arena offset). *)

open Rewind_nvm

type typ =
  | Update
  | Clr
  | End
  | Delete
  | Rollback
  | Prepare

let int_of_typ = function
  | Update -> 1
  | Clr -> 2
  | End -> 3
  | Delete -> 5
  | Rollback -> 6
  | Prepare -> 7

let typ_of_int = function
  | 1 -> Update
  | 2 -> Clr
  | 3 -> End
  | 5 -> Delete
  | 6 -> Rollback
  | 7 -> Prepare
  | n -> Fmt.invalid_arg "Record.typ_of_int: %d" n

let size_bytes = 64

(* Word offsets within a record. *)
let o_lsn = 0
let o_txn = 8
let o_typ = 16
let o_addr = 24
let o_old = 32
let o_new = 40
let o_undo_next = 48
let o_prev_same_txn = 56

(* CRC-32 of the record image with the checksum half of the type word held
   at zero.  Fed word-by-word through {!Crc32.update_int64} — bit-for-bit
   the digest of the 64-byte little-endian image, with no [Bytes]
   allocation on the append path. *)
let image_crc ~lsn ~txn ~typw ~addr ~old_value ~new_value ~undo_next
    ~prev_same_txn =
  let c = Crc32.init in
  let c = Crc32.update_int64 c lsn in
  let c = Crc32.update_int64 c txn in
  let c = Crc32.update_int64 c (Int64.logand typw 0xFFFFFFFFL) in
  let c = Crc32.update_int64 c addr in
  let c = Crc32.update_int64 c old_value in
  let c = Crc32.update_int64 c new_value in
  let c = Crc32.update_int64 c undo_next in
  let c = Crc32.update_int64 c prev_same_txn in
  Crc32.finish c

(* -- inline compact records --------------------------------------------- *)

(* A small record can live in the bucket's own slots instead of a
   heap-allocated 64-byte line.  Slot values are otherwise 0 (never
   used), 1 (tombstone) or a 64-byte-aligned record address, so the low
   three bits of a slot word are free to tag two compact forms.  Every
   compact word keeps bits 62-63 zero, so it survives the arena's
   [Int64.to_int] round-trip as a non-negative OCaml int and never
   compares as a record address.

   Both forms open with the same word, under its own tag:

     w0:  [2:0]=tag  [18:3]=crc16  [35:19]=txn(17 bits)  [61:36]=lsn(26 bits)

   The END word is w0 alone, tag 2 (0b010): a payload-free user END
   (txn > 0: every commit and rollback end).  Its crc16 is the folded
   CRC-32 of the word with the crc field zeroed.  A word cannot tear, but
   a media-faulty line can serve garbage, so the checksum stays.

   The pair is w0 and a second slot, tag 7 (0b111), holding the record's
   kind, address and word-sized images:

     w1:  [2:0]=7  [4:3]=kind  [29:5]=addr/8 (25 bits)  [45:30]=a16  [61:46]=b16

   kind 0, a user UPDATE: a16 = old value, b16 = new value.
   kind 1, a user CLR: a16 = undo-next LSN, b16 = new (restored) value —
   a CLR's old value is write-only throughout the system, so it is not
   stored and decodes as 0.
   A user pair's w0 has tag 6 (0b110).
   kind 2 and 3, an AAVLT-internal UPDATE and END (txn 0, lsn 0): w0
   has tag 5 (0b101), and its txn and lsn fields hold
   old[35:16] | new[35:16] << 20 instead, a16/b16 the low halves —
   36-bit images cover node pointers, keys and heights.

   Each accessor reads one word where it can: the LSN and txn from w0,
   whose tag says whether they are stored; the type, address, undo-next
   and a user record's images from w1.  The address field reaches
   256 MiB.  A pair's crc16 is the folded CRC-32 of both words with w0's
   crc field zeroed, and a pair is valid only when w0's tag and w1's kind
   agree; a pair whose second word is missing, untrusted or mismatched
   is a torn record, truncated by recovery exactly like a bad-CRC full
   record.

   A compact record is addressed by an *inline ref*: the NVM address of
   its first slot with low bits 0b001 for a pair and 0b011 for an END
   word.  Slot offsets are 8-aligned and real record addresses 64-aligned,
   so refs are odd and unambiguous; every accessor below branches on the
   ref bits, never on a load, which keeps the recovery/rollback
   algorithms in [Tm] format-agnostic. *)

let fold16 c = (c lxor (c lsr 16)) land 0xFFFF
let fits n bits = n >= 0 && n lsr bits = 0

(* The first word of either compact form. *)
module W0 = struct
  let make ~tag ~txn ~lsn = tag lor (txn lsl 19) lor (lsn lsl 36)
  let stored_crc w = (w lsr 3) land 0xFFFF
  let txn w = (w lsr 19) land 0x1FFFF
  let lsn w = (w lsr 36) land 0x3FFFFFF
  let without_crc w = Int64.of_int (w land lnot (0xFFFF lsl 3))
  let with_crc w c = w lor (c lsl 3)
end

module Word = struct
  let tag = 2

  let is_word w = w >= 0 && w land 7 = tag

  let crc16 w =
    fold16 (Crc32.finish (Crc32.update_int64 Crc32.init (W0.without_crc w)))

  let valid w = is_word w && crc16 w = W0.stored_crc w

  (* A payload-free user END, or [None]: the caller tries the pair next. *)
  let encode ~lsn ~txn ~typ ~addr ~old_value ~new_value ~undo_next =
    if
      typ = End && addr = 0 && old_value = 0L && new_value = 0L
      && undo_next = 0 && txn > 0 && fits txn 17 && fits lsn 26
    then
      let w = W0.make ~tag ~txn ~lsn in
      Some (W0.with_crc w (crc16 w))
    else None
end

module Inline = struct
  let tag_user = 6
  let tag_internal = 5
  let tag_second = 7

  (* Slot-word classification (on values read back as OCaml ints).
     Garbage with bit 62 of the NVM word set reads back negative and is
     rejected here before any field is interpreted. *)
  let is_first_word w =
    w >= 0 && (w land 7 = tag_user || w land 7 = tag_internal)

  let is_second_word w = w >= 0 && w land 7 = tag_second
  let internal w0 = w0 land 7 = tag_internal

  let crc16 ~w0 ~w1 =
    fold16
      (Crc32.finish
         (Crc32.update_int64
            (Crc32.update_int64 Crc32.init (W0.without_crc w0))
            (Int64.of_int w1)))

  (* second-word fields *)
  let kind w1 = (w1 lsr 3) land 3
  let addr_of w1 = ((w1 lsr 5) land 0x1FFFFFF) lsl 3
  let a16 w1 = (w1 lsr 30) land 0xFFFF
  let b16 w1 = (w1 lsr 46) land 0xFFFF

  let typ_of_kind = function 0 | 2 -> Update | 1 -> Clr | _ -> End

  (* An internal record's 36-bit image: its high 20 bits at bit [at] of
     w0's txn/lsn fields, its low 16 bits [lo] from w1. *)
  let image ~w0 ~at ~lo =
    Int64.of_int ((((w0 lsr (19 + at)) land 0xFFFFF) lsl 16) lor lo)

  let valid ~w0 ~w1 =
    is_first_word w0 && is_second_word w1 && internal w0 = (kind w1 >= 2)
    && crc16 ~w0 ~w1 = W0.stored_crc w0

  let fits64 v bits =
    Int64.compare v 0L >= 0
    && Int64.compare v (Int64.shift_left 1L bits) < 0

  (* Encode, or [None] when any field exceeds the compact format or the
     record is a user END — the caller falls back to a full record, so
     eligibility is pure policy. *)
  let encode ~lsn ~txn ~typ ~addr ~old_value ~new_value ~undo_next =
    if not (addr >= 0 && addr land 7 = 0 && fits (addr lsr 3) 25) then None
    else
      let pack ~w0 ~kind ~a16 ~b16 =
        let w1 =
          tag_second lor (kind lsl 3) lor ((addr lsr 3) lsl 5) lor (a16 lsl 30)
          lor (b16 lsl 46)
        in
        Some (W0.with_crc w0 (crc16 ~w0 ~w1), w1)
      in
      let internal =
        txn = 0 && lsn = 0 && undo_next = 0
        && (typ = Update || typ = End)
        && fits64 old_value 36 && fits64 new_value 36
      in
      if internal then
        let ov = Int64.to_int old_value and nv = Int64.to_int new_value in
        (* the high halves fill w0's txn and lsn fields *)
        let hi = (ov lsr 16) lor ((nv lsr 16) lsl 20) in
        pack ~w0:(tag_internal lor (hi lsl 19))
          ~kind:(if typ = Update then 2 else 3)
          ~a16:(ov land 0xFFFF) ~b16:(nv land 0xFFFF)
      else if not (fits txn 17 && fits lsn 26) then None
      else
        let w0 = W0.make ~tag:tag_user ~txn ~lsn in
        match typ with
        | Clr ->
            (* the old value is write-only: dropped, decodes as 0 *)
            if fits undo_next 16 && fits64 new_value 16 then
              pack ~w0 ~kind:1 ~a16:undo_next ~b16:(Int64.to_int new_value)
            else None
        | Update ->
            if undo_next = 0 && fits64 old_value 16 && fits64 new_value 16
            then
              pack ~w0 ~kind:0 ~a16:(Int64.to_int old_value)
                ~b16:(Int64.to_int new_value)
            else None
        | End | Delete | Rollback | Prepare -> None
end

(* An inline ref is the record's first-slot address with low bits 0b001
   (a pair) or 0b011 (an END word). *)
let is_inline r = r land 1 = 1
let is_word r = r land 3 = 3
let inline_ref ~width slot = if width = 1 then slot lor 3 else slot lor 1
let inline_slot r = r land lnot 7

let iw0 a r = Int64.to_int (Arena.read a (inline_slot r))
let iw1 a r = Int64.to_int (Arena.read a (inline_slot r + 8))

let lsn a r =
  if is_inline r then
    let w0 = iw0 a r in
    if Inline.internal w0 then 0 else W0.lsn w0
  else Int64.to_int (Arena.read a (r + o_lsn))

let txn a r =
  if is_inline r then
    let w0 = iw0 a r in
    if Inline.internal w0 then 0 else W0.txn w0
  else Int64.to_int (Arena.read a (r + o_txn))

let typ a r =
  if is_word r then End
  else if is_inline r then Inline.typ_of_kind (Inline.kind (iw1 a r))
  else
    typ_of_int (Int64.to_int (Int64.logand (Arena.read a (r + o_typ)) 0xFFFFFFFFL))

(* An END word carries no address, images or chain: they decode as 0. *)
let addr a r =
  if is_word r then 0
  else if is_inline r then Inline.addr_of (iw1 a r)
  else Int64.to_int (Arena.read a (r + o_addr))

let old_value a r =
  if is_word r then 0L
  else if is_inline r then
    let w1 = iw1 a r in
    match Inline.kind w1 with
    | 0 -> Int64.of_int (Inline.a16 w1)
    | 1 (* Clr: old value not stored *) -> 0L
    | _ -> Inline.image ~w0:(iw0 a r) ~at:0 ~lo:(Inline.a16 w1)
  else Arena.read a (r + o_old)

let new_value a r =
  if is_word r then 0L
  else if is_inline r then
    let w1 = iw1 a r in
    if Inline.kind w1 >= 2 then
      Inline.image ~w0:(iw0 a r) ~at:20 ~lo:(Inline.b16 w1)
    else Int64.of_int (Inline.b16 w1)
  else Arena.read a (r + o_new)

let undo_next a r =
  if is_word r then 0
  else if is_inline r then
    let w1 = iw1 a r in
    if Inline.kind w1 = 1 then Inline.a16 w1 else 0
  else Int64.to_int (Arena.read a (r + o_undo_next))

let prev_same_txn a r =
  if is_inline r then 0
  else Int64.to_int (Arena.read a (r + o_prev_same_txn))

(* Re-exported word predicates and encoders, used by the log's scans and
   appends. *)
let is_inline_first_word = Inline.is_first_word
let is_inline_second_word = Inline.is_second_word
let is_end_word = Word.is_word
let inline_pair_valid ~w0 ~w1 = Inline.valid ~w0 ~w1
let end_word_valid = Word.valid
let inline_encode = Inline.encode
let word_encode = Word.encode

let pack_typ_word ~typw ~crc =
  Int64.logor
    (Int64.logand typw 0xFFFFFFFFL)
    (Int64.shift_left (Int64.of_int crc) 32)

let checksum a r =
  if is_inline r then W0.stored_crc (iw0 a r)
  else Int64.to_int (Int64.shift_right_logical (Arena.read a (r + o_typ)) 32)

(* Recompute the CRC from the record as currently readable and compare it
   with the stored one.  Interprets no field, so it is safe on garbage. *)
let verify a r =
  if is_word r then Word.valid (iw0 a r)
  else if is_inline r then Inline.valid ~w0:(iw0 a r) ~w1:(iw1 a r)
  else
    let w o = Arena.read a (r + o) in
    let typw = w o_typ in
    let stored = Int64.to_int (Int64.shift_right_logical typw 32) in
    stored
    = image_crc ~lsn:(w o_lsn) ~txn:(w o_txn) ~typw ~addr:(w o_addr)
        ~old_value:(w o_old) ~new_value:(w o_new) ~undo_next:(w o_undo_next)
        ~prev_same_txn:(w o_prev_same_txn)

(* Could [r] address a full record: 64-aligned and inside the arena?
   Checked before anything dereferences a record address read from NVM. *)
let plausible a r =
  r >= 0 && r land (size_bytes - 1) = 0 && r + size_bytes <= Arena.size a

let intact a r = plausible a r && verify a r

(* Create a record with cached stores and one write-back.  No fence is
   issued here: the caller decides when the record must be ordered before
   subsequent writes (immediately for Simple/Optimized logging; at the
   group boundary for Batch logging). *)
let make alloc ~lsn:l ~txn:x ~typ:t ~addr:ad ~old_value:ov ~new_value:nv
    ~undo_next:un ~prev_same_txn:pv =
  let a = Alloc.arena alloc in
  let r = Alloc.alloc ~align:size_bytes alloc size_bytes in
  let typw = Int64.of_int (int_of_typ t) in
  let crc =
    image_crc ~lsn:(Int64.of_int l) ~txn:(Int64.of_int x) ~typw
      ~addr:(Int64.of_int ad) ~old_value:ov ~new_value:nv
      ~undo_next:(Int64.of_int un) ~prev_same_txn:(Int64.of_int pv)
  in
  Arena.write a (r + o_lsn) (Int64.of_int l);
  Arena.write a (r + o_txn) (Int64.of_int x);
  Arena.write a (r + o_typ) (pack_typ_word ~typw ~crc);
  Arena.write a (r + o_addr) (Int64.of_int ad);
  Arena.write a (r + o_old) ov;
  Arena.write a (r + o_new) nv;
  Arena.write a (r + o_undo_next) (Int64.of_int un);
  Arena.write a (r + o_prev_same_txn) (Int64.of_int pv);
  Arena.flush_line a r;
  r

(* Durable update of the same-transaction back-chain; only legal while the
   record is not yet reachable from the log or an index chain.  The
   checksum covers the chain pointer, so it is rewritten too — same
   cacheline, so the NVM charge write-combines with the pointer store. *)
let set_prev_same_txn a r v =
  if is_inline r then
    invalid_arg "Record.set_prev_same_txn: inline records carry no chain";
  Arena.nt_write a (r + o_prev_same_txn) (Int64.of_int v);
  let w o = Arena.read a (r + o) in
  let typw = w o_typ in
  let crc =
    image_crc ~lsn:(w o_lsn) ~txn:(w o_txn) ~typw ~addr:(w o_addr)
      ~old_value:(w o_old) ~new_value:(w o_new) ~undo_next:(w o_undo_next)
      ~prev_same_txn:(Int64.of_int v)
  in
  Arena.nt_write a (r + o_typ) (pack_typ_word ~typw ~crc)

(* Compact records live in their bucket's slots: nothing to free. *)
let free alloc r =
  if not (is_inline r) then Alloc.free ~align:size_bytes alloc r size_bytes
