(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.

   Used to checksum log records: a 64-byte record carries a 32-bit CRC of
   its other fields, so recovery can tell a well-formed record from a torn
   or media-corrupted line without interpreting garbage field values. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc b =
  let t = Lazy.force table in
  t.((crc lxor b) land 0xff) lxor (crc lsr 8)

(* Streaming interface over raw words, for checksumming NVM structures
   without materialising them into a [Bytes] buffer.  [init] / a chain of
   [update_int64] / [finish] is bit-for-bit the digest of the words'
   little-endian byte images. *)
let init = 0xFFFFFFFF
let finish crc = crc lxor 0xFFFFFFFF

let update_int64 crc w =
  (* Feed the eight LE bytes of [w] without heap allocation: the low 63
     bits come through [Int64.to_int]; bit 63 is the sign. *)
  let lo = Int64.to_int w in
  let crc = ref crc in
  for i = 0 to 6 do
    crc := update !crc ((lo lsr (8 * i)) land 0xff)
  done;
  let b7 =
    ((lo lsr 56) land 0x7f) lor (if Int64.compare w 0L < 0 then 0x80 else 0)
  in
  update !crc b7

let digest_sub s pos len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := update !crc (Char.code (String.unsafe_get s i))
  done;
  !crc lxor 0xFFFFFFFF

let digest s = digest_sub s 0 (String.length s)
