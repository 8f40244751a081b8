(** CRC-32 (IEEE 802.3).  Returns the checksum as a non-negative [int]
    with the low 32 bits significant. *)

val digest : string -> int
val digest_sub : string -> int -> int -> int

(** Streaming word interface — [finish (update_int64 ... (update_int64
    init w0) ...)] equals the digest of the words' little-endian byte
    images, with no heap allocation. *)

val init : int
val update_int64 : int -> int64 -> int
val finish : int -> int
