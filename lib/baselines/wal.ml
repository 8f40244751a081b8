(* Block-based write-ahead log for the baseline systems (Stasis-like,
   BerkeleyDB-like, Shore-MT-like).

   This is the architecture the paper contrasts REWIND against: log records
   accumulate in a *volatile* buffer and reach persistence only when the
   buffer is forced through the file system — a kernel crossing plus
   block-granularity writes — at commit time or before a dirty page is
   written back (the WAL rule).

   Records are length-prefixed byte strings packed into blocks on a
   dedicated simulated PMFS file.  A crash discards the buffer; recovery
   re-reads the blocks and parses records until the stream ends. *)

open Rewind_nvm

type t = {
  dev : Block_dev.t;
  record_pad : int;  (* per-record verbosity of this system's log format *)
  mutable buffer : Buffer.t;  (* volatile log tail *)
  mutable forced_bytes : int;  (* durable length of the log *)
  mutable next_lsn : int;
}

let create ?(record_pad = 0) ?(config = Config.default ()) () =
  {
    dev = Block_dev.create ~config ();
    record_pad;
    buffer = Buffer.create 4096;
    forced_bytes = 0;
    next_lsn = 1;
  }

let block_size t = Block_dev.block_size t.dev

(* Serialize one record: total length, then payload, then padding. *)
let append t (payload : string) =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  let total = 8 + String.length payload + t.record_pad in
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int total);
  Buffer.add_bytes t.buffer b;
  Buffer.add_string t.buffer payload;
  if t.record_pad > 0 then Buffer.add_string t.buffer (String.make t.record_pad '\000');
  lsn

(* Force the buffer to the device: every block the tail touches is written
   (the last one partially). *)
let force t =
  let data = Buffer.contents t.buffer in
  let len = String.length data in
  if len > 0 then begin
    let bs = block_size t in
    let start = t.forced_bytes in
    let first_block = start / bs and last_block = (start + len - 1) / bs in
    for blk = first_block to last_block do
      let blk_start = blk * bs in
      let b =
        if blk_start >= start then Bytes.make bs '\000'
        else Block_dev.read t.dev blk
      in
      let from_data = max 0 (blk_start - start) in
      let into_block = max 0 (start - blk_start) in
      let n = min (len - from_data) (bs - into_block) in
      Bytes.blit_string data from_data b into_block n;
      Block_dev.write_sub t.dev blk b (into_block + n)
    done;
    Block_dev.sync t.dev;
    t.forced_bytes <- start + len;
    Buffer.clear t.buffer
  end

(* A crash loses the un-forced tail. *)
let crash t =
  Buffer.clear t.buffer;
  t.next_lsn <- 1

(* Read back every durable record (recovery and device-resident rollback). *)
let iter_durable t f =
  let bs = block_size t in
  let read_word pos =
    let blk = pos / bs and off = pos mod bs in
    let b = Block_dev.read t.dev blk in
    if off + 8 <= bs then Bytes.get_int64_le b off
    else begin
      (* length word straddling blocks *)
      let b2 = Block_dev.read t.dev (blk + 1) in
      let tmp = Bytes.create 8 in
      let n1 = bs - off in
      Bytes.blit b off tmp 0 n1;
      Bytes.blit b2 0 tmp n1 (8 - n1);
      Bytes.get_int64_le tmp 0
    end
  in
  let read_chunk pos len =
    let out = Bytes.create len in
    let rec go pos done_ =
      if done_ < len then begin
        let blk = pos / bs and off = pos mod bs in
        let b = Block_dev.read t.dev blk in
        let n = min (len - done_) (bs - off) in
        Bytes.blit b off out done_ n;
        go (pos + n) (done_ + n)
      end
    in
    go pos 0;
    Bytes.to_string out
  in
  let rec go pos =
    if pos + 8 <= t.forced_bytes then begin
      let total = Int64.to_int (read_word pos) in
      if total > 8 && pos + total <= t.forced_bytes then begin
        let payload = read_chunk (pos + 8) (total - 8 - t.record_pad) in
        f payload;
        go (pos + total)
      end
    end
  in
  go 0

(* Discard the durable log (checkpoint truncation). *)
let truncate t =
  Block_dev.sync t.dev;
  t.forced_bytes <- 0;
  Buffer.clear t.buffer

let device t = t.dev
