(* A persistent B+-tree living in simulated NVM.

   This is the recoverable data structure of the paper's Section 5.2/5.3
   experiments.  One implementation serves all persistence layers through
   a [mode]:

   - [Dram]: plain cached stores, no persistence, no recoverability — the
     paper's DRAM baseline;
   - [Direct_nvm]: non-temporal stores, persistent but NOT recoverable (a
     crash mid-operation can tear the structure) — the paper's NVM
     baseline;
   - [Logged tm]: every mutation of reachable state goes through
     [Tm.write], so REWIND's WAL makes operations atomic and durable.

   Crash discipline under [Logged]: freshly allocated nodes are initialised
   with raw non-temporal stores (durable immediately, unreachable until
   linked), and every write to *reachable* state is logged.  Under the
   no-force policy the logged writes are cached and recovery's redo pass
   replays them; the fresh-node contents are already durable, so the
   replayed link never dangles.

   Layout (order B = 8; arrays carry one slack slot so a node may briefly
   hold [order] keys before it is split):
     word 0       : tag = leaf flag (bit 0) | nkeys << 8
     words 1..8   : keys (8 slots, at most 7 after an operation completes)
     leaf         : words 9..16 = values, word 17 = next-leaf
     internal     : words 9..17 = children                                *)

open Rewind_nvm
open Rewind

let order = 8
let max_keys = order - 1      (* 7 *)
let min_keys = (order + 1) / 2 - 1  (* 3: minimum occupancy after deletion *)
let node_words = 2 * order + 2
let node_bytes = 8 * node_words

type mode = Dram | Direct_nvm | Logged of Tm.t

type t = {
  mode : mode;
  arena : Arena.t;
  alloc : Alloc.t;
  root_cell : int;  (* NVM word holding the root node address *)
}

let o_tag = 0
let o_key i = 8 * (1 + i)
let o_val i = 8 * (order + 1 + i)
let o_child i = 8 * (order + 1 + i)
let o_next = 8 * ((2 * order) + 1)

(* -- store/load through the persistence mode --------------------------- *)

let load t off = Arena.read t.arena off

(* Mutation of reachable state. *)
let store t txn off v =
  match t.mode with
  | Dram -> Arena.write t.arena off v
  | Direct_nvm -> Arena.nt_write t.arena off v
  | Logged tm -> Tm.write tm txn ~addr:off ~value:v

(* Initialisation of a node that is not yet reachable. *)
let store_fresh t off v =
  match t.mode with
  | Dram -> Arena.write t.arena off v
  | Direct_nvm | Logged _ -> Arena.nt_write t.arena off v

(* -- node accessors ------------------------------------------------------ *)

let tag t n = Int64.to_int (load t (n + o_tag))
let is_leaf t n = tag t n land 1 = 1
let nkeys t n = tag t n lsr 8
let mk_tag ~leaf ~n = Int64.of_int ((n lsl 8) lor if leaf then 1 else 0)
let set_tag t txn n ~leaf ~count = store t txn (n + o_tag) (mk_tag ~leaf ~n:count)
let key t n i = load t (n + o_key i)
let value t n i = load t (n + o_val i)
let child t n i = Int64.to_int (load t (n + o_child i))
let next_leaf t n = Int64.to_int (load t (n + o_next))

let new_node t ~leaf =
  let n = Alloc.alloc ~align:64 t.alloc node_bytes in
  (* Zero the whole node with fresh stores: free-list reuse may leave
     stale contents, and under [Logged] the node must be durably clean
     before it becomes reachable. *)
  for w = 0 to node_words - 1 do
    store_fresh t (n + (8 * w)) 0L
  done;
  store_fresh t (n + o_tag) (mk_tag ~leaf ~n:0);
  n

let root t = Int64.to_int (load t t.root_cell)

let create mode alloc =
  let arena = Alloc.arena alloc in
  let root_cell = Alloc.alloc_fresh ~align:64 alloc 8 in
  let t = { mode; arena; alloc; root_cell } in
  let r = new_node t ~leaf:true in
  (match mode with
  | Dram -> Arena.write arena root_cell (Int64.of_int r)
  | Direct_nvm | Logged _ ->
      Arena.nt_write arena root_cell (Int64.of_int r);
      Arena.fence arena);
  t

(* Reattach to an existing tree, e.g. after crash recovery. *)
let attach mode alloc ~root_cell =
  { mode; arena = Alloc.arena alloc; alloc; root_cell }

let root_cell t = t.root_cell

(* -- search -------------------------------------------------------------- *)

(* Node visits chase pointers: one cache miss each. *)
let charge_visit t = Clock.advance (Arena.config t.arena).Config.read_miss_ns

(* Index of the first key >= k, within the node's live keys. *)
let search_keys t n k =
  let cnt = nkeys t n in
  let rec go i = if i < cnt && key t n i < k then go (i + 1) else i in
  go 0

let rec find_leaf t n k =
  charge_visit t;
  if is_leaf t n then n
  else
    let i = search_keys t n k in
    let i = if i < nkeys t n && key t n i = k then i + 1 else i in
    find_leaf t (child t n i) k

let lookup t k =
  let leaf = find_leaf t (root t) k in
  let i = search_keys t leaf k in
  if i < nkeys t leaf && key t leaf i = k then Some (value t leaf i) else None

let mem t k = lookup t k <> None

(* -- insertion ------------------------------------------------------------ *)

(* Shift keys/values right from position [i] in a leaf; logged writes. *)
let leaf_insert_at t txn n i k v =
  let cnt = nkeys t n in
  for j = cnt - 1 downto i do
    store t txn (n + o_key (j + 1)) (key t n j);
    store t txn (n + o_val (j + 1)) (value t n j)
  done;
  store t txn (n + o_key i) k;
  store t txn (n + o_val i) v;
  set_tag t txn n ~leaf:true ~count:(cnt + 1)

let internal_insert_at t txn n i k c =
  let cnt = nkeys t n in
  for j = cnt - 1 downto i do
    store t txn (n + o_key (j + 1)) (key t n j);
    store t txn (n + o_child (j + 2)) (Int64.of_int (child t n (j + 1)))
  done;
  store t txn (n + o_key i) k;
  store t txn (n + o_child (i + 1)) (Int64.of_int c);
  set_tag t txn n ~leaf:false ~count:(cnt + 1)

(* Split a full leaf: the new right sibling is built with fresh stores,
   then linked with logged writes. *)
let split_leaf t txn n =
  let cnt = nkeys t n in
  let keep = cnt / 2 in
  let right = new_node t ~leaf:true in
  for j = keep to cnt - 1 do
    store_fresh t (right + o_key (j - keep)) (key t n j);
    store_fresh t (right + o_val (j - keep)) (value t n j)
  done;
  store_fresh t (right + o_next) (Int64.of_int (next_leaf t n));
  store_fresh t (right + o_tag) (mk_tag ~leaf:true ~n:(cnt - keep));
  store t txn (n + o_next) (Int64.of_int right);
  set_tag t txn n ~leaf:true ~count:keep;
  (key t right 0, right)

let split_internal t txn n =
  let cnt = nkeys t n in
  let keep = cnt / 2 in
  let sep = key t n keep in
  let right = new_node t ~leaf:false in
  for j = keep + 1 to cnt - 1 do
    store_fresh t (right + o_key (j - keep - 1)) (key t n j)
  done;
  for j = keep + 1 to cnt do
    store_fresh t (right + o_child (j - keep - 1)) (Int64.of_int (child t n j))
  done;
  store_fresh t (right + o_tag) (mk_tag ~leaf:false ~n:(cnt - keep - 1));
  set_tag t txn n ~leaf:false ~count:keep;
  (sep, right)

(* Returns [Some (separator, new_right)] if the child split. *)
let rec insert_rec t txn n k v =
  charge_visit t;
  if is_leaf t n then begin
    let i = search_keys t n k in
    if i < nkeys t n && key t n i = k then begin
      (* update in place *)
      store t txn (n + o_val i) v;
      None
    end
    else begin
      leaf_insert_at t txn n i k v;
      if nkeys t n > max_keys then Some (split_leaf t txn n) else None
    end
  end
  else begin
    let i = search_keys t n k in
    let i = if i < nkeys t n && key t n i = k then i + 1 else i in
    match insert_rec t txn (child t n i) k v with
    | None -> None
    | Some (sep, right) ->
        internal_insert_at t txn n i sep right;
        if nkeys t n > max_keys then Some (split_internal t txn n) else None
  end

let insert t txn k v =
  let r = root t in
  match insert_rec t txn r k v with
  | None -> ()
  | Some (sep, right) ->
      let nr = new_node t ~leaf:false in
      store_fresh t (nr + o_key 0) sep;
      store_fresh t (nr + o_child 0) (Int64.of_int r);
      store_fresh t (nr + o_child 1) (Int64.of_int right);
      store_fresh t (nr + o_tag) (mk_tag ~leaf:false ~n:1);
      store t txn t.root_cell (Int64.of_int nr)

(* -- deletion -------------------------------------------------------------- *)

let leaf_remove_at t txn n i =
  let cnt = nkeys t n in
  for j = i to cnt - 2 do
    store t txn (n + o_key j) (key t n (j + 1));
    store t txn (n + o_val j) (value t n (j + 1))
  done;
  set_tag t txn n ~leaf:true ~count:(cnt - 1)

let internal_remove_at t txn n i =
  (* removes key i and child i+1 *)
  let cnt = nkeys t n in
  for j = i to cnt - 2 do
    store t txn (n + o_key j) (key t n (j + 1))
  done;
  for j = i + 1 to cnt - 1 do
    store t txn (n + o_child j) (Int64.of_int (child t n (j + 1)))
  done;
  set_tag t txn n ~leaf:false ~count:(cnt - 1)

let free_node t txn n =
  match t.mode with
  | Logged tm -> Tm.log_delete tm txn ~addr:n ~size:node_bytes
  | Dram | Direct_nvm -> Alloc.free ~align:64 t.alloc n node_bytes

(* Rebalance child [i] of internal node [n] after a deletion left it under
   [min_keys]: borrow from a sibling or merge. *)
let fix_underflow t txn n i =
  let c = child t n i in
  let leaf = is_leaf t c in
  let borrow_left () =
    let l = child t n (i - 1) in
    let lcnt = nkeys t l in
    if leaf then begin
      leaf_insert_at t txn c 0 (key t l (lcnt - 1)) (value t l (lcnt - 1));
      set_tag t txn l ~leaf:true ~count:(lcnt - 1);
      store t txn (n + o_key (i - 1)) (key t c 0)
    end
    else begin
      (* rotate through the separator *)
      let cnt = nkeys t c in
      for j = cnt - 1 downto 0 do
        store t txn (c + o_key (j + 1)) (key t c j)
      done;
      for j = cnt downto 0 do
        store t txn (c + o_child (j + 1)) (Int64.of_int (child t c j))
      done;
      store t txn (c + o_key 0) (key t n (i - 1));
      store t txn (c + o_child 0) (Int64.of_int (child t l lcnt));
      set_tag t txn c ~leaf:false ~count:(cnt + 1);
      store t txn (n + o_key (i - 1)) (key t l (lcnt - 1));
      set_tag t txn l ~leaf:false ~count:(lcnt - 1)
    end
  in
  let borrow_right () =
    let r = child t n (i + 1) in
    let rcnt = nkeys t r in
    if leaf then begin
      let cnt = nkeys t c in
      store t txn (c + o_key cnt) (key t r 0);
      store t txn (c + o_val cnt) (value t r 0);
      set_tag t txn c ~leaf:true ~count:(cnt + 1);
      leaf_remove_at t txn r 0;
      store t txn (n + o_key i) (key t r 0)
    end
    else begin
      let cnt = nkeys t c in
      store t txn (c + o_key cnt) (key t n i);
      store t txn (c + o_child (cnt + 1)) (Int64.of_int (child t r 0));
      set_tag t txn c ~leaf:false ~count:(cnt + 1);
      store t txn (n + o_key i) (key t r 0);
      let rcnt' = rcnt in
      for j = 0 to rcnt' - 2 do
        store t txn (r + o_key j) (key t r (j + 1))
      done;
      for j = 0 to rcnt' - 1 do
        store t txn (r + o_child j) (Int64.of_int (child t r (j + 1)))
      done;
      set_tag t txn r ~leaf:false ~count:(rcnt' - 1)
    end
  in
  (* Merge child [i] and child [i+1] into child [i]. *)
  let merge_with_right i =
    let l = child t n i and r = child t n (i + 1) in
    let lcnt = nkeys t l and rcnt = nkeys t r in
    if leaf then begin
      for j = 0 to rcnt - 1 do
        store t txn (l + o_key (lcnt + j)) (key t r j);
        store t txn (l + o_val (lcnt + j)) (value t r j)
      done;
      store t txn (l + o_next) (Int64.of_int (next_leaf t r));
      set_tag t txn l ~leaf:true ~count:(lcnt + rcnt)
    end
    else begin
      store t txn (l + o_key lcnt) (key t n i);
      for j = 0 to rcnt - 1 do
        store t txn (l + o_key (lcnt + 1 + j)) (key t r j)
      done;
      for j = 0 to rcnt do
        store t txn (l + o_child (lcnt + 1 + j)) (Int64.of_int (child t r j))
      done;
      set_tag t txn l ~leaf:false ~count:(lcnt + 1 + rcnt)
    end;
    internal_remove_at t txn n i;
    free_node t txn r
  in
  if i > 0 && nkeys t (child t n (i - 1)) > min_keys then borrow_left ()
  else if i < nkeys t n && nkeys t (child t n (i + 1)) > min_keys then
    borrow_right ()
  else if i > 0 then merge_with_right (i - 1)
  else merge_with_right i

let rec delete_rec t txn n k =
  charge_visit t;
  if is_leaf t n then begin
    let i = search_keys t n k in
    if i < nkeys t n && key t n i = k then begin
      leaf_remove_at t txn n i;
      true
    end
    else false
  end
  else begin
    let i = search_keys t n k in
    let i = if i < nkeys t n && key t n i = k then i + 1 else i in
    let c = child t n i in
    let removed = delete_rec t txn c k in
    if removed && nkeys t c < min_keys then fix_underflow t txn n i;
    removed
  end

let delete t txn k =
  let r = root t in
  let removed = delete_rec t txn r k in
  (* Shrink the root when it has become a single-child internal node. *)
  if removed && not (is_leaf t r) && nkeys t r = 0 then begin
    store t txn t.root_cell (Int64.of_int (child t r 0));
    free_node t txn r
  end;
  removed

(* -- bulk loading ----------------------------------------------------------- *)

(* Build a tree from sorted bindings bottom-up: leaves first, then internal
   levels, all with fresh (durable, unreachable) stores; the single logged
   root swing at the end makes the whole load crash-atomic.  The tree must
   be empty. *)
let leaf_fill = max_keys - 1      (* load factor ~86 % *)
let internal_fanout = order - 1

let bulk_load t txn bindings =
  if nkeys t (root t) <> 0 || not (is_leaf t (root t)) then
    invalid_arg "Btree.bulk_load: tree not empty";
  match bindings with
  | [] -> ()
  | _ ->
      let rec check_sorted = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if a >= b then invalid_arg "Btree.bulk_load: bindings not sorted";
            check_sorted rest
        | _ -> ()
      in
      check_sorted bindings;
      (* leaves, chained left to right *)
      let leaves = ref [] in
      let rec build_leaves = function
        | [] -> ()
        | kvs ->
            let n = new_node t ~leaf:true in
            let rec fill i = function
              | (k, v) :: rest when i < leaf_fill ->
                  store_fresh t (n + o_key i) k;
                  store_fresh t (n + o_val i) v;
                  fill (i + 1) rest
              | rest -> (i, rest)
            in
            let count, rest = fill 0 kvs in
            store_fresh t (n + o_tag) (mk_tag ~leaf:true ~n:count);
            (match !leaves with
            | (_, prev) :: _ -> store_fresh t (prev + o_next) (Int64.of_int n)
            | [] -> ());
            leaves := (key t n 0, n) :: !leaves;
            build_leaves rest
      in
      build_leaves bindings;
      (* internal levels, bottom-up *)
      let rec levels nodes =
        match nodes with
        | [ (_, single) ] -> single
        | _ ->
            let parents = ref [] in
            let rec group = function
              | [] -> ()
              | children ->
                  let n = new_node t ~leaf:false in
                  let rec fill i = function
                    | (first_key, child) :: rest when i <= internal_fanout ->
                        store_fresh t (n + o_child i) (Int64.of_int child);
                        if i > 0 then store_fresh t (n + o_key (i - 1)) first_key;
                        fill (i + 1) rest
                    | rest -> (i, rest)
                  in
                  let taken, rest = fill 0 children in
                  store_fresh t (n + o_tag) (mk_tag ~leaf:false ~n:(taken - 1));
                  (match children with
                  | (fk, _) :: _ -> parents := (fk, n) :: !parents
                  | [] -> ());
                  group rest
            in
            group nodes;
            levels (List.rev !parents)
      in
      (* the previous root leaf is replaced; return it to the allocator *)
      let old_root = root t in
      let new_root = levels (List.rev !leaves) in
      store t txn t.root_cell (Int64.of_int new_root);
      free_node t txn old_root

(* -- iteration & checks ---------------------------------------------------- *)

let iter t f =
  (* leftmost leaf, then the next-leaf chain *)
  let rec leftmost n = if is_leaf t n then n else leftmost (child t n 0) in
  let rec go leaf =
    if leaf <> 0 then begin
      for i = 0 to nkeys t leaf - 1 do
        f (key t leaf i) (value t leaf i)
      done;
      go (next_leaf t leaf)
    end
  in
  go (leftmost (root t))

(* Range scan [lo, hi] inclusive: descend to lo's leaf, then follow the
   leaf chain. *)
let iter_range t ~lo ~hi f =
  let leaf = find_leaf t (root t) lo in
  let rec go leaf =
    if leaf <> 0 then begin
      let cnt = nkeys t leaf in
      let stop = ref false in
      for i = 0 to cnt - 1 do
        let k = key t leaf i in
        if k > hi then stop := true
        else if k >= lo then f k (value t leaf i)
      done;
      if not !stop then go (next_leaf t leaf)
    end
  in
  go leaf

let range t ~lo ~hi =
  let acc = ref [] in
  iter_range t ~lo ~hi (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let size t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let bindings t =
  let acc = ref [] in
  iter t (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc


(* Structural invariant: sorted keys, child separation, uniform leaf depth,
   occupancy bounds (root exempt). *)
let well_formed t =
  let ok = ref true in
  let fail () = ok := false in
  let rec go n lo hi ~is_root =
    let cnt = nkeys t n in
    if cnt > max_keys then fail ();
    if (not is_root) && is_leaf t n && cnt < 1 then fail ();
    if (not is_root) && (not (is_leaf t n)) && cnt < 1 then fail ();
    for i = 0 to cnt - 2 do
      if key t n i >= key t n (i + 1) then fail ()
    done;
    (match lo with Some l when cnt > 0 && key t n 0 < l -> fail () | _ -> ());
    (match hi with
    | Some h when cnt > 0 && key t n (cnt - 1) >= h -> fail ()
    | _ -> ());
    if is_leaf t n then 1
    else begin
      let depth = ref (-1) in
      for i = 0 to cnt do
        let lo' = if i = 0 then lo else Some (key t n (i - 1)) in
        let hi' = if i = cnt then hi else Some (key t n i) in
        let d = go (child t n i) lo' hi' ~is_root:false in
        if !depth = -1 then depth := d else if d <> !depth then fail ()
      done;
      !depth + 1
    end
  in
  ignore (go (root t) None None ~is_root:true);
  (* keys strictly increasing across the leaf chain *)
  let last = ref Int64.min_int in
  iter t (fun k _ ->
      if k <= !last then fail ();
      last := k);
  !ok
