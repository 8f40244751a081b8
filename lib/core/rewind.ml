(* Public facade of the REWIND library.

   Typical use:

   {[
     open Rewind
     let arena = Nvm.Arena.create ~size_bytes:(64 * 1024 * 1024) ()
     let alloc = Nvm.Alloc.create arena
     let tm = Tm.create alloc ~root_slot:2
     let cell = Nvm.Alloc.alloc alloc 8

     let () =
       Tm.atomically tm (fun txn ->
           Tm.write tm txn ~addr:cell ~value:42L)
   ]}

   After a crash, reattach with [Tm.attach] (same config and root slot):
   recovery restores every committed update and rolls back the rest. *)

module Record = Record
module Adll = Adll
module Log = Log
module Avl_index = Avl_index
module Txn_table = Txn_table
module Tm = Tm

type config = Tm.config = {
  policy : Tm.policy;
  layers : Tm.layers;
  variant : Log.variant;
  bucket_cap : int;
  partitions : int;
  incll : bool;
}

(* The paper's named configurations. *)
let config_1l_nfp = Tm.default_config
let config_1l_fp = { Tm.default_config with policy = Tm.Force }
let config_2l_nfp = { Tm.default_config with layers = Tm.Two_layer }

let config_2l_fp =
  { Tm.default_config with layers = Tm.Two_layer; policy = Tm.Force }

(* The paper's named log implementations (one-layer, no-force). *)
let config_simple = { Tm.default_config with variant = Log.Simple }
let config_batch ?(group = 8) () =
  { Tm.default_config with variant = Log.Batch group }

(* In-cache-line logging (Cohen et al., ASPLOS'19): epoch-granular group
   durability, no WAL at all.  One partition, one layer by construction. *)
let config_incll = { Tm.default_config with incll = true }

(* Shard any configuration's log into [n] partitions (Section 4.7).  An
   InCLL configuration is returned unchanged: it keeps no log to shard,
   so config-generic callers need not special-case it. *)
let with_partitions n cfg =
  if cfg.incll then cfg else { cfg with partitions = n }

(* Every named configuration the tooling accepts, in presentation order.
   Single source of truth for the CLI's [--config] parser, its help and
   error text, and the README's configuration table — extend here and
   every consumer picks the new name up. *)
let named_configs : (string * string * (unit -> config)) list =
  [
    ( "1l-nfp",
      "one-layer, no-force, Optimized log (the default)",
      fun () -> config_1l_nfp );
    ("1l-fp", "one-layer, force", fun () -> config_1l_fp);
    ("2l-nfp", "two-layer, no-force", fun () -> config_2l_nfp);
    ("2l-fp", "two-layer, force", fun () -> config_2l_fp);
    ("simple", "Simple log (doubly-linked list)", fun () -> config_simple);
    ("batch", "Batch log, group commit of 8", fun () -> config_batch ());
    ( "incll",
      "in-cache-line logging, epoch-granular durability (no WAL)",
      fun () -> config_incll );
  ]

let config_names = List.map (fun (n, _, _) -> n) named_configs

let config_of_name name =
  match
    List.find_opt (fun (n, _, _) -> String.equal n name) named_configs
  with
  | Some (_, _, mk) -> Some (mk ())
  | None -> None

let all_figure3_configs =
  [
    ("2L-FP", config_2l_fp);
    ("2L-NFP", config_2l_nfp);
    ("1L-FP", config_1l_fp);
    ("1L-NFP", config_1l_nfp);
  ]
