(** Restart (Section 4.5): the structural reattach of a manager's logs
    and indexes, then analysis, redo, undo and log clearing; under InCLL,
    the cell directory and the epoch scan. *)

val attach :
  Rewind_nvm.Probe.t ->
  Tm_state.config ->
  Rewind_nvm.Alloc.t ->
  root_slot:int ->
  Tm_state.t
(** Reattach the manager [create] laid out at [root_slot] (its stored
    fingerprint already checked) and recover it, charging every phase to
    the profile, which becomes the manager's [last_recovery_profile]. *)

val merged_log_records : Tm_state.t -> int list
(** The live records of every partition, in global LSN order: the
    stream analysis decodes. *)
