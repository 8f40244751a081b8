(** WAL restart (Section 4.5): the structural reattach of a manager's
    logs and indexes, then analysis, redo, undo and log clearing. *)

val attach :
  Rewind_nvm.Probe.t ->
  Tm_state.config ->
  Rewind_nvm.Alloc.t ->
  root_slot:int ->
  ids:Tm_state.ids ->
  Tm_state.t * Tm_state.recovery_report
(** Reattach the WAL manager [create] laid out at [root_slot] (its stored
    fingerprint already checked) and recover it, charging every phase to
    the profile and reseeding [ids] past every transaction it saw.
    Returns the manager and what recovery found and did. *)

val merged_log_records : Tm_state.t -> int list
(** The live records of every partition, in global LSN order: the
    stream analysis decodes. *)
