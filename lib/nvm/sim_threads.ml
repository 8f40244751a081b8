(* Simulated multithreading: conservative discrete-event execution of [n]
   logical threads as cooperative fibers (OCaml effects) on one domain.

   The scheduler always resumes the fiber with the smallest simulated
   clock.  Fibers yield between operations and — crucially — inside
   {!Sim_mutex.lock}, so lock contention is resolved at lock-section
   granularity: a fiber that reaches a busy lock waits (its clock advances
   past the holder's progress) instead of the whole-transaction
   serialisation that coarse stepping would produce.  Deterministic and
   single-domain; real domains on one core cannot provide this, because
   whichever domain the OS runs first would stamp its entire run's lock
   releases ahead of everyone else. *)

type _ Effect.t += Yield : unit Effect.t

(* Scheduler state visible to Sim_mutex. *)
let scheduler_active = ref false
let current_fiber = ref 0
let fiber_clocks = ref [||]

let active () = !scheduler_active
let current () = !current_fiber
let clock_of f = !fiber_clocks.(f)
let yield () = if !scheduler_active then Effect.perform Yield

(* Run [ops_per_thread] operations on each of [threads] fibers.  [f thread
   op_index] performs one operation; its cost is whatever it advances the
   clock by.  Returns the slowest fiber's finish time relative to the
   common start (the clock is never moved backwards: lock release times
   stamped during setup live on the same timeline). *)
let run ~threads ~ops_per_thread f =
  let open Effect.Deep in
  let base = Clock.now () in
  let clocks = Array.make threads base in
  let conts : (unit, unit) continuation option array = Array.make threads None in
  let fresh = Array.make threads true in
  let finished = Array.make threads false in
  let saved_active = !scheduler_active and saved_clocks = !fiber_clocks in
  let saved_fiber = !current_fiber in
  (* The spawning thread: a fiber of an enclosing scheduler, or the main
     thread (-1). *)
  let parent = if saved_active then saved_fiber else -1 in
  scheduler_active := true;
  fiber_clocks := clocks;
  (* Race-detector vocabulary: the spawning thread happens-before every
     fiber's first operation, and each fiber's last operation
     happens-before the join (scheduler exit).  Fiber_switch events
     attribute the in-between memory events to fibers. *)
  let sync = Trace.sync_traced () in
  if sync then
    for i = 0 to threads - 1 do
      Trace.emit_sync (Trace.Fiber_spawn { id = i })
    done;
  let handler =
    {
      retc = (fun () -> finished.(!current_fiber) <- true);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) continuation) ->
                  conts.(!current_fiber) <- Some k)
          | _ -> None);
    }
  in
  let body t () =
    for i = 0 to ops_per_thread - 1 do
      f t i;
      yield ()
    done
  in
  let pick () =
    let t = ref (-1) in
    for i = 0 to threads - 1 do
      if (not finished.(i)) && (!t < 0 || clocks.(i) < clocks.(!t)) then t := i
    done;
    !t
  in
  let rec loop () =
    let t = pick () in
    if t >= 0 then begin
      current_fiber := t;
      if sync then Trace.emit_sync (Trace.Fiber_switch { id = t });
      Clock.set clocks.(t);
      (if fresh.(t) then begin
         fresh.(t) <- false;
         match_with (body t) () handler
       end
       else
         match conts.(t) with
         | Some k ->
             conts.(t) <- None;
             continue k ()
         | None ->
             (* ready but no continuation left: treat as finished *)
             finished.(t) <- true);
      clocks.(t) <- Clock.now ();
      loop ()
    end
  in
  let restore () =
    scheduler_active := saved_active;
    fiber_clocks := saved_clocks;
    current_fiber := saved_fiber;
    if sync then Trace.emit_sync (Trace.Fiber_switch { id = parent })
  in
  (match loop () with
  | () ->
      (* All fibers ran to completion: control returns to the spawning
         thread, which joins every fiber. *)
      restore ();
      if sync then
        for i = 0 to threads - 1 do
          Trace.emit_sync (Trace.Fiber_join { id = i })
        done
  | exception e ->
      restore ();
      raise e);
  Array.fold_left max 0 clocks - base

(* Fork-join over [run]: one fiber per task, so [f i]'s simulated cost is
   charged to fiber [i] alone.  The results come back in index order and
   the caller's clock is left at the join: start + the slowest task.  One
   task runs inline, with no scheduler. *)
let fork_join n f =
  if n <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let start = Clock.now () in
    let makespan =
      run ~threads:n ~ops_per_thread:1 (fun i _ -> results.(i) <- Some (f i))
    in
    Clock.set (start + makespan);
    Array.map Option.get results
  end
