(* Outside-in layer timing.

   The benchmark wraps each call it makes into the system's public
   functions — [Mix.execute], [Tm.commit], [Btree.lookup], [Arena.crash],
   ... — in [span] (and each request in [op]).  A tracer that is off turns
   every wrapper into a plain call, so an untraced round measures the
   system alone.  A tracer that is on charges each call's simulated time
   ({!Clock} delta), wall time and NVM counter delta ({!Arena.stats}) to
   the call's name, and keeps Chrome trace-event spans for the first
   [span_ops] requests.

   Simulated threads are fibers on one domain, so a call that blocks on a
   latch lets other fibers run before it returns.  The tracer listens to
   the scheduler's fiber switches ({!Trace.set_sync_tracer}) and gives
   each fiber its own running totals of wall time and NVM work: a call is
   charged only what its own fiber did between its entry and return. *)

open Rewind_nvm

let span_ops = 2_000

type acc = {
  mutable calls : int;
  mutable wall : float;  (** seconds *)
  mutable sim : int;  (** simulated ns *)
  stats : Stats.t;
  mutable samples : int array;  (** per-call simulated ns, when kept *)
  mutable n_samples : int;
}

type span = {
  name : string;
  parent : string;
  op : int;  (** request id; -1 outside any request *)
  tid : int;
  ts : float;  (** wall seconds since the tracer started *)
  dur : float;
  sim_ns : int;
}

type fiber = {
  mutable run_wall : float;  (** wall seconds this fiber has run *)
  run_stats : Stats.t;  (** NVM work this fiber has done *)
  mutable stack : string list;
  mutable cur_op : int;
}

type t = {
  on : bool;
  mutable arena : Stats.t;
  accs : (string, acc) Hashtbl.t;
  mutable order : string list;  (** first-use order, newest first *)
  mutable fibers : fiber array;  (** index: fiber id + 1; 0 = main thread *)
  mutable cur : int;
  mutable since_wall : float;
  mutable since : Stats.t;
  mutable ops : int;
  mutable top_wall : float;  (** wall seconds inside outermost spans *)
  mutable spans : span list;
  t0 : float;
}

let new_fiber () =
  { run_wall = 0.; run_stats = Stats.create (); stack = []; cur_op = -1 }

let make on =
  let now = Unix.gettimeofday () in
  {
    on;
    arena = Stats.create ();
    accs = Hashtbl.create 32;
    order = [];
    fibers = [| new_fiber () |];
    cur = 0;
    since_wall = now;
    since = Stats.create ();
    ops = 0;
    top_wall = 0.;
    spans = [];
    t0 = now;
  }

let off = make false

(* Charge the wall time and NVM work since the last charge to the running
   fiber. *)
let charge t =
  let now = Unix.gettimeofday () in
  let f = t.fibers.(t.cur) in
  f.run_wall <- f.run_wall +. (now -. t.since_wall);
  Stats.add f.run_stats (Stats.diff t.arena t.since);
  t.since_wall <- now;
  t.since <- Stats.snapshot t.arena

let switch t id =
  charge t;
  let i = id + 1 in
  let n = Array.length t.fibers in
  if i >= n then
    t.fibers <-
      Array.init (i + 1) (fun j ->
          if j < n then t.fibers.(j) else new_fiber ());
  t.cur <- i

let create ~on =
  if not on then off
  else begin
    let t = make true in
    Trace.set_sync_tracer
      (Some (function Trace.Fiber_switch { id } -> switch t id | _ -> ()));
    t
  end

let close t =
  if t.on then begin
    charge t;
    Trace.set_sync_tracer None
  end

(* Count NVM work against [arena] from now on. *)
let bind t arena =
  if t.on then begin
    charge t;
    t.arena <- Arena.stats arena;
    t.since <- Stats.snapshot t.arena
  end

let acc t name =
  match Hashtbl.find_opt t.accs name with
  | Some a -> a
  | None ->
      let a =
        {
          calls = 0;
          wall = 0.;
          sim = 0;
          stats = Stats.create ();
          samples = [||];
          n_samples = 0;
        }
      in
      Hashtbl.add t.accs name a;
      t.order <- name :: t.order;
      a

let push_sample a v =
  if a.n_samples = Array.length a.samples then begin
    let s = Array.make (max 1024 (2 * a.n_samples)) 0 in
    Array.blit a.samples 0 s 0 a.n_samples;
    a.samples <- s
  end;
  a.samples.(a.n_samples) <- v;
  a.n_samples <- a.n_samples + 1

let measure t ~keep names f =
  let fib = t.fibers.(t.cur) and me = t.cur in
  let name = List.hd names in
  let parent = match fib.stack with p :: _ -> p | [] -> "" in
  fib.stack <- name :: fib.stack;
  charge t;
  let w0 = fib.run_wall and s0 = Stats.snapshot fib.run_stats in
  let real0 = t.since_wall in
  let c = Clock.start () in
  let finish () =
    let sim = Clock.elapsed c in
    (* the scheduler has resumed this fiber: it is the running one *)
    charge t;
    let wall = fib.run_wall -. w0 and stats = Stats.diff fib.run_stats s0 in
    fib.stack <- List.tl fib.stack;
    if fib.stack = [] then t.top_wall <- t.top_wall +. wall;
    List.iter
      (fun n ->
        let a = acc t n in
        a.calls <- a.calls + 1;
        a.wall <- a.wall +. wall;
        a.sim <- a.sim + sim;
        Stats.add a.stats stats;
        if keep then push_sample a sim)
      names;
    let op = fib.cur_op in
    if (op >= 0 && op < span_ops) || (op < 0 && t.ops < span_ops) then
      t.spans <-
        {
          name;
          parent;
          op;
          tid = me;
          ts = real0 -. t.t0;
          dur = t.since_wall -. real0;
          sim_ns = sim;
        }
        :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* One call into a layer. [keep] also keeps every call's simulated time,
   for percentiles. *)
let span ?(keep = false) t name f =
  if not t.on then f () else measure t ~keep [ name ] f

(* One request: its spans, and those of the calls it makes, share a fresh
   request id; its time is charged both to [kind] and to "app.op". *)
let op t kind f =
  if not t.on then f ()
  else begin
    let fib = t.fibers.(t.cur) in
    fib.cur_op <- t.ops;
    t.ops <- t.ops + 1;
    Fun.protect
      ~finally:(fun () -> fib.cur_op <- -1)
      (fun () -> measure t ~keep:false [ kind; "app.op" ] f)
  end

let names t = List.rev t.order
let find t name = Hashtbl.find_opt t.accs name

let samples a = Array.sub a.samples 0 a.n_samples

(* Chrome trace-event "complete" events, oldest first. *)
let chrome t ~pid =
  List.rev_map
    (fun s ->
      Json.Obj
        [
          ("name", Json.Str s.name);
          ("cat", Json.Str "layer");
          ("ph", Json.Str "X");
          ("ts", Json.Num (s.ts *. 1e6));
          ("dur", Json.Num (s.dur *. 1e6));
          ("pid", Json.Num (float_of_int pid));
          ("tid", Json.Num (float_of_int s.tid));
          ( "args",
            Json.Obj
              [
                ("op", Json.Num (float_of_int s.op));
                ("parent", Json.Str s.parent);
                ("sim_ns", Json.Num (float_of_int s.sim_ns));
              ] );
        ])
    t.spans
