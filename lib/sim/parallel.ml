(* Domain-pool runner for independent experiment tasks.

   Each simulation run owns its engine (clock, queue, RNG, telemetry), so
   distinct runs share no mutable state and can execute on separate domains
   with per-run determinism untouched. The only coordination is the work
   index (an atomic ticket counter) and the results array, written at
   distinct slots and read only after every domain is joined — [Domain.join]
   is the synchronisation point the OCaml memory model requires.

   Output ordering is the caller's concern by construction: results come
   back positionally, in submission order, regardless of which domain
   finished first.

   [Pool] is the repeated-barrier variant for the shard coordinator
   (Temporal): spawning a domain costs tens of microseconds, far too much
   to pay once per quantum window, so a pool keeps its helper domains
   parked on a condition variable between rounds, and a shut-down pool
   leaves them parked for the next one. Every round is bracketed
   by the pool mutex on both sides, which is the happens-before edge the
   memory model needs: shard state written by lane A in window w is
   visible to whichever lane reads it in window w+1. *)

let run_jobs ~jobs tasks =
  if jobs <= 0 then
    invalid_arg
      (Printf.sprintf "Parallel.run_jobs: jobs must be >= 1 (got %d)" jobs);
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if jobs = 1 || n <= 1 then
    (* Sequential degenerate case: identical to the parallel path's
       semantics, with no domains spawned (used by --jobs 1 and by
       single-task lists). *)
    Array.to_list (Array.map (fun task -> task ()) tasks)
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* Trap the exception rather than let it tear down the domain:
             the caller gets every task's outcome and re-raises the first
             failure after all domains are joined. *)
          (results.(i) <-
            (match tasks.(i) () with
            | v -> Some (Ok v)
            | exception e -> Some (Error e)));
          go ()
        end
      in
      go ()
    in
    (* [jobs > n] degrades to [n] lanes: a domain that would find the
       ticket counter already exhausted is never spawned. *)
    let helpers =
      Array.init
        (min jobs n - 1)
        (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join helpers;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
  end

module Pool = struct
  (* The lanes behind a pool: its helper domains and the rendezvous state
     they park on. A crew outlives the pools that use it (see [create]). *)
  type crew = {
    lanes : int;
    mutex : Mutex.t;
    cond : Condition.t;
    mutable tasks : (unit -> unit) array;  (* current round's work *)
    mutable errors : exn option array;  (* per-task, distinct slots *)
    mutable generation : int;  (* bumped once per round *)
    mutable outstanding : int;  (* helpers yet to finish the round *)
  }

  type t = { crew : crew; mutable stopped : bool }

  (* Helper lane: park until the generation moves, run every task whose
     index hashes to this lane, report back. Exceptions land in the
     per-task [errors] slot so the caller can re-raise the earliest-index
     one — a deterministic choice no matter which lane hit it first. *)
  let helper_loop crew lane =
    let seen = ref 0 in
    let rec loop () =
      Mutex.lock crew.mutex;
      while crew.generation = !seen do
        Condition.wait crew.cond crew.mutex
      done;
      seen := crew.generation;
      let tasks = crew.tasks and errors = crew.errors in
      Mutex.unlock crew.mutex;
      Array.iteri
        (fun i task ->
          if i mod crew.lanes = lane then
            match task () with
            | () -> ()
            | exception e -> errors.(i) <- Some e)
        tasks;
      Mutex.lock crew.mutex;
      crew.outstanding <- crew.outstanding - 1;
      if crew.outstanding = 0 then Condition.broadcast crew.cond;
      Mutex.unlock crew.mutex;
      loop ()
    in
    loop ()

  (* Crews of shut-down pools, parked until a [create] with the same lane
     count takes them. Their helpers never exit: OCaml finishes tearing a
     domain down (handing its heap over to the survivors) only after
     [Domain.join] has returned, so a collection started right after a
     join can miss that heap and carry its garbage into the next run —
     which made the peak memory of back-to-back sharded runs depend on
     thread timing. *)
  let idle = ref []
  let idle_mutex = Mutex.create ()

  let take_idle lanes =
    let rec pick = function
      | [] -> (None, [])
      | c :: rest when c.lanes = lanes -> (Some c, rest)
      | c :: rest ->
        let found, rest = pick rest in
        (found, c :: rest)
    in
    Mutex.protect idle_mutex (fun () ->
        let found, rest = pick !idle in
        idle := rest;
        found)

  let hire lanes =
    let crew =
      {
        lanes;
        mutex = Mutex.create ();
        cond = Condition.create ();
        tasks = [||];
        errors = [||];
        generation = 0;
        outstanding = 0;
      }
    in
    for i = 1 to lanes - 1 do
      ignore (Domain.spawn (fun () -> helper_loop crew i))
    done;
    crew

  let create ~lanes =
    if lanes <= 0 then
      invalid_arg
        (Printf.sprintf "Parallel.Pool.create: lanes must be >= 1 (got %d)"
           lanes);
    let crew = match take_idle lanes with Some c -> c | None -> hire lanes in
    { crew; stopped = false }

  let lanes pool = pool.crew.lanes

  let run pool tasks =
    if pool.stopped then invalid_arg "Parallel.Pool.run: pool is shut down";
    let crew = pool.crew in
    if crew.lanes = 1 || Array.length tasks <= 1 then
      (* Sequential lane: no synchronisation at all — byte-identical to a
         pool-less loop, which is what --shards 1 promises. *)
      Array.iter (fun task -> task ()) tasks
    else begin
      let errors = Array.make (Array.length tasks) None in
      Mutex.lock crew.mutex;
      crew.tasks <- tasks;
      crew.errors <- errors;
      crew.generation <- crew.generation + 1;
      crew.outstanding <- crew.lanes - 1;
      Condition.broadcast crew.cond;
      Mutex.unlock crew.mutex;
      (* The calling domain is lane 0. *)
      Array.iteri
        (fun i task ->
          if i mod crew.lanes = 0 then
            match task () with () -> () | exception e -> errors.(i) <- Some e)
        tasks;
      Mutex.lock crew.mutex;
      while crew.outstanding > 0 do
        Condition.wait crew.cond crew.mutex
      done;
      Mutex.unlock crew.mutex;
      Array.iter (function Some e -> raise e | None -> ()) errors
    end

  let shutdown pool =
    if not pool.stopped then begin
      pool.stopped <- true;
      let crew = pool.crew in
      (* A parked crew must not keep the last round's tasks (and all they
         reach) alive. *)
      Mutex.protect crew.mutex (fun () ->
          crew.tasks <- [||];
          crew.errors <- [||]);
      Mutex.protect idle_mutex (fun () -> idle := crew :: !idle)
    end
end
