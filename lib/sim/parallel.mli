(** Multicore runner for independent simulation tasks.

    Every experiment run owns its engine and therefore its entire mutable
    world; runs are embarrassingly parallel. [run_jobs] fans a list of
    thunks out over OCaml 5 domains while keeping the results positional,
    so callers print in submission order and a parallel run's output is
    byte-identical to a sequential one.

    {!Pool} is the repeated-rendezvous variant used by the shard
    coordinator ({!Temporal}): helper domains are spawned once and parked
    between rounds, and between pools, so a barrier per quantum window
    costs a condition signal, not a domain spawn. *)

val run_jobs : jobs:int -> (unit -> 'a) list -> 'a list
(** [run_jobs ~jobs tasks] executes every task and returns their results
    in task-list order. At most [jobs] domains run concurrently (the
    calling domain counts as one); [jobs = 1] or a single task runs
    sequentially with no domain spawned, and [jobs] greater than the task
    count degrades to one domain per task (no idle domain is spawned).
    Tasks must not share mutable state. If a task raises, every task still
    completes, then the exception of the earliest-submitted failing task
    is re-raised.
    @raise Invalid_argument if [jobs <= 0]. *)

module Pool : sig
  type t

  val create : lanes:int -> t
  (** [create ~lanes] gets [lanes - 1] parked helper domains (the caller
      is lane 0): those a {!shutdown} of a pool of as many lanes left
      parked if there are any, fresh ones otherwise. [lanes = 1] spawns
      nothing: {!run} then
      executes tasks inline, sequentially, with no synchronisation —
      byte-identical to not having a pool.
      @raise Invalid_argument if [lanes <= 0]. *)

  val lanes : t -> int

  val run : t -> (unit -> unit) array -> unit
  (** One rendezvous round: task [i] runs on lane [i mod lanes]; returns
      only after every task has finished (a full barrier). The mutex
      bracket around the round is the happens-before edge that makes
      state written by one round visible to the next, whichever lane
      reads it. Tasks in the same round must not share mutable state. If
      tasks raise, the earliest-index exception is re-raised after the
      barrier.
      @raise Invalid_argument if the pool was shut down. *)

  val shutdown : t -> unit
  (** Park the helper domains for the next {!create} of as many lanes;
      they are never joined, and drop every reference to the last
      round's tasks. Idempotent; the pool is unusable after. *)
end
