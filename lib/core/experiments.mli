(** Experiment harness: every figure and table of EXPERIMENTS.md.

    The paper (a HotOS position paper) publishes no quantitative results;
    each experiment here operationalises one of its claims, comparing the
    CPU-less design against the centralized-CPU baseline where a comparison
    is meaningful. All experiments are deterministic given the seed. *)

type table = {
  id : string;
  title : string;
  claim : string;  (** the paper claim the experiment tests *)
  columns : string list;
  rows : string list list;
  notes : string list;
}

val print_table : Format.formatter -> table -> unit

val f1 : unit -> table
(** Figure 1: the architecture — topology of a booted CPU-less system. *)

val f2 : unit -> table
(** Figure 2: the seven-step KVS initialization sequence, with virtual
    timestamps. *)

val t1 : ?enable_tokens:bool -> ?seed:int64 -> unit -> table
(** Control-plane operation latency, CPU-less vs centralized.
    [enable_tokens:false] is the no-capability ablation. *)

val t2 : unit -> table
(** Performance isolation: KVS tail latency under a control-plane-noisy
    neighbour, both designs. *)

val t3 : unit -> table
(** Control-plane scalability: aggregate throughput vs concurrent
    applications. *)

val t4 : unit -> table
(** Failure handling: detection and recovery after a storage-device
    failure, both designs. *)

val t5 : unit -> table
(** Address translation: TLB geometry sweep under a Zipfian working set. *)

val t6 : unit -> table
(** VIRTIO virtqueue throughput vs queue depth, with doorbells as
    MSI-style memory writes and, as the §2.3 ablation, conflated onto the
    control bus. *)

val t7 : unit -> table
(** End-to-end KVS under YCSB-like mixes, both designs. *)

val t8 : unit -> table
(** Fault containment: IOMMU faults are delivered to the faulting device
    only; bystander address spaces are unaffected. *)

val t9 : unit -> table
(** Initialization scaling: boot and discovery-storm time vs device count. *)

val t10 : unit -> table
(** FTL characterization: write amplification vs over-provisioning. *)

val t11 : unit -> table
(** Offload crossover: accelerator vs on-device embedded core. *)

val t12 : unit -> table
(** Recovery economics: WAL replay before/after compaction. *)

val t13 : ?seed:int64 -> unit -> table
(** Chaos soak: both designs run the same seeded client workload under an
    identical fault plan (message loss/duplication/corruption, frame
    loss/reordering, NAND read faults, a mid-workload storage-device
    crash→revive window), reporting ops completed, retries, failovers and
    convergence. *)

val t14 : ?seed:int64 -> unit -> table
(** Overload probe: an open-loop warm→pulse→recover load replayed on both
    designs with the overload guards off and on. Guards off, the pulse's
    backlog plus naive client retransmits keep post-pulse goodput
    collapsed (metastable failure); guards on (bounded queues, admission
    control, E_busy backpressure, circuit breaker, EAGAIN run queues) the
    pulse is shed and recovery goodput returns to the warm baseline. *)

(** {2 Soaks: segments, checkpoint, kill, resume (T15, T16, T17)} *)

type soak
(** A soak run as segments: its topology, kv load, segment bodies,
    post-segment checks and last checkpointable boundary. *)

val soak_by_id : string -> soak option
(** ["t15"]: a fixed ring of four device clusters (full Systems on their
    own engines), coupled with {!Lastcpu_sim.Temporal} +
    {!Lastcpu_bus.Shardlink}, run as one segment with no checkpoint. Each
    shard runs a local KVS closed loop while churning alloc/free pairs
    against the next shard's memory controller across the quantum
    boundary.

    ["t16"]: the t15 ring in five segments, checkpointable at every
    boundary; shard 0 carries an SSD whose crash window (and the NIC's
    tripped circuit breaker) straddles two checkpoints.

    ["t17"]: six segments on one engine: warm-up; the rogue NIC's barrage
    (DMA overreach, forged MAC, a same-corr privileged replay storm, a
    spoofed source, malformed raw frames) ending in quarantine and
    revocation; a KV provider crash and failover; a
    no-silent-resurrection revive (bare heartbeat ignored, explicit
    re-announce honored); parole re-admission with a stale
    pre-revocation token replay; and recovery. Checkpoints stop after
    boundary 2 because [Kv_app.save_state] refuses once the app has
    failed over. Each segment's containment postcondition is asserted. *)

val kill_boundary : soak -> int
(** Boundary where the kill leg of the soak's table dies mid-checkpoint
    (t16: 3, t17: 2; t15: 0, it has none). *)

type soak_result = {
  soak_name : string;  (** the soak's experiment id *)
  soak_digest : int64;
      (** per-shard metrics digests combined in shard order — THE value the
          crash-survivability contract pins: equal between an
          uninterrupted run and a killed-and-resumed run *)
  soak_events : int;  (** events executed, summed over shards *)
  soak_elapsed : int64;  (** max shard virtual clock at drain *)
  soak_segments_run : int;  (** segments executed by THIS process *)
  soak_restored : Lastcpu_sim.Snapshot.generation option;
      (** [Some g] when this run resumed from a snapshot; [g] says whether
          the primary file or the previous-generation fallback restored *)
  soak_extras : (string * string) list;
      (** soak-specific observables at drain, in {!final_line} order
          (t15: boundary messages, windows; t17: quarantines, stale,
          failovers, rogue trust) *)
  soak_systems : System.t array;
  soak_target : Checkpoint.target;
      (** what a checkpoint covers: [Sharded] for the ring soaks *)
}

val run_soak :
  ?lanes:int ->
  ?tie:Lastcpu_sim.Engine.tie_break ->
  ?sanitize:bool ->
  ?snapshot_path:string ->
  ?checkpoint_every:int ->
  ?kill_at:int ->
  seed:int64 ->
  soak ->
  soak_result
(** Run a soak segment by segment: install the segment's kv clients and
    body, drain to quiescence, check that every kv client converged and
    the soak's postconditions hold. With [snapshot_path] a whole-machine
    snapshot ({!Checkpoint.save}) is written after every
    [checkpoint_every]-th boundary up to the soak's last checkpointable
    one. When [snapshot_path] or its previous generation exists the run
    resumes from it: the identical topology is built, {!Checkpoint.restore}
    overlays the snapshot (falling back to the previous generation when
    the primary is torn) and the loop continues from the restored segment
    counter. [kill_at:b] abandons the run right after boundary [b]'s
    checkpoint, written deliberately truncated — the in-process stand-in
    for a kill mid-checkpoint. [lanes] is the execution-lane count of a
    sharded soak only; results are lane-independent.
    @raise Invalid_argument when a snapshot exists but cannot be restored
    (unreadable, wrong tag or topology), when [snapshot_path] is given
    for a soak that checkpoints no boundary (t15), when [kill_at] is
    given without a snapshot path, names a boundary where no checkpoint
    is written, or one the restored run has already passed — all before
    any segment runs — and when a segment fails to converge or a
    postcondition does not hold. *)

val final_line : soak_result -> string
(** ["<id> final: digest=… events=… elapsed_ns=…"] followed by the soak's
    extras as [key=value]: everything observable, nothing about
    provenance — an uninterrupted run and a killed-and-resumed one print
    the same line. *)

val t15 : ?lanes:int -> ?seed:int64 -> unit -> table
(** The t15 soak as a one-row table: events, virtual clock, boundary
    messages, windows and digest. Every cell is a pure function of the
    seed — CI diffs [--shards 1] vs [--shards 4] output verbatim. *)

val t16 : ?lanes:int -> ?seed:int64 -> unit -> table
(** The full kill-resume cycle in one table: an uninterrupted run, a run
    killed mid-checkpoint at boundary 3 (leaving a torn primary), and a
    resumed run that must fall back to the previous generation and still
    finish bit-identical. Every cell is a pure function of the seed — CI
    diffs [--shards 1] vs [--shards 4] output verbatim. *)

val t17 : ?seed:int64 -> unit -> table
(** Uninterrupted, killed-at-torn-checkpoint (boundary 2), and resumed
    runs of the t17 soak in one table; the verdict row pins bit-identical
    digests, events and virtual clocks. *)

(** {2 Registry}

    One list declares every experiment: its id, its table (given the
    execution-lane count and the seed) and, for the digest-pinned runs
    (t1, t13, t14, t15), how to run its CPU-less half alone. Everything
    below is derived from it. *)

val ids : string list
(** Every experiment id, in listing order: f1, f2, t1, t1-notokens,
    t2 … t17. *)

val by_id : string -> (lanes:int -> seed:int64 -> table) option
(** The experiment's table. [lanes] is the execution-lane count of the
    sharded soaks (t15, t16; their output does not depend on it). [seed]
    reaches t1, t13-t17; the other tables are fixed workloads. *)

val metrics_experiments : string list
(** The pinned runs on one engine, whose registry {!soaked_system}
    returns (["t1"; "t13"; "t14"]). *)

val sanitize_experiments : string list
(** The digest-pinned runs, which the sanitizer drives
    (["t1"; "t13"; "t14"; "t15"]). *)

val soaked_system :
  ?sanitize:bool -> ?trace:bool -> exp:string -> seed:int64 -> unit -> System.t
(** Build and run [exp] (one of {!metrics_experiments}) to completion with
    the given seed, returning the soaked system (for t13 and t14 the
    CPU-less half; t14 with its overload guards armed). Same seed ⇒
    byte-identical telemetry registry. [sanitize] journals multi-event
    ticks and [trace] retains the run trace (both default [false]); neither
    changes the registry. *)

val metrics_digest : exp:string -> seed:int64 -> int64
(** Build and run [exp] (one of {!sanitize_experiments}) with the given
    seed and return the {!Lastcpu_sim.Metrics.digest} of its telemetry
    registry (a soak: the shard-ordered combination of per-shard digests,
    [soak_digest]). This is the golden value the determinism-equivalence
    test pins: hot-path optimisations must keep it bit-identical. *)

(** {2 Same-tick ordering sanitizer} *)

type sanitize_report = {
  san_exp : string;
  san_perturbation : string;  (** ["lifo"] or ["salted"] *)
  san_multi_event_ticks : int;  (** journalled ticks in the reference run *)
  san_divergence : Lastcpu_sim.Sanitizer.divergence option;
      (** [None] = no ordering race found under this perturbation *)
}

val sanitize_journal :
  exp:string ->
  seed:int64 ->
  tie:Lastcpu_sim.Heap.tie_break ->
  Lastcpu_sim.Sanitizer.tick list
(** The full sanitizer journal of one run of [exp] under the given
    tie-break (the raw material {!sanitize} compares; exposed so the
    golden determinism test can pin journals, labels included). A soak's
    journal is its per-shard journals in shard order. *)

val sanitize : ?seed:int64 -> exp:string -> unit -> sanitize_report list
(** Run experiment [exp] once under the contractual FIFO same-tick order
    and once per perturbed tie-break (LIFO and seed-salted), journalling an
    observable-state digest after every multi-event tick. A report's
    [san_divergence] names the first tick where the perturbed run's
    observable state differs — a same-tick ordering race, with the
    colliding events' labels. Raises [Invalid_argument] for an [exp] not
    in {!sanitize_experiments}.

    A soak whose target is [Checkpoint.Sharded] (t15) samples its
    trajectory at collisions of independent streams, which legitimate
    tie-break drift dissolves, so the FIFO-vs-perturbed diff is replaced
    by the strict sharded contracts: the final digest must be
    tie-invariant, and under each perturbed tie the shard-ordered journal
    must be bit-identical between one and four execution lanes. *)
