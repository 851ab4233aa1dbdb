(* Command-line interface for the lastcpu emulator.

   Subcommands:
     lastcpu topology             print the booted system (Figure 1)
     lastcpu figure2 [--trace]    run the KVS bring-up and show the sequence
     lastcpu experiment <id>      run experiment tables (f1..t17)
     lastcpu kv <n>               run n KV smoke operations end to end
     lastcpu metrics [--json]     run a booted KVS workload, dump telemetry
                 [--exp ID]       ... or a pinned experiment's run (T1, T13
                                  chaos, guarded T14 overload)
     lastcpu fuzz                 run the protocol fuzzer, print its summary
     lastcpu sanitize             replay experiments under perturbed ties *)

open Cmdliner

module System = Lastcpu_core.System
module Scenario = Lastcpu_core.Scenario_kvs
module Experiments = Lastcpu_core.Experiments
module Protofuzz = Lastcpu_core.Protofuzz
module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Trace = Lastcpu_sim.Trace
module Parallel = Lastcpu_sim.Parallel
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto
module Snapshot = Lastcpu_sim.Snapshot

let seed_arg =
  let doc = "Deterministic seed for the virtual machine room." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let spec_of_seed seed = { System.default_spec with System.seed }

(* A count of at least one, rejected while the command line is parsed. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* An experiment id drawn from one of the registry's id lists. *)
let exp_id ids = Arg.enum (List.map (fun id -> (id, id)) ids)

(* --- topology ------------------------------------------------------------- *)

let topology seed =
  let spec =
    { (spec_of_seed seed) with System.with_auth = true; with_console = true }
  in
  let system = System.build ~spec () in
  match System.boot system with
  | Error e ->
    Printf.eprintf "boot failed: %s\n" e;
    1
  | Ok () ->
    print_string (System.topology system);
    0

let topology_cmd =
  let doc = "Boot a CPU-less system and print its topology (paper Figure 1)." in
  Cmd.v (Cmd.info "topology" ~doc) Term.(const topology $ seed_arg)

(* --- figure2 --------------------------------------------------------------- *)

let figure2 seed show_trace json_path =
  match Scenario.run ~spec:{ (spec_of_seed seed) with trace = true } () with
  | Error e ->
    Printf.eprintf "scenario failed: %s\n" e;
    1
  | Ok outcome ->
    print_endline "KV-store initialization sequence (paper Figure 2):";
    Format.printf "%a" Scenario.pp_steps (Scenario.figure2_steps outcome);
    let trace = Engine.trace (System.engine outcome.Scenario.system) in
    if show_trace then begin
      print_endline "\nfull bus trace:";
      Format.printf "%a" Trace.pp trace
    end;
    (match json_path with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Trace.to_json_lines trace);
      close_out oc;
      Printf.printf "trace written to %s (%d events, jsonl)\n" path
        (Trace.length trace));
    0

let figure2_cmd =
  let doc = "Run the paper's §3 KVS bring-up and print the Figure-2 steps." in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Also dump the full bus trace.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the full trace as JSON lines.")
  in
  Cmd.v (Cmd.info "figure2" ~doc)
    Term.(const figure2 $ seed_arg $ trace_arg $ json_arg)

(* --- experiment ------------------------------------------------------------- *)

let generation_name = function
  | Snapshot.Primary -> "primary"
  | Snapshot.Previous -> "previous"

(* Each experiment owns its engine, so distinct ids are independent tasks:
   render every table to a string (in the worker domain), then print the
   strings in submission order. A parallel run's bytes are identical to a
   sequential run's. *)
let experiment list jobs shards seed snapshot_path checkpoint_every kill_at ids
    =
  if list then begin
    List.iter print_endline Experiments.ids;
    0
  end
  else
    match (snapshot_path, kill_at) with
    | None, Some _ ->
      prerr_endline "--chaos-kill-at needs --snapshot-path";
      2
    | Some path, _ -> (
      (* Checkpointed soak mode: run the one soak leg this process is asked
         for, writing whole-machine snapshots at segment boundaries and
         resuming from [path] when a snapshot is already there.
         [--chaos-kill-at B] emulates a kill mid-checkpoint: the
         boundary-B snapshot is written deliberately torn and the process
         dies with the canonical SIGKILL exit status. *)
      match List.map Experiments.soak_by_id ids with
      | [ Some soak ] -> (
        match
          Experiments.run_soak ~lanes:shards ~seed ~snapshot_path:path
            ~checkpoint_every ?kill_at soak
        with
        | exception Invalid_argument e ->
          Printf.eprintf "%s\n" e;
          2
        | r -> (
          (match r.Experiments.soak_restored with
          | Some g ->
            Printf.eprintf
              "resumed from %s generation; ran %d remaining segment(s)\n"
              (generation_name g) r.Experiments.soak_segments_run
          | None -> ());
          match kill_at with
          | Some _ ->
            Printf.eprintf
              "killed mid-checkpoint after %d segment(s); torn snapshot at %s\n"
              r.Experiments.soak_segments_run path;
            exit 137
          | None ->
            print_endline (Experiments.final_line r);
            0))
      | _ ->
        Printf.eprintf "--snapshot-path drives exactly one soak (got: %s)\n"
          (String.concat " " ids);
        1)
    | None, None ->
      let render id () =
        match Experiments.by_id id with
        | None -> Error id
        | Some table ->
          Ok
            (Format.asprintf "%a" Experiments.print_table
               (table ~lanes:shards ~seed))
      in
      let rc = ref 0 in
      List.iter
        (function
          | Ok table -> print_string table
          | Error id ->
            Printf.eprintf "unknown experiment %S (see 'experiment --list')\n"
              id;
            rc := 1)
        (Parallel.run_jobs ~jobs (List.map render ids));
      !rc

let jobs_arg =
  let doc =
    "Run experiments on $(docv) domains in parallel. Each run is an \
     independent deterministic simulation; output order and bytes match a \
     sequential run."
  in
  Arg.(value & opt pos_int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Execute the shard windows of t15 and t16 on $(docv) domains \
     (execution lanes). The cluster topology is fixed, so output bytes are \
     identical for any value — that invariance is the temporal-decoupling \
     determinism contract CI checks. Other experiments ignore this."
  in
  Arg.(value & opt pos_int 1 & info [ "shards" ] ~docv:"N" ~doc)

let snapshot_path_arg =
  let doc =
    "Run the t16 (or t17) soak in checkpointed mode, writing a whole-machine \
     snapshot to $(docv) at every segment boundary (the displaced \
     previous file is kept as a fallback generation). If $(docv) or its \
     previous generation already exists the run resumes from it: the \
     identical topology is rebuilt, the snapshot overlaid (falling back a \
     generation when the primary is torn) and the remaining segments run; \
     the final line printed is byte-identical to an uninterrupted run's. \
     A snapshot that cannot be restored fails the run."
  in
  Arg.(
    value & opt (some string) None & info [ "snapshot-path" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc = "Checkpoint every $(docv)-th segment boundary (default 1)." in
  Arg.(value & opt pos_int 1 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let chaos_kill_arg =
  let doc =
    "Chaos hook: die 'mid-checkpoint' at segment boundary $(docv) — the \
     snapshot written there is deliberately torn (truncated, as if the \
     process was killed between write and rename) and the process exits \
     with status 137. Re-run with the same $(b,--snapshot-path) to resume. \
     $(docv) must be a boundary where a checkpoint is written."
  in
  Arg.(value & opt (some int) None & info [ "chaos-kill-at" ] ~docv:"B" ~doc)

let experiment_cmd =
  let doc =
    "Run experiment tables (see EXPERIMENTS.md for the index). $(b,--seed) \
     reaches t1 and t13-t17; the other tables are fixed workloads."
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List known experiment ids.")
  in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      const experiment $ list_arg $ jobs_arg $ shards_arg $ seed_arg
      $ snapshot_path_arg $ checkpoint_every_arg $ chaos_kill_arg $ ids)

(* --- kv ----------------------------------------------------------------------- *)

let kv seed n =
  match Scenario.run ~spec:(spec_of_seed seed) ~smoke_ops:0 () with
  | Error e ->
    Printf.eprintf "scenario failed: %s\n" e;
    1
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app = outcome.Scenario.app in
    let failures = ref 0 in
    for i = 1 to n do
      let key = Printf.sprintf "cli-%04d" i in
      Kv_app.local_op app (Kv_proto.Put (key, "value-" ^ key)) (fun r ->
          if r <> Kv_proto.Done then incr failures);
      System.run_until_idle system;
      Kv_app.local_op app (Kv_proto.Get key) (fun r ->
          match r with
          | Kv_proto.Value (Some _) -> ()
          | _ -> incr failures);
      System.run_until_idle system
    done;
    Printf.printf "%d put+get pairs, %d failures, %Ld virtual ns\n" n !failures
      (Engine.now (System.engine system));
    if !failures = 0 then 0 else 1

let kv_cmd =
  let doc = "Run N put+get pairs through the full CPU-less stack." in
  let n = Arg.(value & pos 0 int 10 & info [] ~docv:"N" ~doc:"Operation pairs.") in
  Cmd.v (Cmd.info "kv" ~doc) Term.(const kv $ seed_arg $ n)

(* --- metrics -------------------------------------------------------------------- *)

(* Boot the KVS scenario and drive some traffic so the registry has
   something to show. *)
let drive_kvs seed n =
  match Scenario.run ~spec:(spec_of_seed seed) ~smoke_ops:0 () with
  | Error e -> Error e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app = outcome.Scenario.app in
    for i = 1 to n do
      let key = Printf.sprintf "metrics-%04d" i in
      Kv_app.local_op app (Kv_proto.Put (key, "value-" ^ key)) (fun _ -> ());
      System.run_until_idle system;
      Kv_app.local_op app (Kv_proto.Get key) (fun _ -> ());
      System.run_until_idle system
    done;
    Ok system

let metrics seed n json exp =
  let system =
    match exp with
    | Some exp -> Ok (Experiments.soaked_system ~exp ~seed ())
    | None -> drive_kvs seed n
  in
  match system with
  | Error e ->
    Printf.eprintf "scenario failed: %s\n" e;
    1
  | Ok system ->
    let m = Engine.metrics (System.engine system) in
    print_string (if json then Metrics.to_json m else Metrics.to_prometheus m);
    0

let metrics_cmd =
  let doc =
    "Boot the KVS scenario, run a small workload and print the telemetry \
     registry (Prometheus text exposition by default). With $(b,--exp) \
     print the registry of an experiment's CPU-less run instead: t1 the \
     control-plane latency loop, t13 the seeded chaos soak (message loss, \
     corruption, NAND faults, a storage-device crash), t14 the open-loop \
     warm\xe2\x86\x92pulse\xe2\x86\x92recover overload probe with its guards \
     armed. Identical seeds produce byte-identical output; CI diffs two \
     runs."
  in
  let n =
    Arg.(
      value & opt int 25
      & info [ "ops" ] ~docv:"N"
          ~doc:"KV put+get pairs to drive (without $(b,--exp)).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON snapshot instead.")
  in
  let exp_arg =
    Arg.(
      value
      & opt (some (exp_id Experiments.metrics_experiments)) None
      & info [ "exp" ] ~docv:"ID"
          ~doc:
            ("Experiment whose registry to print: "
            ^ doc_alts Experiments.metrics_experiments
            ^ "."))
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(const metrics $ seed_arg $ n $ json_arg $ exp_arg)

(* --- fuzz ------------------------------------------------------------------------- *)

let fuzz seed iters =
  let r = Protofuzz.run ~seed ~iters () in
  print_endline (Protofuzz.summary r);
  List.iter
    (fun d -> Printf.eprintf "violation: %s\n" d)
    r.Protofuzz.violation_details;
  if r.Protofuzz.engine_crashes = 0 && r.Protofuzz.containment_violations = 0
  then 0
  else 1

let fuzz_cmd =
  let doc =
    "Run the deterministic structure-aware protocol fuzzer: a rogue smart \
     NIC injects seed-salted mutants of real control-plane frames as raw \
     bytes on the bus while the campaign asserts the containment \
     invariants — no engine crash, no path from the rogue's IOMMU into \
     another tenant's frames, victim memory intact. Prints one summary \
     line (byte-identical for equal seeds; CI diffs it against a \
     committed golden) and exits non-zero on any crash or containment \
     violation."
  in
  let iters_arg =
    Arg.(
      value & opt int 400
      & info [ "iters" ] ~docv:"N" ~doc:"Mutant frames to inject.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc) Term.(const fuzz $ seed_arg $ iters_arg)

(* --- sanitize --------------------------------------------------------------------- *)

let sanitize seed exps =
  let exps =
    match exps with [] -> Experiments.sanitize_experiments | l -> l
  in
  let races = ref 0 in
  List.iter
    (fun exp ->
      let reports = Experiments.sanitize ~seed ~exp () in
      List.iter
        (fun (r : Experiments.sanitize_report) ->
          match r.Experiments.san_divergence with
          | None ->
            Printf.printf
              "%-4s vs %-6s : OK (%d multi-event ticks, no ordering race)\n"
              r.Experiments.san_exp r.Experiments.san_perturbation
              r.Experiments.san_multi_event_ticks
          | Some d ->
            incr races;
            Printf.printf "%-4s vs %-6s : RACE\n%s\n" r.Experiments.san_exp
              r.Experiments.san_perturbation
              (Format.asprintf "%a" Lastcpu_sim.Sanitizer.pp_divergence d))
        reports)
    exps;
  if !races = 0 then 0 else 1

let sanitize_cmd =
  let doc =
    "Same-tick ordering sanitizer: run an experiment under the contractual \
     FIFO same-tick event order and under perturbed tie-breaks (LIFO and \
     seed-salted), comparing observable-state digests after every \
     multi-event tick. A divergence means some event pair's same-timestamp \
     order leaks into observable state — an ordering race the determinism \
     contract forbids. For a sharded soak (t15, where tie-break drift \
     legitimately dissolves coincidental collisions of independent \
     streams) the check is instead that the final digest is tie-invariant \
     and that each perturbed tie's journal is bit-identical between 1 and \
     4 execution lanes. Exits non-zero if any race is found."
  in
  let exps_arg =
    Arg.(
      value
      & opt_all (exp_id Experiments.sanitize_experiments) []
      & info [ "exp" ] ~docv:"ID"
          ~doc:
            ("Experiment to sanitize: "
            ^ doc_alts Experiments.sanitize_experiments
            ^ "; repeatable. Default: all of them."))
  in
  Cmd.v (Cmd.info "sanitize" ~doc) Term.(const sanitize $ seed_arg $ exps_arg)

let () =
  let doc = "emulator of the CPU-less system from 'The Last CPU' (HotOS '21)" in
  let info = Cmd.info "lastcpu" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ topology_cmd; figure2_cmd; experiment_cmd; kv_cmd; metrics_cmd;
            fuzz_cmd; sanitize_cmd ]))
