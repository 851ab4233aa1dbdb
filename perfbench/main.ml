(* The repository benchmark: one of four workloads, measured end to end
   (untraced) or layer by layer (traced).

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale K]

   A run first times a block of set-ups (build, boot, bring-up, preload),
   then repeats rounds until S host seconds have passed (at least three
   rounds). Every round builds a fresh machine from the same seed, then
   runs the workload's fixed, seed-generated ops (the timed phase). The
   emulator is deterministic, so every round must end with the same
   metrics digest; a divergence fails the run. Set-up time is the median
   of the block, throughput that of the fastest round; virtual-time
   metrics and per-op counts come from one round and repeat exactly for a
   given seed.

   With --trace 1 rounds alternate between traced (the benchmark's spans
   on) and untraced, then the first round's machine is checkpointed and
   restored, the layer probes run, and shard-soak runs its A/B legs
   (1 vs 2 lanes, checkpoints on vs off). The spans are written as Chrome
   trace-event JSON under .bench_run/.

   The last line of stdout is one JSON object: correct, attempted, failed
   and the metrics (end-to-end ones untraced, per-layer ones traced).
   [--scale K] divides every op count by K (the smoke test uses it). *)

module W = Workloads
module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Stats = Lastcpu_sim.Stats
module Snapshot = Lastcpu_sim.Snapshot
module System = Lastcpu_core.System
module Checkpoint = Lastcpu_core.Checkpoint

type workload = {
  name : string;
  build : W.ctx -> W.machine;
  shape : Probes.shape;
  sharded : bool;
}

let workloads =
  let kv name (s : W.kv_shape) =
    {
      name;
      build = W.kv_machine s;
      shape = { Probes.value_bytes = s.value_bytes; put_share = s.put_share };
      sharded = false;
    }
  in
  [
    kv "kv-read" W.kv_read_shape;
    kv "kv-write" W.kv_write_shape;
    {
      name = "ctl-churn";
      build = W.ctl_machine;
      shape = { Probes.value_bytes = 0; put_share = 0. };
      sharded = false;
    };
    {
      name = "shard-soak";
      build = W.ring_machine;
      shape = { Probes.value_bytes = 64; put_share = 1. /. 3. };
      sharded = true;
    };
  ]

(* --- one round ------------------------------------------------------------------- *)

type round = {
  d : W.drive;
  traced : bool;
  run_s : float;
  cpu_s : float;
  counts : Counts.t;
  minor_words : float;
  major_gcs : int;
  digest : int64;
}

let run_round wl ctx ~keep =
  let main = W.main_spans ctx in
  let id = match main with Some b -> Span.fresh_id b | None -> 0 in
  let ctx = { ctx with W.parent = id } in
  let t0 = Span.now () in
  let m = wl.build ctx in
  Option.iter
    (fun b -> Span.add b ~name:"setup" ~cat:"setup" ~parent:id ~id:(Span.fresh_id b) t0 (Span.now ()))
    main;
  let apps = Array.to_list m.W.apps in
  let c0 = Counts.of_machine ~apps m.W.systems in
  let g0 = Gc.quick_stat () in
  let cpu0 = Sys.time () in
  let d, run_s =
    Span.timed ?b:main ~parent:id ~name:"timed" ~cat:"workload" (fun () -> m.W.drive ())
  in
  let cpu_s = Sys.time () -. cpu0 in
  let g1 = Gc.quick_stat () in
  let counts = Counts.diff (Counts.of_machine ~apps m.W.systems) c0 in
  Option.iter (fun b -> Span.add b ~name:wl.name ~cat:"round" ~id t0 (Span.now ())) main;
  let r =
    {
      d;
      traced = main <> None;
      run_s;
      cpu_s;
      counts;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      digest = W.digest m;
    }
  in
  (* The pool's domains would otherwise take part in every later
     stop-the-world collection; a checkpoint needs no pool. *)
  W.release m;
  (r, if keep then Some m else None)

(* --- statistics ------------------------------------------------------------------ *)

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let med f rs = median (Array.of_list (List.map f rs))

(* Throughput of the fastest round. Every round does identical work, and
   interference from other tenants of the host only ever slows a round,
   so the fastest round is the steadiest estimate of the program's own
   speed (the minimum-time estimator; Chen and Revels, "Robust
   benchmarking in noisy environments", 2016). On the 2-vCPU host this
   benchmark was tuned on, medians over rounds moved by up to 40% between
   10-second runs of the same seed; the fastest round moved by about 10%. *)
let ops_per_s r = float_of_int r.d.W.attempted /. r.run_s

let best_round rs =
  List.fold_left (fun b r -> if ops_per_s r > ops_per_s b then r else b) (List.hd rs) rs

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
      else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> "unknown"
      | line -> (
        match String.index_opt line ':' with
        | Some i when String.length line > 10 && String.sub line 0 10 = "model name" ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- checkpoint save/restore of a workload's final machine ---------------------- *)

type checkpoint = { save_ms : float; restore_ms : float; bytes : int; restored_digest_ok : bool }

let checkpoint_probe ?b wl ctx m ~digest ~path =
  let tag = "perfbench:" ^ wl.name in
  let saves =
    Array.init 2 (fun _ ->
        snd
          (Span.timed ?b ~name:"checkpoint.save" ~cat:"core" (fun () ->
               Checkpoint.save ~path ~tag m.W.target)))
  in
  let bytes = (Unix.stat path).Unix.st_size in
  let ok = ref true in
  let restores =
    Array.init 2 (fun _ ->
        let fresh = wl.build { ctx with W.spans = None; parent = 0 } in
        let res, s =
          Span.timed ?b ~name:"checkpoint.restore" ~cat:"core" (fun () ->
              Checkpoint.restore ~path ~tag fresh.W.target)
        in
        (match res with
        | Ok _ -> if W.digest fresh <> digest then ok := false
        | Error _ -> ok := false);
        W.release fresh;
        s)
  in
  {
    save_ms = median saves *. 1e3;
    restore_ms = median restores *. 1e3;
    bytes;
    restored_digest_ok = !ok;
  }

(* --- metrics ---------------------------------------------------------------------- *)

(* Virtual latency is reported as a mean and as the mean of the slowest 1%
   of ops rather than as percentiles: the latency model has few distinct
   service times (a Get is 2.119 us, a Put about 1 ms, ...), so a
   percentile lands on the same atom for every seed and cannot show a
   change smaller than a whole atom. *)
let tail_mean sorted share =
  let n = Array.length sorted in
  let k = max 1 (int_of_float (Float.ceil (share *. float_of_int n))) in
  let s = ref 0. in
  for i = n - k to n - 1 do s := !s +. sorted.(i) done;
  !s /. float_of_int k

(* Set-up is timed on a block of set-ups run back to back before the
   rounds, each machine dropped before the next is built. A round's own
   set-up starts from the heap the previous round's ops left behind, which
   depends on the seed: on kv-write, seed 302 took 537k page faults and
   80 ms per set-up where seed 303 took 297k and 40 ms. *)
type setup = { setup_s : float; boot_s : float; preload_s : float }

let setup_reps = 11

let measure_setups wl ctx =
  let one () =
    Gc.full_major ();
    let m, setup_s = Span.timed ~name:"setup" ~cat:"setup" (fun () -> wl.build ctx) in
    W.release m;
    { setup_s; boot_s = m.W.boot_s; preload_s = m.W.preload_s }
  in
  let ss = List.init setup_reps (fun _ -> one ()) in
  {
    setup_s = med (fun s -> s.setup_s) ss;
    boot_s = med (fun s -> s.boot_s) ss;
    preload_s = med (fun s -> s.preload_s) ss;
  }

let end_to_end (su : setup) rs =
  let r0 = List.hd rs in
  let lat = Array.copy r0.d.W.latencies in
  Array.sort compare lat;
  let mean = Array.fold_left ( +. ) 0. lat /. float_of_int (Array.length lat) in
  [
    ("setup_s", su.setup_s, "s");
    ("ops_per_s", ops_per_s (best_round rs), "1/s");
    ("peak_rss_mb", peak_rss_mb (), "MB");
    ("virtual_mean_us", mean /. 1e3, "us");
    ("virtual_tail_us", tail_mean lat 0.01 /. 1e3, "us");
    ( "virtual_ops_per_s",
      float_of_int r0.d.W.attempted /. (Int64.to_float r0.d.W.virtual_ns *. 1e-9),
      "1/s" );
  ]

(* p99 of the named histogram, merged over every actor and system. The
   registry's histograms are log-bucketed, so this is a bucket edge. *)
let merged_p99_us systems ~instrument =
  let merged =
    Array.fold_left
      (fun acc s ->
        let reg = Engine.metrics (System.engine s) in
        List.fold_left
          (fun acc (actor, name, _) ->
            if name = instrument then
              Stats.Histogram.merge acc (Metrics.hist (Metrics.histogram reg ~actor ~name))
            else acc)
          acc (Metrics.snapshot reg))
      (Stats.Histogram.create ()) systems
  in
  Stats.Histogram.percentile merged 99. /. 1e3

type ab = { lane_speedup : float; checkpoint_share : float }

let sum = List.fold_left ( +. ) 0.

let per_layer ~(su : setup) ~rounds ~(traced : round) ~untraced ~(p : Probes.t) ~(cp : checkpoint) ~ab
    ~final_systems =
  let c = traced.counts in
  let ops = float_of_int traced.d.W.attempted in
  let per x = float_of_int x /. ops in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let attempted r = float_of_int r.d.W.attempted in
  (* Host times come from the fastest untraced round, as [ops_per_s]. *)
  let best = best_round untraced in
  let best_attempted = float_of_int best.d.W.attempted in
  let host_ns_per_op = best.run_s *. 1e9 /. best_attempted in
  let compact_ms =
    match best.d.W.compact_s with [] -> 0. | l -> median (Array.of_list l) *. 1e3
  in
  let attributed =
    let nz x = Float.max 0. x in
    [
      ("sim", per c.events *. p.schedule_pop_ns);
      ("proto", per (c.maps + c.unmaps) *. p.token_verify_ns);
      ("bus", per c.routed *. nz (p.route_ns -. (p.route_events *. p.schedule_pop_ns)));
      ("mem", per (c.maps + c.unmaps) /. 2. *. p.buddy_alloc_free_ns);
      ( "iommu",
        (per c.translations *. p.translate_hit_ns)
        +. (per (c.translations - c.tlb_hits) *. p.walk_ns)
        +. (per (c.maps + c.unmaps) /. 2. *. p.map_unmap_ns) );
      ("virtio", per c.fc_requests *. p.vq_chain_ns);
      ( "fs",
        per c.fs_writes *. nz ((p.fs_write_4k_ns /. p.fs_blocks_per_write) -. p.ftl_write_ns) );
      ("flash", per c.ftl_host_writes *. p.ftl_write_ns);
      ("kv", per traced.d.W.kv_ops *. ((p.store_put_get_ns /. 2.) +. p.kv_proto_roundtrip_ns));
      ("net", per c.frames *. nz (p.net_frame_ns -. (p.net_frame_events *. p.schedule_pop_ns)));
      ("core", sum best.d.W.checkpoint_s *. 1e9 /. best_attempted);
    ]
  in
  let attributed_total = List.fold_left (fun a (_, v) -> a +. v) 0. attributed in
  let ns = "ns" and count = "count" and ratio_u = "ratio" in
  [
    ("sim.events_per_op", per c.events, count);
    ("sim.host_ns_per_event", host_ns_per_op /. per c.events, ns);
    ("sim.minor_words_per_op", med (fun r -> r.minor_words /. attempted r) untraced, "words");
    ( "sim.major_gcs_per_kop",
      med (fun r -> float_of_int r.major_gcs *. 1e3 /. attempted r) untraced,
      count );
    ("sim.trace_entries_per_op", per c.trace_entries, count);
    ("sim.probe.schedule_pop_ns", p.schedule_pop_ns, ns);
    ("sim.temporal.lane_speedup", ab.lane_speedup, ratio_u);
    ("sim.parallel.cpu_per_wall", med (fun r -> r.cpu_s /. r.run_s) untraced, ratio_u);
    ("proto.probe.codec_roundtrip_ns", p.codec_roundtrip_ns, ns);
    ("proto.probe.token_verify_ns", p.token_verify_ns, ns);
    ("bus.routed_per_op", per c.routed, count);
    ("bus.control_bytes_per_op", per c.control_bytes, "bytes");
    ("bus.maps_programmed_per_op", per c.maps, count);
    ("bus.unmaps_per_op", per c.unmaps, count);
    ("bus.rejected_per_op", per c.rejected, count);
    ("bus.boundary_out_per_op", per c.boundary_out, count);
    ("bus.probe.route_ns", p.route_ns, ns);
    ("bus.probe.route_minor_words", p.route_minor_words, "words");
    ("bus.probe.route_trace_off_ns", p.route_trace_off_ns, ns);
    ("bus.probe.route_trace_off_minor_words", p.route_trace_off_minor_words, "words");
    ("device.requests_per_op", per c.dev_requests, count);
    ("device.retries_per_op", per c.dev_retries, count);
    ("device.gave_up", float_of_int c.dev_gave_up, count);
    ("device.request_virtual_p99_us", merged_p99_us final_systems ~instrument:"request_ns", "us");
    ("memctl.handled_per_op", per c.memctl_handled, count);
    ("nic.packets_per_op", per c.nic_packets, count);
    ("ssd.requests_per_op", per c.ssd_requests, count);
    ("file_client.requests_per_op", per c.fc_requests, count);
    ("mem.probe.physmem_read_4k_ns", p.physmem_read_4k_ns, ns);
    ("mem.probe.buddy_alloc_free_ns", p.buddy_alloc_free_ns, ns);
    ("iommu.translations_per_op", per c.translations, count);
    ("iommu.tlb_hit_ratio", ratio c.tlb_hits c.translations, ratio_u);
    ("iommu.walk_levels_per_op", per c.walk_levels, count);
    ("iommu.faults", float_of_int c.iommu_faults, count);
    ("iommu.probe.translate_hit_ns", p.translate_hit_ns, ns);
    ("iommu.probe.walk_ns", p.walk_ns, ns);
    ("iommu.probe.map_unmap_ns", p.map_unmap_ns, ns);
    ("virtio.probe.vq_chain_ns", p.vq_chain_ns, ns);
    ("fs.block_writes_per_op", per c.fs_writes, count);
    ("fs.block_reads_per_op", per c.fs_reads, count);
    ("fs.cache_hit_ratio", ratio c.fs_cache_hits c.fs_reads, ratio_u);
    ("fs.probe.write_4k_ns", p.fs_write_4k_ns, ns);
    ("flash.nand_programs_per_op", per c.nand_programs, count);
    ("flash.nand_reads_per_op", per c.nand_reads, count);
    ("flash.nand_erases_per_kop", per c.nand_erases *. 1e3, count);
    ( "flash.write_amplification",
      (if c.ftl_host_writes = 0 then 0.
       else ratio (c.ftl_host_writes + c.ftl_gc_moves) c.ftl_host_writes),
      ratio_u );
    ("flash.gc_runs", float_of_int c.ftl_gc_runs, count);
    ("flash.probe.ftl_write_ns", p.ftl_write_ns, ns);
    ("kv.op_virtual_p99_us", merged_p99_us final_systems ~instrument:"kv_op_ns", "us");
    ("kv.compact_ms", compact_ms, "ms");
    ("kv.compact_share", sum best.d.W.compact_s /. best.run_s, ratio_u);
    ("kv.probe.store_put_get_ns", p.store_put_get_ns, ns);
    ("kv.probe.kv_proto_roundtrip_ns", p.kv_proto_roundtrip_ns, ns);
    ("net.frames_per_op", per c.frames, count);
    ("net.bytes_per_op", per c.net_bytes, "bytes");
    ("net.frames_dropped", float_of_int c.frames_dropped, count);
    ("net.probe.frame_ns", p.net_frame_ns, ns);
    ("core.boot_s", su.boot_s, "s");
    ("core.preload_s", su.preload_s, "s");
    ("core.checkpoint_save_ms", cp.save_ms, "ms");
    ("core.checkpoint_restore_ms", cp.restore_ms, "ms");
    ("core.checkpoint_bytes", float_of_int cp.bytes, "bytes");
    ("core.checkpoint_share", ab.checkpoint_share, ratio_u);
  ]
  @ List.map (fun (l, v) -> ("attributed_ns_per_op." ^ l, v, ns)) attributed
  @ [
      ("unattributed_share", 1. -. (attributed_total /. host_ns_per_op), ratio_u);
      ( "trace.overhead_ratio",
        ops_per_s best /. ops_per_s (best_round (List.filter (fun r -> r.traced) rounds)),
        ratio_u );
    ]

(* --- driver ------------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (kv-read|kv-write|ctl-churn|shard-soak) --seed N \
     --seconds S --trace 0|1 [--scale K]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and scale = ref 1 in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := Some (int_arg n); go rest
    | "--seconds" :: n :: rest -> seconds := Some (int_arg n); go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | "--scale" :: n :: rest -> scale := max 1 (int_arg n); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace -> (
    match List.find_opt (fun wl -> wl.name = w) workloads with
    | Some wl -> (wl, seed, seconds, trace, !scale)
    | None -> usage ())
  | _ -> usage ()

let min_rounds = 3
let run_dir = ".bench_run"

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let wl, seed, seconds, trace, scale = parse_args () in
  Probes.scale := scale;
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let snap_path = Filename.concat run_dir (Printf.sprintf "%s-%d.snap" wl.name (Unix.getpid ())) in
  let probe_path = snap_path ^ ".probe" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ snap_path; Snapshot.previous_generation snap_path; probe_path;
        Snapshot.previous_generation probe_path ]
  in
  at_exit cleanup;
  let lanes = if wl.sharded then 1 + W.ring_shards else 1 in
  let spans = List.init lanes (fun lane -> Span.buf ~lane) in
  let span_array = Array.of_list spans in
  let ctx =
    { W.seed; scale; lanes = 2; snapshots = true; snap_path; spans = None; parent = 0 }
  in
  let start = Span.now () in
  let elapsed () = Span.seconds_between start (Span.now ()) in
  let su = measure_setups wl ctx in
  let rounds = ref [] and kept = ref None and i = ref 0 in
  while !i < min_rounds || elapsed () < float_of_int seconds do
    let traced = trace && !i mod 2 = 0 in
    let ctx = if traced then { ctx with W.spans = Some span_array } else ctx in
    (* Collect the previous round's machine before this round starts, so
       its garbage is not collected inside this round's timed phase. *)
    Gc.full_major ();
    let marks = List.map Span.mark spans in
    let r, m = run_round wl ctx ~keep:(trace && !i = 0) in
    if m <> None then kept := m;
    (* Latencies and client ops repeat exactly in every round: keep only
       the first round's (traced rounds still pay for recording them). *)
    let r = if !i = 0 then r else { r with d = { r.d with W.latencies = [||] } } in
    if traced && !i > 0 then
      List.iter2 (fun b mark -> Span.drop_after b ~mark ~cat:"client-op") spans marks;
    rounds := r :: !rounds;
    incr i
  done;
  let rounds = List.rev !rounds in
  let r0 = List.hd rounds in
  let attempted = List.fold_left (fun a r -> a + r.d.W.attempted) 0 rounds in
  let failed = List.fold_left (fun a r -> a + r.d.W.failed) 0 rounds in
  let digests_ok = List.for_all (fun r -> r.digest = r0.digest) rounds in
  let untraced = List.filter (fun r -> not r.traced) rounds in
  let correct = ref (failed = 0 && digests_ok) in
  Printf.printf "workload %s seed %d: %d rounds, digest 0x%016Lx%s\n" wl.name seed
    (List.length rounds) r0.digest (if digests_ok then "" else " (DIVERGED across rounds)");
  Printf.printf "host: nproc %d, OCaml %s, CPU %s\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (cpu_model ());
  Printf.printf "failed_share %.6g (%d of %d ops)\n" (float_of_int failed /. float_of_int attempted)
    failed attempted;
  let metrics =
    if not trace then end_to_end su rounds
    else begin
      let b = Some span_array.(0) in
      let m = Option.get !kept in
      let cp = checkpoint_probe ?b wl ctx m ~digest:r0.digest ~path:probe_path in
      if not cp.restored_digest_ok then begin
        print_endline "checkpoint restore: digest differs from the saved machine";
        correct := false
      end;
      let final_systems = m.W.systems in
      let p = Probes.run ?b wl.shape in
      let ab =
        if not wl.sharded then { lane_speedup = 0.; checkpoint_share = 0. }
        else begin
          (* A/B legs, untraced, interleaved: 1 vs 2 lanes with checkpoints,
             and 2 lanes without checkpoints. *)
          let leg ~lanes ~snapshots =
            Gc.full_major ();
            let (r, _), _ =
              let name = Printf.sprintf "ab.lanes%d%s" lanes (if snapshots then "" else ".nosnap") in
              Span.timed ?b ~name
                ~cat:"ab" (fun () -> run_round wl { ctx with W.lanes; snapshots } ~keep:false)
            in
            r
          in
          let legs = List.init 3 (fun _ ->
              let l1 = leg ~lanes:1 ~snapshots:true in
              let l2 = leg ~lanes:2 ~snapshots:true in
              let off = leg ~lanes:2 ~snapshots:false in
              (l1, l2, off))
          in
          let l1s = List.map (fun (a, _, _) -> a) legs in
          let l2s = List.map (fun (_, b, _) -> b) legs in
          let offs = List.map (fun (_, _, c) -> c) legs in
          if not (List.for_all (fun r -> r.digest = r0.digest) (l1s @ l2s)) then begin
            print_endline "lane A/B: digest differs between 1 and 2 lanes";
            correct := false
          end;
          if List.exists (fun r -> r.d.W.failed > 0) (l1s @ l2s @ offs) then correct := false;
          let run_s rs = List.fold_left (fun a r -> Float.min a r.run_s) infinity rs in
          {
            lane_speedup = run_s l1s /. run_s l2s;
            checkpoint_share = 1. -. (run_s offs /. run_s l2s);
          }
        end
      in
      let traced = List.find (fun r -> r.traced) rounds in
      let metrics = per_layer ~su ~rounds ~traced ~untraced ~p ~cp ~ab ~final_systems in
      let trace_path =
        Filename.concat run_dir (Printf.sprintf "trace-%s-seed%d.json" wl.name seed)
      in
      Span.write_chrome ~path:trace_path spans;
      Printf.printf "spans: %d in %s (Chrome trace-event JSON)\n" (Span.count spans) trace_path;
      metrics
    end
  in
  List.iter (fun (n, v, u) -> Printf.printf "  %-40s %14.6g %s\n" n v u) metrics;
  let metric (n, v, u) = Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct attempted failed
    (String.concat ", " (List.map metric metrics));
  if not !correct then exit 1
