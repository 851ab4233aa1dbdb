(* Per-layer work counts, read from the emulator's public surface: the
   engine's Metrics registry, [Engine.events_executed], [Trace.length], the
   NAND behind each SSD's FTL, and each KVS app's file client. A snapshot
   is taken before and after the timed phase; the difference is the work
   the workload's ops caused. *)

module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Trace = Lastcpu_sim.Trace
module System = Lastcpu_core.System
module Smart_ssd = Lastcpu_devices.Smart_ssd
module File_client = Lastcpu_devices.File_client
module Ftl = Lastcpu_flash.Ftl
module Nand = Lastcpu_flash.Nand
module Kv_app = Lastcpu_kv.Kv_app

type t = {
  events : int;
  trace_entries : int;
  (* bus *)
  routed : int;
  control_bytes : int;
  maps : int;
  unmaps : int;
  rejected : int;
  boundary_out : int;
  (* device framework *)
  dev_requests : int;
  dev_retries : int;
  dev_gave_up : int;
  (* devices *)
  memctl_handled : int;
  nic_packets : int;
  ssd_requests : int;
  fc_requests : int;
  (* iommu *)
  translations : int;
  tlb_hits : int;
  walk_levels : int;
  iommu_faults : int;
  (* fs *)
  fs_writes : int;
  fs_reads : int;
  fs_cache_hits : int;
  (* flash *)
  nand_programs : int;
  nand_reads : int;
  nand_erases : int;
  ftl_host_writes : int;
  ftl_gc_moves : int;
  ftl_gc_runs : int;
  (* net *)
  frames : int;
  net_bytes : int;
  frames_dropped : int;
}

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Sum of counter [name] over the actors [actor] selects. *)
let sum snap ~actor ~name =
  List.fold_left
    (fun acc (a, i, v) ->
      match v with
      | Metrics.Counter_v n when i = name && actor a -> acc + n
      | _ -> acc)
    0 snap

let device_actor a = not (String.contains a '.') && not (starts_with ~prefix:"bus" a)

let of_system ~apps system =
  let engine = System.engine system in
  let snap = Metrics.snapshot (Engine.metrics engine) in
  let any _ = true in
  let bus = starts_with ~prefix:"bus" in
  let iommu = ends_with ~suffix:".iommu" in
  let fs = ends_with ~suffix:".fs" in
  let ftl = ends_with ~suffix:".ftl" in
  let nands = List.map (fun s -> Ftl.nand (Smart_ssd.ftl s)) (System.ssds system) in
  let nand f = List.fold_left (fun a n -> a + f n) 0 nands in
  {
    events = Engine.events_executed engine;
    trace_entries = Trace.length (Engine.trace engine);
    routed = sum snap ~actor:bus ~name:"routed";
    control_bytes = sum snap ~actor:bus ~name:"control_bytes";
    maps = sum snap ~actor:bus ~name:"maps_programmed";
    unmaps = sum snap ~actor:bus ~name:"unmaps";
    rejected =
      sum snap ~actor:bus ~name:"token_failures"
      + sum snap ~actor:bus ~name:"undeliverable"
      + Lastcpu_bus.Sysbus.messages_rejected (System.bus system);
    boundary_out = Lastcpu_bus.Sysbus.boundary_out (System.bus system);
    dev_requests = sum snap ~actor:device_actor ~name:"sent";
    dev_retries = sum snap ~actor:device_actor ~name:"retries";
    dev_gave_up = sum snap ~actor:device_actor ~name:"gave_up";
    memctl_handled = sum snap ~actor:(starts_with ~prefix:"memctl") ~name:"handled";
    nic_packets =
      sum snap ~actor:device_actor ~name:"rx_packets"
      + sum snap ~actor:device_actor ~name:"tx_packets";
    ssd_requests = sum snap ~actor:device_actor ~name:"requests_served";
    fc_requests =
      List.fold_left
        (fun a app -> a + File_client.requests_completed (Kv_app.client app))
        0 apps;
    translations = sum snap ~actor:iommu ~name:"translations";
    tlb_hits = sum snap ~actor:iommu ~name:"tlb_hits";
    walk_levels = sum snap ~actor:iommu ~name:"walk_levels";
    iommu_faults = sum snap ~actor:iommu ~name:"faults";
    fs_writes = sum snap ~actor:fs ~name:"block_writes";
    fs_reads = sum snap ~actor:fs ~name:"block_reads";
    fs_cache_hits = sum snap ~actor:fs ~name:"cache_hits";
    nand_programs = nand Nand.programs;
    nand_reads = nand Nand.reads;
    nand_erases = nand Nand.total_erases;
    ftl_host_writes = sum snap ~actor:ftl ~name:"host_writes";
    ftl_gc_moves = sum snap ~actor:ftl ~name:"gc_moves";
    ftl_gc_runs = sum snap ~actor:ftl ~name:"gc_runs";
    frames = sum snap ~actor:any ~name:"frames_delivered";
    net_bytes = sum snap ~actor:any ~name:"bytes_carried";
    frames_dropped = sum snap ~actor:any ~name:"frames_dropped";
  }

let map2 f a b =
  {
    events = f a.events b.events;
    trace_entries = f a.trace_entries b.trace_entries;
    routed = f a.routed b.routed;
    control_bytes = f a.control_bytes b.control_bytes;
    maps = f a.maps b.maps;
    unmaps = f a.unmaps b.unmaps;
    rejected = f a.rejected b.rejected;
    boundary_out = f a.boundary_out b.boundary_out;
    dev_requests = f a.dev_requests b.dev_requests;
    dev_retries = f a.dev_retries b.dev_retries;
    dev_gave_up = f a.dev_gave_up b.dev_gave_up;
    memctl_handled = f a.memctl_handled b.memctl_handled;
    nic_packets = f a.nic_packets b.nic_packets;
    ssd_requests = f a.ssd_requests b.ssd_requests;
    fc_requests = f a.fc_requests b.fc_requests;
    translations = f a.translations b.translations;
    tlb_hits = f a.tlb_hits b.tlb_hits;
    walk_levels = f a.walk_levels b.walk_levels;
    iommu_faults = f a.iommu_faults b.iommu_faults;
    fs_writes = f a.fs_writes b.fs_writes;
    fs_reads = f a.fs_reads b.fs_reads;
    fs_cache_hits = f a.fs_cache_hits b.fs_cache_hits;
    nand_programs = f a.nand_programs b.nand_programs;
    nand_reads = f a.nand_reads b.nand_reads;
    nand_erases = f a.nand_erases b.nand_erases;
    ftl_host_writes = f a.ftl_host_writes b.ftl_host_writes;
    ftl_gc_moves = f a.ftl_gc_moves b.ftl_gc_moves;
    ftl_gc_runs = f a.ftl_gc_runs b.ftl_gc_runs;
    frames = f a.frames b.frames;
    net_bytes = f a.net_bytes b.net_bytes;
    frames_dropped = f a.frames_dropped b.frames_dropped;
  }

(* Counts summed over every system of a (possibly sharded) machine. *)
let of_machine ~apps systems =
  match Array.to_list systems with
  | [] -> invalid_arg "Counts.of_machine: no system"
  | s :: rest ->
    List.fold_left
      (fun acc s -> map2 ( + ) acc (of_system ~apps:[] s))
      (of_system ~apps s) rest

let diff after before = map2 ( - ) after before
