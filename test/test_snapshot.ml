(* Crash-survivable simulation: the snapshot container format (framing,
   CRC rejection, generation fallback), the engine's checkpoint-hook
   registry, the WAL watermark interplay (no double-apply after a
   restore), breaker and crash-window resume semantics, the Checkpoint
   orchestrator's mismatch handling, and the T16/T17 kill-resume contract:
   a killed-and-resumed run is bit-identical to an uninterrupted one. *)

module Engine = Lastcpu_sim.Engine
module Snapshot = Lastcpu_sim.Snapshot
module Faults = Lastcpu_sim.Faults
module Metrics = Lastcpu_sim.Metrics
module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Physmem = Lastcpu_mem.Physmem
module Sysbus = Lastcpu_bus.Sysbus
module Device = Lastcpu_device.Device
module Smart_ssd = Lastcpu_devices.Smart_ssd
module Store = Lastcpu_kv.Store
module Wal = Lastcpu_kv.Wal
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto
module System = Lastcpu_core.System
module Scenario = Lastcpu_core.Scenario_kvs
module Checkpoint = Lastcpu_core.Checkpoint
module Experiments = Lastcpu_core.Experiments

let temp_snapshot () =
  let path = Filename.temp_file "lastcpu-snap-test" ".snap" in
  Sys.remove path;
  path

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; Snapshot.previous_generation path ]

(* --- container format --------------------------------------------------- *)

let test_codec_roundtrip () =
  let w = Snapshot.W.create () in
  Snapshot.W.u8 w 0xAB;
  Snapshot.W.u32 w 123_456_789;
  Snapshot.W.i64 w (-77L);
  Snapshot.W.varint w 300;
  Snapshot.W.vint w (-42);
  Snapshot.W.bool w true;
  Snapshot.W.float w 2.5;
  Snapshot.W.string w "hello \x00 binary";
  Snapshot.W.list w Snapshot.W.string [ "a"; "bb"; "" ];
  Snapshot.W.array w Snapshot.W.varint [| 1; 0; 9999 |];
  Snapshot.W.option w Snapshot.W.i64 (Some 5L);
  Snapshot.W.option w Snapshot.W.i64 None;
  let r = Snapshot.R.of_string (Snapshot.W.contents w) in
  Alcotest.(check int) "u8" 0xAB (Snapshot.R.u8 r);
  Alcotest.(check int) "u32" 123_456_789 (Snapshot.R.u32 r);
  Alcotest.(check int64) "i64" (-77L) (Snapshot.R.i64 r);
  Alcotest.(check int) "varint" 300 (Snapshot.R.varint r);
  Alcotest.(check int) "vint" (-42) (Snapshot.R.vint r);
  Alcotest.(check bool) "bool" true (Snapshot.R.bool r);
  Alcotest.(check (float 0.0)) "float" 2.5 (Snapshot.R.float r);
  Alcotest.(check string) "string" "hello \x00 binary" (Snapshot.R.string r);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ]
    (Snapshot.R.list r Snapshot.R.string);
  Alcotest.(check (array int)) "array" [| 1; 0; 9999 |]
    (Snapshot.R.array r Snapshot.R.varint);
  Alcotest.(check (option int64)) "some" (Some 5L)
    (Snapshot.R.option r Snapshot.R.i64);
  Alcotest.(check (option int64)) "none" None
    (Snapshot.R.option r Snapshot.R.i64);
  Alcotest.(check bool) "eof" true (Snapshot.R.eof r)

let sections =
  [
    { Snapshot.name = "alpha"; body = "aaaa" };
    { Snapshot.name = "beta"; body = String.make 300 'b' };
  ]

let test_encode_decode () =
  let bytes = Snapshot.encode sections in
  match Snapshot.decode bytes with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
    Alcotest.(check (option string)) "alpha" (Some "aaaa")
      (Snapshot.find decoded "alpha");
    Alcotest.(check (option string)) "beta"
      (Some (String.make 300 'b'))
      (Snapshot.find decoded "beta");
    Alcotest.(check (option string)) "missing" None
      (Snapshot.find decoded "gamma")

let test_bit_flip_rejected () =
  let bytes = Bytes.of_string (Snapshot.encode sections) in
  (* Flip one bit in the middle of a section body: the per-section CRC
     must catch it. *)
  let i = Bytes.length bytes / 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x10));
  match Snapshot.decode (Bytes.to_string bytes) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip accepted"

let test_truncation_rejected () =
  let bytes = Snapshot.encode sections in
  for keep = 0 to min 64 (String.length bytes - 1) do
    match Snapshot.decode (String.sub bytes 0 keep) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %d-byte prefix" keep)
  done

let test_generations_and_fallback () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let gen n = [ { Snapshot.name = "n"; body = string_of_int n } ] in
      Snapshot.write ~path (gen 1);
      (match Snapshot.load ~path with
      | Ok (Snapshot.Primary, s) ->
        Alcotest.(check (option string)) "gen 1" (Some "1") (Snapshot.find s "n")
      | Ok (Snapshot.Previous, _) -> Alcotest.fail "fresh write read as previous"
      | Error e -> Alcotest.fail e);
      Snapshot.write ~path (gen 2);
      (match Snapshot.load ~path with
      | Ok (Snapshot.Primary, s) ->
        Alcotest.(check (option string)) "gen 2" (Some "2") (Snapshot.find s "n")
      | _ -> Alcotest.fail "second write not primary");
      (* A torn third write (killed mid-checkpoint) must fall back to the
         displaced second generation, not the first. *)
      Snapshot.write_torn ~path ~keep_bytes:10 (gen 3);
      (match Snapshot.load ~path with
      | Ok (Snapshot.Previous, s) ->
        Alcotest.(check (option string)) "fallback" (Some "2")
          (Snapshot.find s "n")
      | Ok (Snapshot.Primary, _) -> Alcotest.fail "torn primary accepted"
      | Error e -> Alcotest.fail e);
      (* Both generations bad: a combined error, not an exception. *)
      let oc = open_out (Snapshot.previous_generation path) in
      output_string oc "junk";
      close_out oc;
      match Snapshot.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "two bad generations accepted")

(* --- engine hook registry ------------------------------------------------ *)

let test_hook_registry () =
  let engine = Engine.create () in
  let noop_save () = "" in
  let noop_restore _ = () in
  Engine.register_snapshot engine ~name:"b" ~save:noop_save
    ~restore:noop_restore;
  Engine.register_snapshot engine ~name:"a" ~save:noop_save
    ~restore:noop_restore;
  Alcotest.(check (list string)) "registration order kept" [ "b"; "a" ]
    (List.map (fun (n, _, _) -> n) (Engine.snapshot_hooks engine));
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Engine.register_snapshot: duplicate hook b") (fun () ->
      Engine.register_snapshot engine ~name:"b" ~save:noop_save
        ~restore:noop_restore)

let test_save_requires_quiescence () =
  let engine = Engine.create () in
  Engine.schedule engine ~delay:10L (fun () -> ());
  Alcotest.check_raises "volatile event queued"
    (Invalid_argument "Engine.save_state: queue has volatile events")
    (fun () -> ignore (Engine.save_state engine));
  Engine.run_until_quiescent engine;
  ignore (Engine.save_state engine)

(* --- WAL watermark: no double-apply after restore (satellite) ----------- *)

let put store key value =
  Store.put store ~key ~value (function
    | Ok () -> ()
    | Error e -> Alcotest.fail e)

let get store key =
  let out = ref None in
  Store.get store key (fun v -> out := v);
  !out

let test_watermark_skips_replayed_prefix () =
  (* Donor store: the state a checkpoint captured — including a key the
     log prefix cannot reproduce (post-compaction reality) — with a
     watermark covering the first 3 log records. *)
  let donor = Store.create (Store.memory_backend ()) in
  put donor "x" "7";
  Store.set_applied_watermark donor 3;
  let w = Snapshot.W.create () in
  Store.save w donor;
  let saved = Snapshot.W.contents w in
  (* The on-disk log: 3 records the snapshot already reflects, one fresh
     record past the watermark, and a torn tail (crash mid-append). *)
  let backend = Store.memory_backend () in
  let logged = ref 0 in
  List.iter
    (fun r ->
      backend.Store.append (Wal.encode r) (function
        | Ok () -> incr logged
        | Error e -> Alcotest.fail e))
    [
      Wal.Put { key = "a"; value = "1" };
      Wal.Put { key = "b"; value = "2" };
      Wal.Del { key = "a" };
      Wal.Put { key = "c"; value = "3" };
    ];
  backend.Store.append "\xff\xff\xfftorn" (fun _ -> ());
  Alcotest.(check int) "log built" 4 !logged;
  (* Restore-then-recover: only the suffix past the watermark replays; the
     restored index is NOT reset, so "x" survives. *)
  let s = Store.create backend in
  Store.restore (Snapshot.R.of_string saved) s;
  Alcotest.(check int) "watermark restored" 3 (Store.applied_watermark s);
  let applied = ref (-1) in
  Store.recover s (function
    | Ok n -> applied := n
    | Error e -> Alcotest.fail e);
  Alcotest.(check int) "only the fresh suffix applied" 1 !applied;
  Alcotest.(check (option string)) "restored key kept" (Some "7") (get s "x");
  Alcotest.(check (option string)) "fresh record applied" (Some "3")
    (get s "c");
  Alcotest.(check (option string)) "pre-watermark records not re-applied" None
    (get s "a");
  Alcotest.(check int) "watermark advanced to log length" 4
    (Store.applied_watermark s);
  (* First-boot semantics unchanged: a fresh store (watermark 0) resets
     and replays everything, torn tail silently discarded. *)
  let fresh = Store.create backend in
  let n = ref (-1) in
  Store.recover fresh (function
    | Ok k -> n := k
    | Error e -> Alcotest.fail e);
  Alcotest.(check int) "full replay" 4 !n;
  Alcotest.(check (option string)) "del replayed" None (get fresh "a");
  Alcotest.(check (option string)) "puts replayed" (Some "2") (get fresh "b");
  Store.set_applied_watermark fresh 0;
  Alcotest.check_raises "negative watermark"
    (Invalid_argument "set_applied_watermark: negative") (fun () ->
      Store.set_applied_watermark fresh (-1))

(* --- breaker resume (satellite) ------------------------------------------ *)

(* The deterministic builder for the breaker rig: a client with an armed
   circuit breaker and a peer that never answers. Checkpoint restore
   overlays state onto a fresh instance of exactly this. *)
let breaker_rig () =
  let engine = Engine.create () in
  let bus = Sysbus.create engine in
  let mem = Physmem.create () in
  let blackhole = Device.create bus ~mem ~name:"blackhole" () in
  Device.start blackhole;
  let client = Device.create bus ~mem ~name:"client" () in
  Device.start client;
  Engine.run engine;
  Device.enable_circuit_breaker client ~threshold:2 ~cooldown_ns:1_000_000L;
  (engine, client, Device.id blackhole)

let test_breaker_resumes_probe_schedule () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let engine_a, client_a, peer_a = breaker_rig () in
      let req engine client peer =
        Device.request client ~timeout:10_000L ~dst:(Types.Device peer)
          (Message.App_message { tag = "ping"; body = "" })
          (fun _ -> ());
        Engine.run engine
      in
      (* Two timeouts: breaker opens (fast-fail until open-time + 1ms). *)
      req engine_a client_a peer_a;
      req engine_a client_a peer_a;
      Alcotest.(check bool) "open before save" true
        (Device.breaker_state client_a ~peer:peer_a = `Open);
      Alcotest.(check bool) "quiescent" true (Engine.quiescent engine_a);
      Checkpoint.save ~path ~tag:"breaker" (Checkpoint.Single engine_a);
      (* Fresh rig, overlay the checkpoint. *)
      let engine_b, client_b, peer_b = breaker_rig () in
      (match
         Checkpoint.restore ~path ~tag:"breaker" (Checkpoint.Single engine_b)
       with
      | Ok Snapshot.Primary -> ()
      | Ok Snapshot.Previous -> Alcotest.fail "unexpected fallback"
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "still open after restore" true
        (Device.breaker_state client_b ~peer:peer_b = `Open);
      Alcotest.(check int64) "clock restored" (Engine.now engine_a)
        (Engine.now engine_b);
      Alcotest.(check int) "open count restored" 1
        (Device.breaker_opens client_b);
      (* Inside the cooldown the restored breaker fast-fails locally. *)
      let sent_before = Device.requests_sent client_b in
      req engine_b client_b peer_b;
      Alcotest.(check int) "fast fail, nothing on the wire" sent_before
        (Device.requests_sent client_b);
      Alcotest.(check int) "fast fail counted" 1
        (Device.breaker_fast_fails client_b);
      (* Past the cooldown the next request is the half-open probe: it
         reaches the wire, fails against the dead peer, and reopens —
         the probe schedule survived the restore intact. *)
      Engine.schedule engine_b ~delay:2_000_000L (fun () ->
          req engine_b client_b peer_b);
      Engine.run engine_b;
      Alcotest.(check int) "probe hit the wire" (sent_before + 1)
        (Device.requests_sent client_b);
      Alcotest.(check bool) "probe failure reopened" true
        (Device.breaker_state client_b ~peer:peer_b = `Open);
      Alcotest.(check int) "reopen counted" 2 (Device.breaker_opens client_b))

(* --- crash-window remainder (satellite) ---------------------------------- *)

let crash_rig () =
  let spec =
    {
      System.default_spec with
      System.fault_plan =
        {
          Faults.zero with
          Faults.crashes =
            [ { Faults.device = "ssd0"; at_ns = 1_000_000L; down_ns = 10_000_000L } ];
        };
    }
  in
  let system = System.build ~spec () in
  (match System.boot system with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("boot: " ^ e));
  system

let test_crash_window_survives_restore () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let a = crash_rig () in
      let engine_a = System.engine a in
      let ssd_a = Smart_ssd.id (System.ssd a 0) in
      (* Into the middle of the crash window: the crash static has fired,
         the revive static (absolute time 11ms) is still pending. *)
      System.run_for a (Int64.sub 5_000_000L (Engine.now engine_a));
      Alcotest.(check bool) "down mid-window" false
        (Sysbus.is_live (System.bus a) ssd_a);
      Alcotest.(check bool) "quiescent mid-window" true
        (Engine.quiescent engine_a);
      Checkpoint.save ~path ~tag:"crash" (Checkpoint.Single engine_a);
      (* Rebuild: the fresh rig re-schedules BOTH statics (crash at 1ms,
         revive at 11ms). The restore's queue filter must drop the
         already-fired crash and keep the revive at its absolute time. *)
      let b = crash_rig () in
      let engine_b = System.engine b in
      let ssd_b = Smart_ssd.id (System.ssd b 0) in
      (match Checkpoint.restore ~path ~tag:"crash" (Checkpoint.Single engine_b)
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int64) "clock restored mid-window" 5_000_000L
        (Engine.now engine_b);
      Alcotest.(check bool) "still down after restore" false
        (Sysbus.is_live (System.bus b) ssd_b);
      (* The remainder of the window completes on the original absolute
         schedule: still down just before the 11ms revive, and the
         revive-plus-rejoin sequence lands the restored machine on exactly
         the same clock as an uninterrupted control run. *)
      Engine.run ~until:10_999_999L engine_b;
      Alcotest.(check bool) "still down just before the revive" false
        (Sysbus.is_live (System.bus b) ssd_b);
      Engine.run engine_b;
      Alcotest.(check bool) "revived after the window" true
        (Sysbus.is_live (System.bus b) ssd_b);
      let c = crash_rig () in
      Engine.run (System.engine c);
      Alcotest.(check bool) "control revived" true
        (Sysbus.is_live (System.bus c) (Smart_ssd.id (System.ssd c 0)));
      Alcotest.(check int64) "rejoin schedule identical to uninterrupted run"
        (Engine.now (System.engine c))
        (Engine.now engine_b))

(* --- checkpoint orchestrator mismatches ---------------------------------- *)

let test_checkpoint_mismatches () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let engine = Engine.create () in
      Checkpoint.save ~path ~tag:"exp-a" (Checkpoint.Single engine);
      let fresh = Engine.create () in
      (match
         Checkpoint.restore ~path ~tag:"exp-b" (Checkpoint.Single fresh)
       with
      | Error e ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "tag named in error" true (contains e "exp-a")
      | Ok _ -> Alcotest.fail "tag mismatch accepted");
      (* A topology with an extra hook the snapshot has no section for. *)
      let extra = Engine.create () in
      Engine.register_snapshot extra ~name:"late-subsystem"
        ~save:(fun () -> "")
        ~restore:(fun _ -> ());
      match Checkpoint.restore ~path ~tag:"exp-a" (Checkpoint.Single extra) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "hook without a section accepted")

(* --- whole-machine round trip -------------------------------------------- *)

(* Full-coverage builder: auth + console + accelerator alongside the KVS,
   so every registered subsystem hook is exercised by the round trip. *)
let full_spec =
  {
    System.default_spec with
    System.with_auth = true;
    users = [ ("kvs", "kvs-secret") ];
    with_console = true;
    accel_count = 1;
  }

let full_rig () =
  match Scenario.run ~spec:full_spec ~smoke_ops:0 () with
  | Error e -> Alcotest.fail ("scenario: " ^ e)
  | Ok outcome -> (outcome.Scenario.system, outcome.Scenario.app)

let drive system app ~tag ~ops =
  for i = 1 to ops do
    let key = Printf.sprintf "%s-%03d" tag i in
    Kv_app.local_op app (Kv_proto.Put (key, "v" ^ key)) (fun r ->
        if r <> Kv_proto.Done then Alcotest.fail "put failed");
    System.run_until_idle system;
    Kv_app.local_op app (Kv_proto.Get key) (fun r ->
        match r with
        | Kv_proto.Value (Some _) -> ()
        | _ -> Alcotest.fail "get failed")
  done;
  System.run_until_idle system

let digest_of system = Metrics.digest (Engine.metrics (System.engine system))

let test_full_system_roundtrip () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let sys_a, app_a = full_rig () in
      drive sys_a app_a ~tag:"pre" ~ops:20;
      Alcotest.(check bool) "quiescent" true
        (Engine.quiescent (System.engine sys_a));
      Checkpoint.save ~path ~tag:"full" (Checkpoint.Single (System.engine sys_a));
      let sys_b, app_b = full_rig () in
      (match
         Checkpoint.restore ~path ~tag:"full"
           (Checkpoint.Single (System.engine sys_b))
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      (* State equality at the restore point... *)
      Alcotest.(check int64) "digest equal after restore" (digest_of sys_a)
        (digest_of sys_b);
      Alcotest.(check int64) "clock equal" (Engine.now (System.engine sys_a))
        (Engine.now (System.engine sys_b));
      (* ...and behavioral equivalence past it: the same continued
         workload produces the same observable state on both machines. *)
      drive sys_a app_a ~tag:"post" ~ops:20;
      drive sys_b app_b ~tag:"post" ~ops:20;
      Alcotest.(check int64) "digest equal after continuation"
        (digest_of sys_a) (digest_of sys_b);
      Alcotest.(check int) "events equal after continuation"
        (Engine.events_executed (System.engine sys_a))
        (Engine.events_executed (System.engine sys_b)))

(* --- T16/T17: kill-resume soaks through the shared segment runner ------ *)

let journal_of (r : Experiments.soak_result) =
  List.concat_map
    (fun system -> Engine.sanitizer_journal (System.engine system))
    (Array.to_list r.Experiments.soak_systems)

(* One test, one input per soak: [witness] checks that the soak actually
   exercised what its checkpoints must carry. The runner resumes exactly
   when the snapshot path has a file behind it, so the same call shape
   drives the kill leg (no file yet: a fresh start) and the resume leg
   (torn primary: fall back to the previous generation). *)
let test_kill_resume_bit_identical soak witness () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let seed = 42L in
      let kill_at = Experiments.kill_boundary soak in
      let full = Experiments.run_soak ~sanitize:true ~seed soak in
      let killed =
        Experiments.run_soak ~sanitize:true ~seed ~snapshot_path:path ~kill_at
          soak
      in
      Alcotest.(check bool) "missing file starts fresh" true
        (killed.Experiments.soak_restored = None);
      Alcotest.(check int) "killed after the kill boundary" kill_at
        killed.Experiments.soak_segments_run;
      let resumed =
        Experiments.run_soak ~sanitize:true ~seed ~snapshot_path:path soak
      in
      (match resumed.Experiments.soak_restored with
      | Some Snapshot.Previous -> ()
      | Some Snapshot.Primary ->
        Alcotest.fail "torn primary restored instead of rejected"
      | None -> Alcotest.fail "resume leg did not restore");
      Alcotest.(check int64) "digest bit-identical"
        full.Experiments.soak_digest resumed.Experiments.soak_digest;
      Alcotest.(check int) "event count identical" full.Experiments.soak_events
        resumed.Experiments.soak_events;
      Alcotest.(check int64) "virtual clock identical"
        full.Experiments.soak_elapsed resumed.Experiments.soak_elapsed;
      Alcotest.(check string) "final line identical"
        (Experiments.final_line full)
        (Experiments.final_line resumed);
      (* The sanitizer journal — every multi-event tick's observable-state
         hash, restored from the snapshot and extended by the re-run —
         must be bit-identical too, not just the end state. *)
      Alcotest.(check int) "journal length identical"
        (List.length (journal_of full))
        (List.length (journal_of resumed));
      Alcotest.(check bool) "journal bit-identical" true
        (journal_of full = journal_of resumed);
      witness resumed)

(* T16: the breaker actually exercised its crash window along the way. *)
let t16_witness (r : Experiments.soak_result) =
  let nic_dev =
    Lastcpu_devices.Smart_nic.device
      (System.nic r.Experiments.soak_systems.(0) 0)
  in
  Alcotest.(check bool) "breaker opened during the soak" true
    (Device.breaker_opens nic_dev > 0)

(* T17: the re-run barrage quarantined the rogue, and parole left it
   suspect after its stale-token replays. *)
let t17_witness (r : Experiments.soak_result) =
  Alcotest.(check (list (pair string string)))
    "containment outcome"
    [
      ("quarantines", "1"); ("stale", "2"); ("failovers", "1");
      ("trust", "suspect");
    ]
    r.Experiments.soak_extras

let soak id =
  match Experiments.soak_by_id id with
  | Some s -> s
  | None -> Alcotest.failf "no soak %s" id

(* A kill is only reported where a torn checkpoint can exist. Boundaries
   that write no checkpoint — past the last segment, off the cadence,
   zero, past t17's last checkpointable boundary — are rejected before
   any segment runs, so nothing reaches the disk. *)
let test_kill_at_needs_a_checkpoint () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      List.iter
        (fun (id, checkpoint_every, kill_at) ->
          let what =
            Printf.sprintf "%s every %d kill at %d" id checkpoint_every kill_at
          in
          (match
             Experiments.run_soak ~seed:42L ~snapshot_path:path
               ~checkpoint_every ~kill_at (soak id)
           with
          | _ -> Alcotest.failf "%s: accepted" what
          | exception Invalid_argument _ -> ());
          Alcotest.(check bool) (what ^ ": nothing written") false
            (Sys.file_exists path))
        [ ("t16", 1, 9); ("t16", 2, 3); ("t16", 1, 0); ("t17", 1, 3) ];
      match Experiments.run_soak ~seed:42L ~kill_at:1 (soak "t17") with
      | _ -> Alcotest.fail "kill without a snapshot path accepted"
      | exception Invalid_argument _ -> ())

(* A snapshot that is there but cannot be restored fails the run loudly;
   it is never replaced by a fresh start. A kill at a boundary the
   restored run has already passed is rejected too. *)
let test_resume_fails_loudly () =
  let path = temp_snapshot () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a snapshot";
      close_out oc;
      (match
         Experiments.run_soak ~seed:42L ~snapshot_path:path (soak "t17")
       with
      | _ -> Alcotest.fail "unreadable snapshot accepted"
      | exception Invalid_argument _ -> ());
      let ic = open_in_bin path in
      let kept = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file left as it was" "not a snapshot" kept;
      cleanup path;
      ignore
        (Experiments.run_soak ~seed:42L ~snapshot_path:path ~kill_at:2
           (soak "t17"));
      (match
         Experiments.run_soak ~seed:43L ~snapshot_path:path (soak "t17")
       with
      | _ -> Alcotest.fail "snapshot of another seed accepted"
      | exception Invalid_argument _ -> ());
      (* Torn boundary-2 primary: the restore falls back to boundary 1. *)
      match
        Experiments.run_soak ~seed:42L ~snapshot_path:path ~kill_at:1
          (soak "t17")
      with
      | _ -> Alcotest.fail "kill behind the restored boundary accepted"
      | exception Invalid_argument _ -> ())

let () =
  Alcotest.run "snapshot"
    [
      ( "format",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "encode/decode" `Quick test_encode_decode;
          Alcotest.test_case "bit flip rejected" `Quick test_bit_flip_rejected;
          Alcotest.test_case "truncation rejected" `Quick
            test_truncation_rejected;
          Alcotest.test_case "generations and fallback" `Quick
            test_generations_and_fallback;
        ] );
      ( "engine hooks",
        [
          Alcotest.test_case "registry" `Quick test_hook_registry;
          Alcotest.test_case "save requires quiescence" `Quick
            test_save_requires_quiescence;
        ] );
      ( "wal watermark",
        [
          Alcotest.test_case "no double-apply after restore" `Quick
            test_watermark_skips_replayed_prefix;
        ] );
      ( "resume semantics",
        [
          Alcotest.test_case "breaker probe schedule" `Quick
            test_breaker_resumes_probe_schedule;
          Alcotest.test_case "crash-window remainder" `Quick
            test_crash_window_survives_restore;
          Alcotest.test_case "orchestrator mismatches" `Quick
            test_checkpoint_mismatches;
        ] );
      ( "whole machine",
        [
          Alcotest.test_case "full-system roundtrip" `Quick
            test_full_system_roundtrip;
        ] );
      ( "t16",
        [
          Alcotest.test_case "kill-resume bit-identical" `Slow
            (test_kill_resume_bit_identical (soak "t16") t16_witness);
        ] );
      ( "t17",
        [
          Alcotest.test_case "kill-resume bit-identical" `Slow
            (test_kill_resume_bit_identical (soak "t17") t17_witness);
        ] );
      ( "soak runner",
        [
          Alcotest.test_case "kill needs a checkpoint" `Quick
            test_kill_at_needs_a_checkpoint;
          Alcotest.test_case "unrestorable snapshot fails" `Quick
            test_resume_fails_loudly;
        ] );
    ]
