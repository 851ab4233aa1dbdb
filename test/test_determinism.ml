(* Determinism-equivalence goldens.

   The simulation's observable behaviour is pinned to exact 64-bit values:
   the metrics digest of a full run and a hash of the complete sanitizer
   journal (times, event labels and per-tick state hashes) for the three
   soak experiments, all at the default seed. Hot-path work — lazy event
   labels, heap tuning, queue pre-sizing, streaming frame hashes — must
   keep every value bit-identical; a mismatch here means an "optimisation"
   changed what the simulation computes, not just how fast.

   The goldens were captured before the hot-path rewrite, so they also
   prove the rewrite itself preserved behaviour.

   The second half pins the streaming-hash contract: hashing a frame's
   bytes incrementally (the Sanitizer fnv fold) must equal hashing the formatted
   description string, for both the digest seed and the fault-key seed —
   that equivalence is what lets the hot path skip formatting entirely. *)

module Engine = Lastcpu_sim.Engine
module Sanitizer = Lastcpu_sim.Sanitizer
module Faults = Lastcpu_sim.Faults
module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Token = Lastcpu_proto.Token
module Sysbus = Lastcpu_bus.Sysbus
module Experiments = Lastcpu_core.Experiments
module Metrics = Lastcpu_sim.Metrics
module System = Lastcpu_core.System
module Scenario = Lastcpu_core.Scenario_kvs
module Netsim = Lastcpu_net.Netsim
module Smart_nic = Lastcpu_devices.Smart_nic
module Kv_proto = Lastcpu_kv.Kv_proto

(* --- golden digests and journals --------------------------------------- *)

(* One value per journal: fold times, labels and state hashes in order.
   Labels are folded through [hash_string], so a renamed or reordered
   event label changes the journal hash even if state digests agree. *)
let journal_hash j =
  List.fold_left
    (fun acc (t : Sanitizer.tick) ->
      let acc = Sanitizer.combine acc t.time in
      let acc =
        List.fold_left
          (fun a l -> Sanitizer.combine a (Sanitizer.hash_string 0L l))
          acc t.labels
      in
      Sanitizer.combine acc t.state_hash)
    0x6a6f75726e616cL (* "journal" *) j

(* Captured at seed 42 from the pre-optimisation engine. *)
let goldens =
  [
    ("t1", 0xde0dcbcf04df9998L, 202, 0x4bdb7734e7ce6b01L);
    ("t13", 0xc8c4e7e092b9eb73L, 439, 0xe5aec6262c682bfeL);
    ("t14", 0xd41705e6968ba68aL, 210, 0x6e6cd61ce412f0a2L);
  ]

let test_metrics_digest exp expected () =
  Alcotest.(check int64)
    (exp ^ " metrics digest") expected
    (Experiments.metrics_digest ~exp ~seed:42L)

let test_journal exp expected_len expected_hash () =
  let j = Experiments.sanitize_journal ~exp ~seed:42L ~tie:Engine.Fifo in
  Alcotest.(check int) (exp ^ " journal length") expected_len (List.length j);
  Alcotest.(check int64) (exp ^ " journal hash") expected_hash (journal_hash j)

(* Distinct seeds must not collide on the digest (guards against the
   digest degenerating into a constant). T13 is the seeded chaos soak, so
   its digest must move with the seed; T1 uses no randomness and is
   legitimately seed-independent. *)
let test_seed_sensitivity () =
  Alcotest.(check bool)
    "different seeds give different digests" true
    (Experiments.metrics_digest ~exp:"t13" ~seed:42L
    <> Experiments.metrics_digest ~exp:"t13" ~seed:43L)

(* The data plane end to end: one closed-loop remote client pushes 150
   Put/Get pairs of 4 KiB values through the NIC fast path into the
   SSD-backed store (WAL append -> virtqueue -> NAND) and reads them back.
   Every reply must be the expected one, and the registry digest is pinned:
   the zero-copy fast paths may change host time, never modeled
   behaviour. *)
let kv_put_get_golden = 0x6979563eaf5f2982L

let test_kv_put_get_digest () =
  let value = String.make 4096 'z' in
  let ops = 150 * 2 in
  match Scenario.run ~smoke_ops:0 () with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let system = outcome.Scenario.system in
    let app_addr = Smart_nic.endpoint_address (System.nic system 0) in
    let ep = Netsim.endpoint (System.net system) ~name:"bench-client" in
    let sent = ref 0 and completed = ref 0 in
    let send_next () =
      if !sent < ops then begin
        let corr = !sent in
        incr sent;
        let key = Printf.sprintf "bench-%04d" (corr / 2) in
        let op =
          if corr land 1 = 0 then Kv_proto.Put (key, value)
          else Kv_proto.Get key
        in
        Netsim.send ep ~dst:app_addr
          (Kv_proto.encode_request { Kv_proto.corr; op })
      end
    in
    Netsim.set_receiver ep (fun ~src:_ frame ->
        match Kv_proto.decode_response frame with
        | Error e -> Alcotest.fail e
        | Ok { Kv_proto.corr; reply } ->
          (match reply with
          | Kv_proto.Done when corr land 1 = 0 -> ()
          | Kv_proto.Value (Some v) when corr land 1 = 1 && v = value -> ()
          | _ -> Alcotest.failf "op %d: unexpected reply" corr);
          incr completed;
          send_next ());
    send_next ();
    System.run_until_quiescent system;
    Alcotest.(check int) "every op answered" ops !completed;
    Alcotest.(check int64)
      "kv.put-get metrics digest" kv_put_get_golden
      (Metrics.digest (Engine.metrics (System.engine system)))

(* --- streaming-hash contract ------------------------------------------- *)

let sample_token =
  Token.mint ~key:0xFEEDL ~issuer:1 ~subject:2 ~pasid:3 ~resource:"dram"
    ~base:0x1000L ~length:65536L ~perm:Types.perm_rw ~nonce:9L ()

let sample_messages =
  [
    Message.make ~src:1 ~dst:Types.Bus ~corr:0 Message.Heartbeat;
    Message.make ~src:12 ~dst:(Types.Device 3) ~corr:7
      (Message.Error_msg { code = Types.E_busy; detail = "lane full" });
    Message.make ~src:255 ~dst:Types.Broadcast ~corr:1
      (Message.Device_alive { services = [] });
    Message.make ~src:1 ~dst:Types.Bus ~corr:42
      (Message.Map_directive
         {
           device = 2;
           pasid = 3;
           va = 0x4000_0000L;
           pa = 0x1000_0000L;
           bytes = 65536L;
           perm = Types.perm_rw;
           auth = sample_token;
         });
  ]

let test_frame_hash_equivalence () =
  List.iter
    (fun msg ->
      let desc = Sysbus.frame_desc msg in
      Alcotest.(check int64)
        ("frame_hash = hash_string(frame_desc) for " ^ desc)
        (Sanitizer.hash_string Sysbus.frame_digest_seed desc)
        (Sysbus.frame_hash msg);
      Alcotest.(check int64)
        ("frame_key = Faults.key_of_string(frame_desc) for " ^ desc)
        (Faults.key_of_string desc) (Sysbus.frame_key msg))
    sample_messages

(* [fnv_int] renders the decimal digits of its argument; it must agree
   with formatting via %d for every shape of int, including min_int. *)
let test_fnv_int_equivalence () =
  List.iter
    (fun n ->
      Alcotest.(check int64)
        (Printf.sprintf "fnv_int %d = fnv_string %S" n (string_of_int n))
        (Sanitizer.fnv_string (Sanitizer.fnv_init 0L) (string_of_int n))
        (Sanitizer.fnv_int (Sanitizer.fnv_init 0L) n))
    [ 0; 1; 9; 10; 42; 4095; max_int; -1; -10; -4096; min_int ]

let test_streaming_split_equivalence () =
  let s = "bus:12>dev3:error" in
  let streamed =
    Sanitizer.fnv_finish
      (Sanitizer.fnv_string
         (Sanitizer.fnv_char
            (Sanitizer.fnv_string (Sanitizer.fnv_init 5L) "bus:12")
            '>')
         "dev3:error")
  in
  Alcotest.(check int64)
    "piecewise streaming equals whole-string hash"
    (Sanitizer.hash_string 5L s) streamed

let () =
  Alcotest.run "determinism"
    [
      ( "goldens",
        List.concat_map
          (fun (exp, digest, len, jhash) ->
            [
              Alcotest.test_case (exp ^ " digest") `Slow
                (test_metrics_digest exp digest);
              Alcotest.test_case (exp ^ " journal") `Slow
                (test_journal exp len jhash);
            ])
          goldens
        @ [
            Alcotest.test_case "seed sensitivity" `Slow test_seed_sensitivity;
            Alcotest.test_case "kv.put-get digest" `Slow test_kv_put_get_digest;
          ]
      );
      ( "streaming-hash",
        [
          Alcotest.test_case "frame hash/key" `Quick test_frame_hash_equivalence;
          Alcotest.test_case "fnv_int" `Quick test_fnv_int_equivalence;
          Alcotest.test_case "piecewise fold" `Quick
            test_streaming_split_equivalence;
        ] );
    ]
