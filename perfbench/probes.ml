(* Layer probes: host ns per call into one layer's public function, with
   inputs shaped like the workload's (value size, op mix). They cover the
   shapes of the rows of bench/main.ml's micro and core suites
   (schedule->pop, bus route with trace on and off, token verify, codec,
   translate hit and walk, virtqueue drain, physmem read; snapshot
   save/restore is timed on the workload's own machine), so those suites
   can be retired without losing coverage.

   Each probe runs [batches] batches and reports the fastest batch's ns per
   call (interference only slows a batch; see [best_ops_per_s] in main.ml);
   every batch is a span. *)

module Types = Lastcpu_proto.Types
module Message = Lastcpu_proto.Message
module Codec = Lastcpu_proto.Codec
module Token = Lastcpu_proto.Token
module Engine = Lastcpu_sim.Engine
module Sysbus = Lastcpu_bus.Sysbus
module Iommu = Lastcpu_iommu.Iommu
module Pagetable = Lastcpu_iommu.Pagetable
module Physmem = Lastcpu_mem.Physmem
module Buddy = Lastcpu_mem.Buddy
module Vq = Lastcpu_virtio.Virtqueue
module Dma = Lastcpu_virtio.Dma
module Fs = Lastcpu_fs.Fs
module Ftl = Lastcpu_flash.Ftl
module Store = Lastcpu_kv.Store
module Kv_proto = Lastcpu_kv.Kv_proto
module Netsim = Lastcpu_net.Netsim

type shape = { value_bytes : int; put_share : float }

(* Op counts are divided by this (the smoke test runs small). *)
let scale = ref 1
let n calls = max 1 (calls / !scale)

type t = {
  schedule_pop_ns : float;
  codec_roundtrip_ns : float;
  token_verify_ns : float;
  route_ns : float;
  route_minor_words : float;
  route_events : float;  (** engine events per routed message *)
  route_trace_off_ns : float;
  route_trace_off_minor_words : float;
  physmem_read_4k_ns : float;
  buddy_alloc_free_ns : float;
  translate_hit_ns : float;
  walk_ns : float;
  map_unmap_ns : float;
  vq_chain_ns : float;
  fs_write_4k_ns : float;
  fs_blocks_per_write : float;  (** FS block writes per 4 KiB file write *)
  ftl_write_ns : float;
  store_put_get_ns : float;
  kv_proto_roundtrip_ns : float;
  net_frame_ns : float;
  net_frame_events : float;  (** engine events per delivered frame *)
}

let batches = 7

let ok_or_fail what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* [run_batch ()] performs [calls] calls; the result is ns per call. *)
let measure ?b ~name ~calls run_batch =
  Array.fold_left Float.min infinity
    (Array.init batches (fun _ ->
         let (), s = Span.timed ?b ~name ~cat:"probe" (fun () -> run_batch ()) in
         s *. 1e9 /. float_of_int calls))

let repeat n f = for _ = 1 to n do f () done

let key = 0xFEEDL

let token =
  Token.mint ~key ~issuer:1 ~subject:2 ~pasid:3 ~resource:"dram" ~base:0x1000L
    ~length:4096L ~perm:Types.perm_rw ~nonce:9L ()

(* The control message every alloc turns into. *)
let map_directive =
  Message.make ~src:1 ~dst:Types.Bus ~corr:42
    (Message.Map_directive
       {
         device = 2;
         pasid = 3;
         va = 0x6000_0000L;
         pa = 0x1000_0000L;
         bytes = 4096L;
         perm = Types.perm_rw;
         auth = token;
       })

(* Self-rescheduling wave of 8 events on a trace-off engine: the cost of
   the queue machinery alone. *)
let schedule_pop ?b () =
  let events = n 200_000 in
  measure ?b ~name:"sim.probe.schedule_pop" ~calls:events (fun () ->
      let engine = Engine.create ~trace_capacity:0 ~queue_hint:64 () in
      let remaining = ref (events - 8) in
      let rec ping () =
        if !remaining > 0 then begin
          decr remaining;
          Engine.schedule engine ~delay:1L ping
        end
      in
      repeat 8 (fun () -> Engine.schedule engine ~delay:1L ping);
      Engine.run engine)

(* One message through the bus (hop + station + hop), as the workloads'
   engines run it (trace retained) and with the trace off. *)
let route ?b ~trace () =
  let engine =
    if trace then Engine.create ~queue_hint:16 ()
    else Engine.create ~trace_capacity:0 ~queue_hint:16 ()
  in
  let bus = Sysbus.create engine in
  let iommu = Iommu.create () in
  let a = Sysbus.attach bus ~name:"a" ~iommu ~handler:ignore in
  let d = Sysbus.attach bus ~name:"b" ~iommu ~handler:ignore in
  List.iter
    (fun src ->
      Sysbus.send bus
        (Message.make ~src ~dst:Types.Bus ~corr:0 (Message.Device_alive { services = [] })))
    [ a; d ];
  Engine.run engine;
  let msgs = n 20_000 in
  let batch () =
    repeat msgs (fun () ->
        Sysbus.send bus (Message.make ~src:a ~dst:(Types.Device d) ~corr:0 Message.Heartbeat);
        Engine.run engine)
  in
  let w0 = Gc.minor_words () and e0 = Engine.events_executed engine in
  batch ();
  let words = (Gc.minor_words () -. w0) /. float_of_int msgs in
  let events = float_of_int (Engine.events_executed engine - e0) /. float_of_int msgs in
  let name = if trace then "bus.probe.route" else "bus.probe.route_trace_off" in
  (measure ?b ~name ~calls:msgs batch, words, events)

let physmem_read ?b () =
  let mem = Physmem.create () in
  Physmem.write_bytes mem 0x10_0000L (String.make 4096 'x');
  let calls = n 20_000 in
  measure ?b ~name:"mem.probe.physmem_read_4k" ~calls (fun () ->
      repeat calls (fun () -> ignore (Physmem.read_bytes mem 0x10_0000L 4096)))

let buddy ?b () =
  let t = Buddy.create ~base:0L ~pages:4096 in
  let calls = n 20_000 in
  measure ?b ~name:"mem.probe.buddy_alloc_free" ~calls (fun () ->
      repeat calls (fun () ->
          match Buddy.alloc t ~pages:1 with
          | Some addr -> Buddy.free t ~addr ~pages:1
          | None -> failwith "buddy probe: exhausted"))

let iommu ?b () =
  let mmu = Iommu.create () in
  ok_or_fail "iommu probe"
    (Iommu.map mmu ~pasid:1 ~va:0x4000_0000L ~pa:0x1000L ~bytes:4096L ~perm:Types.perm_rw);
  let calls = n 200_000 in
  let hit =
    measure ?b ~name:"iommu.probe.translate_hit" ~calls (fun () ->
        repeat calls (fun () ->
            ignore (Iommu.translate mmu ~pasid:1 ~va:0x4000_0000L ~access:Iommu.Read)))
  in
  let pt = Pagetable.create () in
  ok_or_fail "pagetable probe" (Pagetable.map pt ~va:0x4000_0000L ~pa:0x1000L ~perm:Types.perm_rw);
  let walk =
    measure ?b ~name:"iommu.probe.walk" ~calls (fun () ->
        repeat calls (fun () -> ignore (Pagetable.walk pt ~va:0x4000_0000L ~access:Types.perm_r)))
  in
  let mu_calls = n 50_000 in
  let map_unmap =
    measure ?b ~name:"iommu.probe.map_unmap" ~calls:mu_calls (fun () ->
        repeat mu_calls (fun () ->
            ok_or_fail "map probe"
              (Iommu.map mmu ~pasid:2 ~va:0x6000_0000L ~pa:0x2000L ~bytes:4096L
                 ~perm:Types.perm_rw);
            ignore (Iommu.unmap mmu ~pasid:2 ~va:0x6000_0000L ~bytes:4096L)))
  in
  (hit, walk, map_unmap)

(* A driver posts 64 two-segment chains; the device drains them in one
   call; the driver reaps the used ring. ns per chain. *)
let vq_chain ?b () =
  let mem = Physmem.create () in
  let mmu = Iommu.create () in
  let base = 0x4000_0000L in
  ok_or_fail "vq probe"
    (Iommu.map mmu ~pasid:1 ~va:base ~pa:0x10_0000L ~bytes:(Int64.of_int (256 * 4096))
       ~perm:Types.perm_rw);
  let dma = Dma.create ~iommu:mmu ~pasid:1 ~mem in
  let driver = Vq.Driver.create ~dma ~base ~size:256 in
  let device = Vq.Device.create ~dma ~base ~size:256 in
  let slots = Int64.add base 0x8_0000L in
  let batch = 64 and rounds = n 100 in
  measure ?b ~name:"virtio.probe.vq_chain" ~calls:(batch * rounds) (fun () ->
      repeat rounds (fun () ->
          for i = 0 to batch - 1 do
            let va = Int64.add slots (Int64.of_int (i * 4096)) in
            ignore
              (ok_or_fail "vq add"
                 (Vq.Driver.add driver
                    [
                      { Vq.va; len = 512; writable = false };
                      { Vq.va = Int64.add va 2048L; len = 512; writable = true };
                    ]))
          done;
          if Vq.Device.drain device ~f:(fun _ -> 512) <> batch then
            failwith "vq probe: drain count";
          while Vq.Driver.poll_used driver <> None do () done))

let fs_error what r = Result.map_error (fun e -> what ^ ": " ^ Fs.error_to_string e) r

(* Steady-state FTL: every physical page written once before timing, so
   garbage collection runs inside the measured writes. *)
let ftl_write ?b () =
  let ftl = Ftl.create () in
  let page = String.make (Ftl.page_size ftl) 'f' in
  let span = 4096 in
  let lpn = ref 0 in
  let write () =
    ok_or_fail "ftl probe" (Ftl.write ftl ~lpn:!lpn page);
    lpn := (!lpn + 1) mod span
  in
  repeat (Ftl.logical_pages ftl) write;
  let calls = n 5_000 in
  measure ?b ~name:"flash.probe.ftl_write" ~calls (fun () -> repeat calls write)

(* A 4 KiB write into one file of a formatted FS over its own FTL. It
   includes the FTL writes underneath, and writes more than one block
   (data plus metadata): the block writes per call are counted too. *)
let fs_write ?b () =
  let reg = Lastcpu_sim.Metrics.create () in
  let fs =
    ok_or_fail "fs probe" (fs_error "format" (Fs.format ~metrics:reg ~actor:"fs" (Ftl.create ())))
  in
  ok_or_fail "fs probe" (fs_error "create" (Fs.create fs ~user:"root" "/f"));
  let block = String.make 4096 'b' in
  let off = ref 0 in
  let calls = n 2_000 in
  let blocks () = Lastcpu_sim.Metrics.counter_read reg ~actor:"fs" ~name:"block_writes" in
  let b0 = blocks () in
  let ns =
    measure ?b ~name:"fs.probe.write_4k" ~calls (fun () ->
        repeat calls (fun () ->
            ok_or_fail "fs probe"
              (fs_error "write" (Fs.write fs ~user:"root" "/f" ~off:!off block));
            off := (!off + 4096) mod (64 * 4096)))
  in
  (ns, float_of_int (blocks () - b0) /. float_of_int (batches * calls))

(* The memory backend keeps its whole log, so each batch gets a fresh store
   and at most 16 MiB of values. *)
let store_put_get ?b shape =
  let value = String.make shape.value_bytes 'v' in
  let keys = Array.init 256 (Printf.sprintf "key-%06d") in
  let i = ref 0 in
  let calls = n (min 50_000 ((16 lsl 20) / max 1 shape.value_bytes)) in
  measure ?b ~name:"kv.probe.store_put_get" ~calls (fun () ->
      let store = Store.create (Store.memory_backend ()) in
      repeat calls (fun () ->
          let key = keys.(!i land 255) in
          incr i;
          Store.put store ~key ~value ignore;
          Store.get store key ignore))

(* Request and response encode + decode, Put and Get in the workload's
   mix (every 1/put_share-th roundtrip a Put). *)
let kv_proto_roundtrip ?b shape =
  let value = String.make shape.value_bytes 'v' in
  let every = if shape.put_share <= 0. then max_int else int_of_float (1. /. shape.put_share) in
  let i = ref 0 in
  let calls = n 100_000 in
  measure ?b ~name:"kv.probe.kv_proto_roundtrip" ~calls (fun () ->
      repeat calls (fun () ->
          incr i;
          let op, reply =
            if !i mod every = 0 then (Kv_proto.Put ("key-000042", value), Kv_proto.Done)
            else (Kv_proto.Get "key-000042", Kv_proto.Value (Some value))
          in
          ignore (Kv_proto.decode_request (Kv_proto.encode_request { Kv_proto.corr = !i; op }));
          ignore
            (Kv_proto.decode_response (Kv_proto.encode_response { Kv_proto.corr = !i; reply }))))

(* One value-sized frame across the simulated switch, delivered. *)
let net_frame ?b shape =
  let engine = Engine.create () in
  let net = Netsim.create engine in
  let a = Netsim.endpoint net ~name:"a" and d = Netsim.endpoint net ~name:"b" in
  Netsim.set_receiver d (fun ~src:_ _ -> ());
  let frame = String.make (shape.value_bytes + 16) 'n' in
  let calls = n 20_000 in
  let batch () =
    repeat calls (fun () ->
        Netsim.send a ~dst:(Netsim.address d) frame;
        Engine.run engine)
  in
  let e0 = Engine.events_executed engine in
  batch ();
  let events = float_of_int (Engine.events_executed engine - e0) /. float_of_int calls in
  (measure ?b ~name:"net.probe.frame" ~calls batch, events)

let run ?b shape =
  let schedule_pop_ns = schedule_pop ?b () in
  let calls = n 50_000 in
  let codec_roundtrip_ns =
    measure ?b ~name:"proto.probe.codec_roundtrip" ~calls (fun () ->
        repeat calls (fun () -> ignore (Codec.decode (Codec.encode map_directive))))
  in
  let calls = n 200_000 in
  let token_verify_ns =
    measure ?b ~name:"proto.probe.token_verify" ~calls (fun () ->
        repeat calls (fun () -> ignore (Token.verify ~key token)))
  in
  let route_ns, route_minor_words, route_events = route ?b ~trace:true () in
  let route_trace_off_ns, route_trace_off_minor_words, _ = route ?b ~trace:false () in
  let translate_hit_ns, walk_ns, map_unmap_ns = iommu ?b () in
  let net_frame_ns, net_frame_events = net_frame ?b shape in
  let fs_write_4k_ns, fs_blocks_per_write = fs_write ?b () in
  {
    schedule_pop_ns;
    codec_roundtrip_ns;
    token_verify_ns;
    route_ns;
    route_minor_words;
    route_events;
    route_trace_off_ns;
    route_trace_off_minor_words;
    physmem_read_4k_ns = physmem_read ?b ();
    buddy_alloc_free_ns = buddy ?b ();
    translate_hit_ns;
    walk_ns;
    map_unmap_ns;
    vq_chain_ns = vq_chain ?b ();
    fs_write_4k_ns;
    fs_blocks_per_write;
    ftl_write_ns = ftl_write ?b ();
    store_put_get_ns = store_put_get ?b shape;
    kv_proto_roundtrip_ns = kv_proto_roundtrip ?b shape;
    net_frame_ns;
    net_frame_events;
  }
