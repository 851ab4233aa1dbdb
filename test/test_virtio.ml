(* Tests for DMA views and split virtqueues. *)

module Types = Lastcpu_proto.Types
module Layout = Lastcpu_mem.Layout
module Physmem = Lastcpu_mem.Physmem
module Iommu = Lastcpu_iommu.Iommu
module Dma = Lastcpu_virtio.Dma
module Vq = Lastcpu_virtio.Virtqueue

let page = Layout.page_size

(* A little rig: one memory, two IOMMUs (driver and device), a shared
   mapping of [pages] pages at [va] for both. *)
let rig ?(pages = 16) ?(va = 0x4000_0000L) ?(pa = 0x10_0000L) () =
  let mem = Physmem.create () in
  let iommu_a = Iommu.create () in
  let iommu_b = Iommu.create () in
  let bytes = Int64.mul (Int64.of_int pages) page in
  (match Iommu.map iommu_a ~pasid:1 ~va ~pa ~bytes ~perm:Types.perm_rw with
  | Ok () -> ()
  | Error e -> failwith e);
  (match Iommu.map iommu_b ~pasid:1 ~va ~pa ~bytes ~perm:Types.perm_rw with
  | Ok () -> ()
  | Error e -> failwith e);
  let dma_a = Dma.create ~iommu:iommu_a ~pasid:1 ~mem in
  let dma_b = Dma.create ~iommu:iommu_b ~pasid:1 ~mem in
  (dma_a, dma_b, va)

(* --- Dma ------------------------------------------------------------------ *)

let test_dma_shared_visibility () =
  let dma_a, dma_b, va = rig () in
  Dma.write_u64 dma_a va 0xCAFEBABEL;
  Alcotest.(check int64) "b sees a's write" 0xCAFEBABEL (Dma.read_u64 dma_b va);
  Dma.write_bytes dma_b (Int64.add va 100L) "hello from b";
  Alcotest.(check string) "a sees b's write" "hello from b"
    (Dma.read_bytes dma_a (Int64.add va 100L) 12)

let test_dma_fault_unmapped () =
  let dma_a, _, _ = rig () in
  match Dma.read_u8 dma_a 0x9999_0000L with
  | _ -> Alcotest.fail "expected fault"
  | exception Dma.Dma_fault f ->
    Alcotest.(check bool) "not mapped" true (f.Iommu.reason = Iommu.Not_mapped)

let test_dma_cross_page () =
  let dma_a, dma_b, va = rig () in
  let addr = Int64.add va (Int64.sub page 3L) in
  let data = String.init 10 (fun i -> Char.chr (65 + i)) in
  Dma.write_bytes dma_a addr data;
  Alcotest.(check string) "straddles pages" data (Dma.read_bytes dma_b addr 10)

let test_dma_u16_u32 () =
  let dma_a, _, va = rig () in
  Dma.write_u16 dma_a va 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Dma.read_u16 dma_a va);
  Dma.write_u32 dma_a (Int64.add va 8L) 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Dma.read_u32 dma_a (Int64.add va 8L))

(* --- DMI grants and invalidation ----------------------------------------- *)

(* map_single: single-page ranges yield a direct view backed by the same
   DRAM the copy path reads. *)
let test_dmi_map_single_view () =
  let dma_a, dma_b, va = rig () in
  Dma.write_bytes dma_a va "direct-map me";
  (match Dma.map_single dma_b ~va ~len:13 ~perm:Iommu.Read with
  | None -> Alcotest.fail "single-page map_single failed"
  | Some v ->
    Alcotest.(check string) "view sees DRAM" "direct-map me"
      (Lastcpu_proto.Slice.to_string v ~pos:0 ~len:13));
  (* Multi-page ranges must decline WITHOUT spending translations: the
     caller's copy-path fallback is then the only translation pass. *)
  let t_before = Dma.accesses dma_b in
  (match
     Dma.map_single dma_b ~va:(Int64.sub (Int64.add va page) 8L) ~len:64
       ~perm:Iommu.Read
   with
  | Some _ -> Alcotest.fail "cross-page map_single should refuse"
  | None -> ());
  Alcotest.(check int) "no translations spent on refusal" t_before
    (Dma.accesses dma_b)

(* Repeated grants hit the host-side cache; unmap (the IOMMU invalidation
   edge every revocation path funnels through) drops them. *)
let test_dmi_grant_cache_and_unmap () =
  let mem = Physmem.create () in
  let iommu = Iommu.create () in
  (match
     Iommu.map iommu ~pasid:7 ~va:0x5000_0000L ~pa:0x40_0000L
       ~bytes:(Int64.mul 4L page) ~perm:Types.perm_rw
   with
  | Ok () -> ()
  | Error e -> failwith e);
  let dma = Dma.create ~iommu ~pasid:7 ~mem in
  let va = 0x5000_0000L in
  (match Dma.map_single dma ~va ~len:256 ~perm:Iommu.Read with
  | None -> Alcotest.fail "grant failed"
  | Some _ -> ());
  let hits0 = Dma.dmi_hits dma in
  (match Dma.map_single dma ~va ~len:256 ~perm:Iommu.Read with
  | None -> Alcotest.fail "re-grant failed"
  | Some _ -> ());
  Alcotest.(check int) "second map is a cache hit" (hits0 + 1)
    (Dma.dmi_hits dma);
  let inv0 = Dma.dmi_invalidations dma in
  ignore (Iommu.unmap iommu ~pasid:7 ~va ~bytes:page);
  Alcotest.(check bool) "unmap dropped cached grants" true
    (Dma.dmi_invalidations dma > inv0);
  (match Dma.map_single dma ~va ~len:256 ~perm:Iommu.Read with
  | exception Dma.Dma_fault f ->
    Alcotest.(check bool) "probe faults like the copy path would" true
      (f.Iommu.reason = Iommu.Not_mapped)
  | Some _ -> Alcotest.fail "grant survived unmap"
  | None -> Alcotest.fail "expected a fault, not a decline")

(* PASID teardown (application exit, epoch revocation, quarantine — all
   end in [clear_pasid]) must drop that PASID's grants and only that
   PASID's. *)
let test_dmi_pasid_teardown () =
  let mem = Physmem.create () in
  let iommu = Iommu.create () in
  let mk pasid pa =
    (match
       Iommu.map iommu ~pasid ~va:0x5000_0000L ~pa ~bytes:page
         ~perm:Types.perm_rw
     with
    | Ok () -> ()
    | Error e -> failwith e);
    Dma.create ~iommu ~pasid ~mem
  in
  let dma7 = mk 7 0x40_0000L in
  let dma8 = mk 8 0x80_0000L in
  let grant dma =
    match Dma.map_single dma ~va:0x5000_0000L ~len:64 ~perm:Iommu.Read with
    | Some _ -> ()
    | None -> Alcotest.fail "grant failed"
  in
  grant dma7;
  grant dma8;
  let inv8 = Dma.dmi_invalidations dma8 in
  Iommu.clear_pasid iommu ~pasid:7;
  Alcotest.(check bool) "pasid 7 grants dropped" true
    (Dma.dmi_invalidations dma7 > 0);
  Alcotest.(check int) "pasid 8 grants untouched" inv8
    (Dma.dmi_invalidations dma8);
  let hits8 = Dma.dmi_hits dma8 in
  grant dma8;
  Alcotest.(check int) "pasid 8 cache still warm" (hits8 + 1)
    (Dma.dmi_hits dma8)

(* --- Virtqueue --------------------------------------------------------------- *)

let test_vq_layout_bytes () =
  let b16 = Vq.layout_bytes ~size:16 in
  (* desc 256 + avail 36 (->256+36=292, pad to 292) + used 132 *)
  Alcotest.(check bool) "positive" true (b16 > 0);
  Alcotest.(check bool) "grows with size" true (Vq.layout_bytes ~size:64 > b16);
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Virtqueue: size must be a power of two in [1, 32768]")
    (fun () -> ignore (Vq.layout_bytes ~size:3))

let test_vq_single_chain () =
  let dma_a, dma_b, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:8 in
  let buf_va = Int64.add va 8192L in
  Dma.write_bytes dma_a buf_va "request!";
  let head =
    match
      Vq.Driver.add driver
        [
          { Vq.va = buf_va; len = 8; writable = false };
          { Vq.va = Int64.add buf_va 64L; len = 32; writable = true };
        ]
    with
    | Ok h -> h
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "pending" 1 (Vq.Device.pending device);
  (match Vq.Device.pop device with
  | None -> Alcotest.fail "expected chain"
  | Some { Vq.Device.head = h; buffers } ->
    Alcotest.(check int) "head matches" head h;
    Alcotest.(check int) "two buffers" 2 (List.length buffers);
    (match buffers with
    | [ b1; b2 ] ->
      Alcotest.(check bool) "first read-only" false b1.Vq.writable;
      Alcotest.(check bool) "second writable" true b2.Vq.writable;
      Alcotest.(check string) "device reads request" "request!"
        (Dma.read_bytes dma_b b1.Vq.va b1.Vq.len);
      Dma.write_bytes dma_b b2.Vq.va "response"
    | _ -> Alcotest.fail "bad chain");
    Vq.Device.push_used device ~head:h ~written:8);
  match Vq.Driver.poll_used driver with
  | Some (h, written) ->
    Alcotest.(check int) "completion head" head h;
    Alcotest.(check int) "written" 8 written;
    Alcotest.(check string) "driver reads response" "response"
      (Dma.read_bytes dma_a (Int64.add buf_va 64L) 8)
  | None -> Alcotest.fail "expected completion"

let test_vq_descriptor_exhaustion_and_recycle () =
  let dma_a, dma_b, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:4 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:4 in
  let buf i = { Vq.va = Int64.add va (Int64.of_int (8192 + (i * 64))); len = 8; writable = false } in
  let heads =
    List.filter_map
      (fun i -> Result.to_option (Vq.Driver.add driver [ buf i ]))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "four posted" 4 (List.length heads);
  (match Vq.Driver.add driver [ buf 9 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "exhaustion not detected");
  (* Device completes everything. *)
  let rec drain () =
    match Vq.Device.pop device with
    | Some { Vq.Device.head; _ } ->
      Vq.Device.push_used device ~head ~written:0;
      drain ()
    | None -> ()
  in
  drain ();
  let rec reap n = match Vq.Driver.poll_used driver with Some _ -> reap (n + 1) | None -> n in
  Alcotest.(check int) "four completions" 4 (reap 0);
  Alcotest.(check int) "all free again" 4 (Vq.Driver.num_free driver);
  (* And we can post again after recycling. *)
  match Vq.Driver.add driver [ buf 5 ] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("recycle failed: " ^ e)

let test_vq_ordering_rule () =
  let dma_a, _, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
  match
    Vq.Driver.add driver
      [
        { Vq.va = Int64.add va 8192L; len = 8; writable = true };
        { Vq.va = Int64.add va 8300L; len = 8; writable = false };
      ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "readable-after-writable accepted"

let test_vq_many_roundtrips_wraparound () =
  let dma_a, dma_b, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:4 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:4 in
  let buf = { Vq.va = Int64.add va 8192L; len = 4; writable = false } in
  (* Many more round trips than the queue size: exercises 16-bit index
     wrap behaviour. *)
  for i = 1 to 300 do
    (match Vq.Driver.add driver [ buf ] with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Printf.sprintf "add %d: %s" i e));
    (match Vq.Device.pop device with
    | Some { Vq.Device.head; _ } -> Vq.Device.push_used device ~head ~written:i
    | None -> Alcotest.fail (Printf.sprintf "pop %d: empty" i));
    match Vq.Driver.poll_used driver with
    | Some (_, written) -> Alcotest.(check int) "written echoes i" i written
    | None -> Alcotest.fail (Printf.sprintf "poll %d: empty" i)
  done

let test_vq_indirect_descriptors () =
  let dma_a, dma_b, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:4 in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size:4 in
  (* A 6-segment chain through a 4-deep queue: only possible indirectly. *)
  let seg i writable =
    { Vq.va = Int64.add va (Int64.of_int (16384 + (i * 256))); len = 32; writable }
  in
  let chain = [ seg 0 false; seg 1 false; seg 2 false; seg 3 true; seg 4 true; seg 5 true ] in
  let table_va = Int64.add va 32768L in
  Dma.write_bytes dma_a (seg 0 false).Vq.va "indirect!";
  let head =
    match Vq.Driver.add_indirect driver ~table_va chain with
    | Ok h -> h
    | Error e -> Alcotest.fail e
  in
  (* Only one ring descriptor consumed. *)
  Alcotest.(check int) "one slot used" 3 (Vq.Driver.num_free driver);
  (match Vq.Device.pop device with
  | None -> Alcotest.fail "expected chain"
  | Some { Vq.Device.head = h; buffers } ->
    Alcotest.(check int) "head" head h;
    Alcotest.(check int) "six segments" 6 (List.length buffers);
    Alcotest.(check (list bool)) "writability preserved"
      [ false; false; false; true; true; true ]
      (List.map (fun (b : Vq.buffer) -> b.Vq.writable) buffers);
    (match buffers with
    | first :: _ ->
      Alcotest.(check string) "device reads through indirect" "indirect!"
        (Dma.read_bytes dma_b first.Vq.va 9)
    | [] -> Alcotest.fail "empty");
    Vq.Device.push_used device ~head:h ~written:0);
  (match Vq.Driver.poll_used driver with
  | Some (h, _) -> Alcotest.(check int) "completion" head h
  | None -> Alcotest.fail "no completion");
  Alcotest.(check int) "slot recycled" 4 (Vq.Driver.num_free driver)

let test_vq_empty_chain_rejected () =
  let dma_a, _, va = rig () in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
  match Vq.Driver.add driver [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty chain accepted"

(* Property: the queue behaves like a FIFO against a reference model under
   random interleavings of add / device-drain / driver-reap. *)
let vq_model_prop =
  QCheck.Test.make ~name:"virtqueue matches FIFO model" ~count:100
    QCheck.(list (int_bound 2))
    (fun script ->
      let dma_a, dma_b, va = rig () in
      let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size:8 in
      let device = Vq.Device.create ~dma:dma_b ~base:va ~size:8 in
      let model_posted = Queue.create () in
      let model_done = Queue.create () in
      let counter = ref 0 in
      let ok = ref true in
      List.iter
        (fun action ->
          match action with
          | 0 ->
            (* Driver posts a 1-segment chain tagged with a counter. *)
            incr counter;
            let buf =
              { Vq.va = Int64.add va (Int64.of_int (8192 + (64 * (!counter mod 64))));
                len = !counter; writable = false }
            in
            (match Vq.Driver.add driver [ buf ] with
            | Ok head -> Queue.push (head, !counter) model_posted
            | Error _ ->
              (* Full: model must also be at capacity. *)
              if Queue.length model_posted + Queue.length model_done < 8 then
                ok := false)
          | 1 -> (
            (* Device consumes one chain; it must be the model's oldest. *)
            match Vq.Device.pop device with
            | None -> if not (Queue.is_empty model_posted) then ok := false
            | Some { Vq.Device.head; buffers } -> (
              match Queue.pop model_posted with
              | exception Queue.Empty -> ok := false
              | mhead, tag ->
                if head <> mhead then ok := false;
                (match buffers with
                | [ b ] -> if b.Vq.len <> tag then ok := false
                | _ -> ok := false);
                Vq.Device.push_used device ~head ~written:tag;
                Queue.push (head, tag) model_done))
          | _ -> (
            (* Driver reaps one completion; must be the oldest completed. *)
            match Vq.Driver.poll_used driver with
            | None -> if not (Queue.is_empty model_done) then ok := false
            | Some (head, written) -> (
              match Queue.pop model_done with
              | exception Queue.Empty -> ok := false
              | mhead, tag -> if head <> mhead || written <> tag then ok := false)))
        script;
      !ok)

(* --- Drain ------------------------------------------------------------------ *)

(* Device.drain must behave exactly like a pop/push_used loop: same
   completions, same order, one call. *)
let test_vq_drain_batched () =
  let dma_a, dma_b, va = rig ~pages:32 () in
  let size = 8 in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size in
  let device = Vq.Device.create ~dma:dma_b ~base:va ~size in
  let slot i =
    Int64.add va (Int64.of_int ((8 * 4096) + (i * 4096)))
  in
  for i = 0 to 3 do
    match
      Vq.Driver.add driver
        [
          { Vq.va = slot i; len = 100 + i; writable = false };
          { Vq.va = Int64.add (slot i) 2048L; len = 512; writable = true };
        ]
    with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  let served = ref [] in
  let n =
    Vq.Device.drain device ~f:(fun { Vq.Device.buffers; _ } ->
        match buffers with
        | [ req; _resp ] ->
          served := req.Vq.len :: !served;
          req.Vq.len * 2
        | _ -> Alcotest.fail "unexpected chain shape")
  in
  Alcotest.(check int) "drained all four" 4 n;
  Alcotest.(check (list int)) "service order" [ 100; 101; 102; 103 ]
    (List.rev !served);
  let rec collect acc =
    match Vq.Driver.poll_used driver with
    | None -> List.rev acc
    | Some (_, written) -> collect (written :: acc)
  in
  Alcotest.(check (list int)) "completion order and written counts"
    [ 200; 202; 204; 206 ] (collect []);
  Alcotest.(check int) "ring fully recycled" size (Vq.Driver.num_free driver)

let () =
  Alcotest.run "virtio"
    [
      ( "dma",
        [
          Alcotest.test_case "shared visibility" `Quick test_dma_shared_visibility;
          Alcotest.test_case "fault on unmapped" `Quick test_dma_fault_unmapped;
          Alcotest.test_case "cross page" `Quick test_dma_cross_page;
          Alcotest.test_case "u16/u32" `Quick test_dma_u16_u32;
        ] );
      ( "virtqueue",
        [
          Alcotest.test_case "layout bytes" `Quick test_vq_layout_bytes;
          Alcotest.test_case "single chain roundtrip" `Quick test_vq_single_chain;
          Alcotest.test_case "exhaustion and recycle" `Quick
            test_vq_descriptor_exhaustion_and_recycle;
          Alcotest.test_case "ordering rule" `Quick test_vq_ordering_rule;
          Alcotest.test_case "index wraparound" `Quick test_vq_many_roundtrips_wraparound;
          Alcotest.test_case "indirect descriptors" `Quick test_vq_indirect_descriptors;
          Alcotest.test_case "empty chain rejected" `Quick test_vq_empty_chain_rejected;
          QCheck_alcotest.to_alcotest vq_model_prop;
        ] );
      ( "dmi",
        [
          Alcotest.test_case "map_single view" `Quick test_dmi_map_single_view;
          Alcotest.test_case "grant cache + unmap" `Quick
            test_dmi_grant_cache_and_unmap;
          Alcotest.test_case "pasid teardown" `Quick test_dmi_pasid_teardown;
        ] );
      ( "drain",
        [
          Alcotest.test_case "batched drain equals pop/push loop" `Quick
            test_vq_drain_batched;
        ] );
    ]
