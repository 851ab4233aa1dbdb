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

(* --- Hostile device, counter parity ------------------------------------ *)

(* The used ring is device-written: a driver must not index its tables
   with whatever id the device wrote there. *)
let test_vq_poll_used_drops_foreign_ids () =
  let dma_a, dma_b, va = rig () in
  let size = 4 in
  let driver = Vq.Driver.create ~dma:dma_a ~base:va ~size in
  let buf i = { Vq.va = Int64.add va (Int64.of_int (8192 + (64 * i))); len = 8; writable = false } in
  let post i =
    match Vq.Driver.add driver [ buf i ] with Ok h -> h | Error e -> Alcotest.fail e
  in
  let h0 = post 0 and h1 = post 1 in
  (* A hostile device writes four used entries: an out-of-range id, a
     real completion, that completion again, and another real one. *)
  let used_off = ((16 * size) + 4 + (2 * size) + 3) land lnot 3 in
  let entry i ~id ~len =
    let off = Int64.add va (Int64.of_int (used_off + 4 + (8 * i))) in
    Dma.write_u32 dma_b off id;
    Dma.write_u32 dma_b (Int64.add off 4L) len
  in
  entry 0 ~id:7 ~len:1;
  entry 1 ~id:h0 ~len:5;
  entry 2 ~id:h0 ~len:6;
  entry 3 ~id:h1 ~len:3;
  Dma.write_u16 dma_b (Int64.add va (Int64.of_int (used_off + 2))) 4;
  let dropped = ref [] in
  let poll () = Vq.Driver.poll_used ~on_drop:(fun id -> dropped := id :: !dropped) driver in
  Alcotest.(check (option (pair int int))) "first real completion" (Some (h0, 5)) (poll ());
  Alcotest.(check (option (pair int int))) "repeat skipped" (Some (h1, 3)) (poll ());
  Alcotest.(check (option (pair int int))) "ring empty" None (poll ());
  Alcotest.(check (list int)) "dropped ids" [ 7; h0 ] (List.rev !dropped);
  Alcotest.(check int) "descriptors recycled once" size (Vq.Driver.num_free driver);
  Alcotest.(check int) "two completions" 2 (Vq.Driver.completions driver)

(* The pre-bulk ring protocol, byte by byte through the public
   [Dma.read_u8]/[write_u8], each field in ascending address order: the
   reference the bulk ring accessors must match counter for counter. *)
module Ref = struct
  exception Bad of int

  let at va off = Int64.add va (Int64.of_int off)

  let rd dma va n =
    let v = ref 0 in
    for i = 0 to n - 1 do
      v := !v lor (Dma.read_u8 dma (at va i) lsl (8 * i))
    done;
    !v

  let wr dma va n v =
    for i = 0 to n - 1 do
      Dma.write_u8 dma (at va i) ((v lsr (8 * i)) land 0xff)
    done

  let rd64 dma va =
    let lo = rd dma va 4 in
    let hi = rd dma (at va 4) 4 in
    Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

  let wr64 dma va v =
    wr dma va 4 (Int64.to_int (Int64.logand v 0xFFFF_FFFFL));
    wr dma (at va 4) 4 (Int64.to_int (Int64.shift_right_logical v 32))

  let avail size = 16 * size
  let used size = ((16 * size) + 4 + (2 * size) + 3) land lnot 3

  type driver = {
    dma : Dma.t;
    base : int64;
    size : int;
    next_free : int array;
    chain_len : int array;
    mutable free_head : int;
    mutable avail_shadow : int;
    mutable used_seen : int;
  }

  let create dma ~base ~size =
    wr dma (at base (avail size)) 2 0;
    wr dma (at base (avail size + 2)) 2 0;
    wr dma (at base (used size)) 2 0;
    wr dma (at base (used size + 2)) 2 0;
    {
      dma;
      base;
      size;
      next_free = Array.init size (fun i -> (i + 1) mod size);
      chain_len = Array.make size 0;
      free_head = 0;
      avail_shadow = 0;
      used_seen = 0;
    }

  let write_desc dma va ~addr ~len ~flags ~next =
    wr64 dma va addr;
    wr dma (at va 8) 4 len;
    wr dma (at va 12) 2 flags;
    wr dma (at va 14) 2 next

  let publish d head =
    wr d.dma (at d.base (avail d.size + 4 + (2 * (d.avail_shadow mod d.size)))) 2 head;
    d.avail_shadow <- d.avail_shadow + 1;
    wr d.dma (at d.base (avail d.size + 2)) 2 (d.avail_shadow land 0xffff)

  let wflag (b : Vq.buffer) = if b.Vq.writable then 2 else 0

  let add d bufs =
    let head = d.free_head in
    let rec fill i = function
      | [] -> assert false
      | [ (b : Vq.buffer) ] ->
        write_desc d.dma (at d.base (16 * i)) ~addr:b.Vq.va ~len:b.Vq.len
          ~flags:(wflag b) ~next:0;
        d.free_head <- d.next_free.(i)
      | (b : Vq.buffer) :: rest ->
        let next = d.next_free.(i) in
        write_desc d.dma (at d.base (16 * i)) ~addr:b.Vq.va ~len:b.Vq.len
          ~flags:(1 lor wflag b) ~next;
        fill next rest
    in
    fill head bufs;
    d.chain_len.(head) <- List.length bufs;
    publish d head;
    head

  let add_indirect d ~table_va bufs =
    let n = List.length bufs in
    List.iteri
      (fun i (b : Vq.buffer) ->
        write_desc d.dma (at table_va (16 * i)) ~addr:b.Vq.va ~len:b.Vq.len
          ~flags:((if i < n - 1 then 1 else 0) lor wflag b)
          ~next:(if i < n - 1 then i + 1 else 0))
      bufs;
    let head = d.free_head in
    write_desc d.dma (at d.base (16 * head)) ~addr:table_va ~len:(16 * n) ~flags:4
      ~next:0;
    d.free_head <- d.next_free.(head);
    d.chain_len.(head) <- 1;
    publish d head;
    head

  let poll d =
    let used_idx = rd d.dma (at d.base (used d.size + 2)) 2 in
    if used_idx = d.used_seen land 0xffff then None
    else begin
      let off = used d.size + 4 + (8 * (d.used_seen mod d.size)) in
      let id = rd d.dma (at d.base off) 4 in
      let written = rd d.dma (at d.base (off + 4)) 4 in
      d.used_seen <- d.used_seen + 1;
      let n = d.chain_len.(id) in
      let rec relink i k =
        if k > 1 then begin
          let va = at d.base (16 * i) in
          ignore (rd64 d.dma va);
          ignore (rd d.dma (at va 8) 4);
          ignore (rd d.dma (at va 12) 2);
          let next = rd d.dma (at va 14) 2 in
          d.next_free.(i) <- next;
          relink next (k - 1)
        end
      in
      relink id n;
      let rec last i k = if k = 1 then i else last d.next_free.(i) (k - 1) in
      let tail = last id n in
      d.next_free.(tail) <- d.free_head;
      d.free_head <- id;
      d.chain_len.(id) <- 0;
      Some (id, written)
    end

  type device = { ddma : Dma.t; dbase : int64; dsize : int; mutable avail_seen : int }

  let pop dv =
    let avail_idx = rd dv.ddma (at dv.dbase (avail dv.dsize + 2)) 2 in
    if (avail_idx - dv.avail_seen) land 0xffff = 0 then None
    else begin
      let slot = dv.avail_seen mod dv.dsize in
      let head = rd dv.ddma (at dv.dbase (avail dv.dsize + 4 + (2 * slot))) 2 in
      dv.avail_seen <- dv.avail_seen + 1;
      let read_indirect table len =
        let rec go i acc =
          if i >= len / 16 then List.rev acc
          else begin
            let va = at table (16 * i) in
            let addr = rd64 dv.ddma va in
            let blen = rd dv.ddma (at va 8) 4 in
            let flags = rd dv.ddma (at va 12) 2 in
            let b = { Vq.va = addr; len = blen; writable = flags land 2 <> 0 } in
            if flags land 1 <> 0 then go (i + 1) (b :: acc) else List.rev (b :: acc)
          end
        in
        try go 0 [] with Dma.Dma_fault _ -> raise (Bad head)
      in
      let rec walk i acc =
        let va = at dv.dbase (16 * i) in
        let addr = rd64 dv.ddma va in
        let len = rd dv.ddma (at va 8) 4 in
        let flags = rd dv.ddma (at va 12) 2 in
        let next = rd dv.ddma (at va 14) 2 in
        if flags land 4 <> 0 then List.rev_append acc (read_indirect addr len)
        else begin
          let b = { Vq.va = addr; len; writable = flags land 2 <> 0 } in
          if flags land 1 <> 0 then walk next (b :: acc) else List.rev (b :: acc)
        end
      in
      Some (head, walk head [])
    end

  let push dv ~head ~written =
    let used_idx = rd dv.ddma (at dv.dbase (used dv.dsize + 2)) 2 in
    let off = used dv.dsize + 4 + (8 * (used_idx mod dv.dsize)) in
    wr dv.ddma (at dv.dbase off) 4 head;
    wr dv.ddma (at dv.dbase (off + 4)) 4 written;
    wr dv.ddma (at dv.dbase (used dv.dsize + 2)) 2 ((used_idx + 1) land 0xffff)
end

(* One machine: two IOMMUs with a 2-entry TLB each (so ring, buffer and
   table pages miss and evict), sharing one registry. The ring straddles
   pages 0 and 1; the device cannot reach page 7. *)
type machine = {
  reg : Lastcpu_sim.Metrics.t;
  mem : Physmem.t;
  mmu_drv : Iommu.t;
  mmu_dev : Iommu.t;
  drv : Dma.t;
  dev : Dma.t;
}

let parity_va = 0x4000_0000L
let parity_base = Int64.add parity_va (Int64.sub page 40L)

let machine () =
  let reg = Lastcpu_sim.Metrics.create () in
  let mem = Physmem.create () in
  let mmu actor pages =
    let m = Iommu.create ~tlb_sets:1 ~tlb_ways:2 ~metrics:reg ~actor () in
    (match
       Iommu.map m ~pasid:1 ~va:parity_va ~pa:0x10_0000L
         ~bytes:(Int64.mul (Int64.of_int pages) page) ~perm:Types.perm_rw
     with
    | Ok () -> ()
    | Error e -> failwith e);
    m
  in
  let mmu_drv = mmu "drv" 8 and mmu_dev = mmu "dev" 7 in
  {
    reg;
    mem;
    mmu_drv;
    mmu_dev;
    drv = Dma.create ~iommu:mmu_drv ~pasid:1 ~mem;
    dev = Dma.create ~iommu:mmu_dev ~pasid:1 ~mem;
  }

type ring_ops = {
  add : Vq.buffer list -> int;
  add_indirect : table_va:int64 -> Vq.buffer list -> int;
  pop : unit -> [ `Chain of int * Vq.buffer list | `Bad of int | `Empty ];
  push : head:int -> written:int -> unit;
  poll : unit -> (int * int) option;
  store64 : int64 -> int64 -> unit;
}

let bulk_ops m =
  let size = 4 in
  let driver = Vq.Driver.create ~dma:m.drv ~base:parity_base ~size in
  let device = Vq.Device.create ~dma:m.dev ~base:parity_base ~size in
  let ok = function Ok h -> h | Error e -> failwith e in
  {
    add = (fun bufs -> ok (Vq.Driver.add driver bufs));
    add_indirect = (fun ~table_va bufs -> ok (Vq.Driver.add_indirect driver ~table_va bufs));
    pop =
      (fun () ->
        match Vq.Device.pop device with
        | None -> `Empty
        | Some { Vq.Device.head; buffers } -> `Chain (head, buffers)
        | exception Vq.Bad_chain head -> `Bad head);
    push = (fun ~head ~written -> Vq.Device.push_used device ~head ~written);
    poll = (fun () -> Vq.Driver.poll_used driver);
    store64 = Dma.write_u64 m.drv;
  }

let per_byte_ops m =
  let size = 4 in
  let d = Ref.create m.drv ~base:parity_base ~size in
  let dv = { Ref.ddma = m.dev; dbase = parity_base; dsize = size; avail_seen = 0 } in
  {
    add = Ref.add d;
    add_indirect = Ref.add_indirect d;
    pop =
      (fun () ->
        match Ref.pop dv with
        | None -> `Empty
        | Some (head, buffers) -> `Chain (head, buffers)
        | exception Ref.Bad head -> `Bad head);
    push = Ref.push dv;
    poll = (fun () -> Ref.poll d);
    store64 = Ref.wr64 m.drv;
  }

(* Direct and indirect chains, two in flight at once, ring wrap, and an
   indirect table the device cannot reach; then a u64 store whose second
   half runs off the driver's mapping. Returns what the run observed. *)
let parity_script m ops =
  let pg n off = Int64.add parity_va (Int64.add (Int64.mul (Int64.of_int n) page) off) in
  let seen = ref [] in
  let note x = seen := x :: !seen in
  let serve () =
    match ops.pop () with
    | `Empty -> note "empty"
    | `Bad head ->
      note (Printf.sprintf "bad %d" head);
      ops.push ~head ~written:0
    | `Chain (head, bufs) ->
      List.iter
        (fun (b : Vq.buffer) ->
          if b.Vq.writable then Dma.write_bytes m.dev b.Vq.va (Printf.sprintf "resp%d" head)
          else note (Dma.read_bytes m.dev b.Vq.va (min b.Vq.len 8)))
        bufs;
      ops.push ~head ~written:(List.length bufs)
  in
  let reap () =
    match ops.poll () with
    | Some (h, w) -> note (Printf.sprintf "done %d %d" h w)
    | None -> note "none"
  in
  for i = 0 to 9 do
    let req = pg 2 (Int64.of_int (64 * i)) and resp = pg 3 (Int64.of_int (64 * i)) in
    Dma.write_bytes m.drv req (Printf.sprintf "req%d" i);
    let direct () =
      ops.add
        [
          { Vq.va = req; len = 8; writable = false };
          { Vq.va = resp; len = 32; writable = true };
        ]
    in
    ignore
      (if i mod 3 = 2 then
         ops.add_indirect ~table_va:(pg 4 (Int64.of_int (64 * i)))
           [
             { Vq.va = req; len = 8; writable = false };
             { Vq.va = pg 5 0L; len = 16; writable = false };
             { Vq.va = resp; len = 32; writable = true };
           ]
       else direct ());
    if i = 5 then ignore (direct ());
    serve ();
    if i = 5 then serve ();
    serve ();
    reap ();
    if i = 5 then reap ()
  done;
  ignore
    (ops.add_indirect ~table_va:(pg 7 0L) [ { Vq.va = pg 2 0L; len = 8; writable = false } ]);
  serve ();
  reap ();
  (match ops.store64 (pg 8 (-4L)) 0x1122_3344_5566_7788L with
  | () -> note "no fault"
  | exception Dma.Dma_fault _ -> note "fault");
  List.rev !seen

let test_vq_counter_parity () =
  let bulk = machine () and per_byte = machine () in
  let seen_bulk = parity_script bulk (bulk_ops bulk) in
  let written_bulk = Dma.read_bytes bulk.drv (Int64.add parity_va 0x7ffcL) 4 in
  let seen_ref = parity_script per_byte (per_byte_ops per_byte) in
  let written_ref = Dma.read_bytes per_byte.drv (Int64.add parity_va 0x7ffcL) 4 in
  Alcotest.(check (list string)) "same observations" seen_ref seen_bulk;
  Alcotest.(check string) "partial store kept" written_ref written_bulk;
  let counters m =
    List.map
      (fun (actor, name, v) ->
        match v with
        | Lastcpu_sim.Metrics.Counter_v n -> Printf.sprintf "%s/%s=%d" actor name n
        | _ -> actor ^ "/" ^ name)
      (Lastcpu_sim.Metrics.snapshot m.reg)
  in
  Alcotest.(check (list string)) "same registry" (counters per_byte) (counters bulk);
  let read m name = Lastcpu_sim.Metrics.counter_read m.reg ~actor:"dev" ~name in
  Alcotest.(check bool) "covers misses, evictions and a fault" true
    (read bulk "tlb_misses" > 2 && read bulk "tlb_evictions" > 0 && read bulk "faults" = 1);
  Alcotest.(check (pair int int)) "same Dma.accesses"
    (Dma.accesses per_byte.drv, Dma.accesses per_byte.dev)
    (Dma.accesses bulk.drv, Dma.accesses bulk.dev);
  let saved f x =
    let w = Lastcpu_sim.Snapshot.W.create () in
    f w x;
    Lastcpu_sim.Snapshot.W.contents w
  in
  Alcotest.(check string) "same driver IOMMU state"
    (saved Iommu.save per_byte.mmu_drv) (saved Iommu.save bulk.mmu_drv);
  Alcotest.(check string) "same device IOMMU state"
    (saved Iommu.save per_byte.mmu_dev) (saved Iommu.save bulk.mmu_dev);
  Alcotest.(check string) "same memory" (saved Physmem.save per_byte.mem)
    (saved Physmem.save bulk.mem);
  let probes m = Iommu.tlb_probes m.mmu_drv + Iommu.tlb_probes m.mmu_dev in
  Alcotest.(check bool)
    (Printf.sprintf "host TLB probes %d <= 1/4 of per-byte %d" (probes bulk)
       (probes per_byte))
    true
    (4 * probes bulk <= probes per_byte)

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
          Alcotest.test_case "poll_used drops foreign ids" `Quick
            test_vq_poll_used_drops_foreign_ids;
          Alcotest.test_case "bulk ring fields match per-byte counters" `Quick
            test_vq_counter_parity;
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
