module Iommu = Lastcpu_iommu.Iommu
module Physmem = Lastcpu_mem.Physmem
module Layout = Lastcpu_mem.Layout

exception Dma_fault of Iommu.fault

(* A direct-map grant: the DRAM view for one (va, len, access) range,
   kept until the IOMMU tells us the underlying mapping changed. Host-side
   cache only — the modeled translation accounting is replayed on every
   access (see [map_direct]), so hits and invalidations never move a
   digest. *)
type grant = { base_pa : int64; gview : Physmem.view }

type t = {
  iommu : Iommu.t;
  pasid : int;
  mem : Physmem.t;
  mutable access_count : int;
  field : Bytes.t;  (* bounce buffer of the int accessors *)
  grants : (int64 * int * int, grant) Hashtbl.t;  (* va, len, access tag *)
  mutable dmi_hits : int;
  mutable dmi_invalidations : int;
}

let create ~iommu ~pasid ~mem =
  let t =
    {
      iommu;
      pasid;
      mem;
      access_count = 0;
      field = Bytes.create 8;
      grants = Hashtbl.create 16;
      dmi_hits = 0;
      dmi_invalidations = 0;
    }
  in
  Iommu.on_invalidate iommu (fun ~pasid ->
      if pasid = t.pasid && Hashtbl.length t.grants > 0 then begin
        t.dmi_invalidations <- t.dmi_invalidations + Hashtbl.length t.grants;
        Hashtbl.reset t.grants
      end);
  t

let pasid t = t.pasid

let translate t va access =
  t.access_count <- t.access_count + 1;
  match Iommu.translate t.iommu ~pasid:t.pasid ~va ~access with
  | Iommu.Ok_pa pa -> pa
  | Iommu.Fault f -> raise (Dma_fault f)

(* Field accessors (DESIGN.md §14 "Ring fields"). The modeled cost of a
   field access is one translation per byte — that is what the IOMMU and
   TLB counters, the TLB's LRU stamps and [accesses] record, and they are
   digest material. The host pays one TLB lookup per page fragment
   instead: [Iommu.translate_span] charges the fragment's remaining bytes
   as the same-page hits the first byte left behind, and [Physmem.load]/
   [store] move the bytes with one backing lookup. Native ints end to end:
   ring traffic is the hottest DMA path, and simulated VAs are far below
   2^62. *)
let page_bytes = Int64.to_int Layout.page_size
let page_off_mask = page_bytes - 1

let span t vai len access =
  t.access_count <- t.access_count + 1;
  let pa = Iommu.translate_span t.iommu ~pasid:t.pasid ~vai ~len ~access in
  if pa < 0 then raise (Dma_fault (Iommu.last_fault t.iommu));
  t.access_count <- t.access_count + len - 1;
  pa

(* A fragment that faults stops the access with the earlier fragments
   done, as the byte-at-a-time order would. *)
let rec load t vai buf ~pos ~len =
  if len > 0 then begin
    let n = min len (page_bytes - (vai land page_off_mask)) in
    Physmem.load t.mem (span t vai n Iommu.Read) buf ~pos ~len:n;
    load t (vai + n) buf ~pos:(pos + n) ~len:(len - n)
  end

let rec store t vai buf ~pos ~len =
  if len > 0 then begin
    let n = min len (page_bytes - (vai land page_off_mask)) in
    Physmem.store t.mem (span t vai n Iommu.Write) buf ~pos ~len:n;
    store t (vai + n) buf ~pos:(pos + n) ~len:(len - n)
  end

let get t va len =
  load t (Int64.to_int va) t.field ~pos:0 ~len;
  t.field

let put t va len = store t (Int64.to_int va) t.field ~pos:0 ~len

let read_u8 t va = Bytes.get_uint8 (get t va 1) 0
let read_u16 t va = Bytes.get_uint16_le (get t va 2) 0
let read_u32 t va = Int32.to_int (Bytes.get_int32_le (get t va 4) 0) land 0xffff_ffff
let read_u64 t va = Bytes.get_int64_le (get t va 8) 0

let write_u8 t va v =
  Bytes.set_uint8 t.field 0 (v land 0xff);
  put t va 1

let write_u16 t va v =
  Bytes.set_uint16_le t.field 0 (v land 0xffff);
  put t va 2

let write_u32 t va v =
  Bytes.set_int32_le t.field 0 (Int32.of_int v);
  put t va 4

let write_u64 t va v =
  Bytes.set_int64_le t.field 0 v;
  put t va 8

let read_into t va out ~pos ~len =
  let rec go va dst_off remaining =
    if remaining > 0 then begin
      let off = Layout.offset_in_page va in
      let chunk = min remaining (Int64.to_int Layout.page_size - off) in
      let pa = translate t va Iommu.Read in
      Physmem.read_into t.mem pa out ~pos:dst_off ~len:chunk;
      go (Int64.add va (Int64.of_int chunk)) (dst_off + chunk) (remaining - chunk)
    end
  in
  go va pos len

let read_bytes t va len =
  let out = Bytes.create len in
  read_into t va out ~pos:0 ~len;
  Bytes.unsafe_to_string out

let write_string_sub t va s ~pos ~len =
  let rec go va src_off remaining =
    if remaining > 0 then begin
      let off = Layout.offset_in_page va in
      let chunk = min remaining (Int64.to_int Layout.page_size - off) in
      let pa = translate t va Iommu.Write in
      Physmem.write_string_sub t.mem pa s ~pos:src_off ~len:chunk;
      go (Int64.add va (Int64.of_int chunk)) (src_off + chunk) (remaining - chunk)
    end
  in
  go va pos len

let write_bytes t va s = write_string_sub t va s ~pos:0 ~len:(String.length s)

let write_bytes_sub t va b ~pos ~len =
  let rec go va src_off remaining =
    if remaining > 0 then begin
      let off = Layout.offset_in_page va in
      let chunk = min remaining (Int64.to_int Layout.page_size - off) in
      let pa = translate t va Iommu.Write in
      Physmem.write_bytes_sub t.mem pa b ~pos:src_off ~len:chunk;
      go (Int64.add va (Int64.of_int chunk)) (src_off + chunk) (remaining - chunk)
    end
  in
  go va pos len

(* --- DMI fast path ----------------------------------------------------- *)

let access_tag = function Iommu.Read -> 0 | Iommu.Write -> 1 | Iommu.Exec -> 2

(* The zero-copy contract (DESIGN.md §14): [map_direct] replays exactly
   the per-page-fragment translations the copying path ([read_bytes] /
   [write_bytes]) performs — IOMMU and TLB counters are registry state
   folded into the golden digests, so the fast path must change host
   time only, never modeled behaviour. What a grant hit skips is the
   host-side view reconstruction; what the view itself eliminates is the
   string round-trip on either side. On a fault the usual [Dma_fault]
   escapes, precisely as the copying path would have faulted. *)
let map_direct t ~va ~len ~perm =
  if len <= 0 then invalid_arg "Dma.map_direct: length must be positive";
  let first_pa = translate t va perm in
  let contiguous = ref true in
  let covered = ref (min len (page_bytes - Layout.offset_in_page va)) in
  while !covered < len do
    let frag_va = Int64.add va (Int64.of_int !covered) in
    let pa = translate t frag_va perm in
    if pa <> Int64.add first_pa (Int64.of_int !covered) then
      contiguous := false;
    covered := !covered + min (len - !covered) page_bytes
  done;
  if not !contiguous then None
  else begin
    let key = (va, len, access_tag perm) in
    match Hashtbl.find_opt t.grants key with
    | Some g when g.base_pa = first_pa ->
      t.dmi_hits <- t.dmi_hits + 1;
      Some g.gview
    | _ -> (
      match Physmem.view t.mem first_pa len with
      | exception Invalid_argument _ ->
        None (* crosses a backing-chunk boundary: caller takes the copy path *)
      | gview ->
        Hashtbl.replace t.grants key { base_pa = first_pa; gview };
        Some gview)
  end

(* The single-page special case hot paths want: when [va, va+len) lies
   inside one IOMMU page the probe is exactly one translation — the same
   one the copying path would spend — and cannot fail halfway (a page
   always sits inside one backing chunk). Multi-page ranges return None
   without touching the IOMMU, leaving the caller's copy path as the only
   translation pass; a failed multi-fragment [map_direct] probe would
   translate the range twice, which the frozen digests cannot absorb. *)
let map_single t ~va ~len ~perm =
  if len <= 0 || Layout.offset_in_page va + len > page_bytes then None
  else map_direct t ~va ~len ~perm

let dmi_hits t = t.dmi_hits
let dmi_invalidations t = t.dmi_invalidations

let accesses t = t.access_count
let set_accesses t n = t.access_count <- n
