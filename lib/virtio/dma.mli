(** A device's DMA view of memory: every access is translated by that
    device's IOMMU for a given PASID before touching simulated DRAM.

    This is the only way devices read or write memory in the emulation, so
    isolation violations are structurally impossible to express — exactly
    the property §2.2 assigns to the IOMMU. *)

exception Dma_fault of Lastcpu_iommu.Iommu.fault

type t

val create :
  iommu:Lastcpu_iommu.Iommu.t ->
  pasid:int ->
  mem:Lastcpu_mem.Physmem.t ->
  t

val pasid : t -> int

val load : t -> int -> Bytes.t -> pos:int -> len:int -> unit
(** [load t va buf ~pos ~len] reads [len] bytes at native-int virtual
    address [va] into [buf] at [pos]. Charged exactly as [len] one-byte
    reads: each byte is one translation and one {!accesses} tick, and the
    TLB counters, clock and LRU stamps advance as [len] per-byte lookups
    would — for one host TLB lookup per page the range touches. Raises
    {!Dma_fault} where the byte-at-a-time read would, with the same
    counts. The form ring fields (descriptors, ring indices, used
    elements) take. *)

val store : t -> int -> Bytes.t -> pos:int -> len:int -> unit
(** The write counterpart of {!load}: [len] bytes of [buf] from [pos]. A
    range whose second page faults keeps the bytes written to the first,
    as a byte-at-a-time write would. *)

(** Fixed-width little-endian fields, through {!load}/{!store}. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u16 : t -> int64 -> int
val write_u16 : t -> int64 -> int -> unit
val read_u32 : t -> int64 -> int
val write_u32 : t -> int64 -> int -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit
val read_bytes : t -> int64 -> int -> string
val write_bytes : t -> int64 -> string -> unit

val read_into : t -> int64 -> Bytes.t -> pos:int -> len:int -> unit
(** [read_bytes] into a caller-provided buffer (no result allocation). *)

val write_string_sub : t -> int64 -> string -> pos:int -> len:int -> unit
val write_bytes_sub : t -> int64 -> Bytes.t -> pos:int -> len:int -> unit
(** Write a slice of the argument without carving an intermediate string. *)

val map_direct :
  t ->
  va:int64 ->
  len:int ->
  perm:Lastcpu_iommu.Iommu.access ->
  Lastcpu_mem.Physmem.view option
(** DMI-style direct grant: a window straight onto backing DRAM for
    [va, va+len). Replays exactly the per-page-fragment translations the
    copying path performs (IOMMU/TLB counters feed golden digests — the
    fast path may only change host time), then returns the cached view if
    the translation is unchanged, or rebuilds it. [None] when the range's
    physical pages are not contiguous (or cross a backing-chunk boundary):
    take the copying path. Raises {!Dma_fault} exactly where
    [read_bytes]/[write_bytes] would.

    Grants are dropped whenever this PASID's mappings shrink (IOMMU unmap,
    PASID teardown, capability revocation, quarantine — all funnel through
    {!Lastcpu_iommu.Iommu.on_invalidate}); do not hold a view across
    events, re-request it per access instead (hits are cheap). *)

val map_single :
  t ->
  va:int64 ->
  len:int ->
  perm:Lastcpu_iommu.Iommu.access ->
  Lastcpu_mem.Physmem.view option
(** {!map_direct} restricted to ranges inside one IOMMU page, where the
    probe is exactly one translation (the one the copying path would
    spend) and cannot fail partway. Multi-page ranges return [None]
    without touching the IOMMU, so the caller's copy-path fallback
    remains the only translation pass — the form digest-frozen hot paths
    must use. *)

val dmi_hits : t -> int
(** Direct-map grants served from cache (host-perf observability; not
    modeled state, so deliberately absent from snapshots). *)

val dmi_invalidations : t -> int
(** Cached grants dropped by mapping-change notifications. *)

val accesses : t -> int
(** Number of translated accesses performed (cost accounting: each is at
    most one DRAM touch after translation; multi-byte accesses within one
    page count once). *)

val set_accesses : t -> int -> unit
(** Overwrite the access counter (checkpoint restore only). *)
