(** Binary wire primitives for the bus protocol codec.

    Little-endian fixed ints, LEB128 varints, length-prefixed strings and
    lists, over a growable write buffer and a cursor-based reader. Decoding
    failures raise [Malformed]. *)

exception Malformed of string

(** The shared shape of the write targets ({!Writer}, {!View_writer},
    {!Bytes_writer}, {!Sizer}): a codec functorized over [SINK] defines its byte layout
    once and gets the copying, zero-copy and sizing encoders for free. *)
module type SINK = sig
  type t

  val byte : t -> int -> unit
  val varint : t -> int -> unit
  val int64 : t -> int64 -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
end

(** The shared shape of the read cursors ({!Reader}, {!View_reader}). *)
module type SOURCE = sig
  type t

  val byte : t -> int
  val varint : t -> int
  val int64 : t -> int64
  val string : t -> string
  val bool : t -> bool
  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option
  val at_end : t -> bool
end

module Writer : sig
  type t

  val create : unit -> t
  val byte : t -> int -> unit
  val varint : t -> int -> unit
  (** Unsigned LEB128; requires the value to be non-negative. *)

  val int64 : t -> int64 -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val contents : t -> string
  val length : t -> int
end

module Reader : sig
  type t

  val create : string -> t
  val byte : t -> int
  val varint : t -> int
  val int64 : t -> int64
  val string : t -> string
  val bool : t -> bool
  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option
  val at_end : t -> bool
end

(** Byte counter with {!Writer}'s signature: drive the same encode logic
    through it and {!Sizer.size} is the encoded length — no buffer, no
    bytes materialised. *)
module Sizer : sig
  type t

  val create : unit -> t
  val byte : t -> int -> unit
  val varint : t -> int -> unit
  val int64 : t -> int64 -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val size : t -> int
end

(** Cursor writing into a caller-sized [Bytes.t], starting at [pos]: size a
    frame with {!Sizer}, allocate once, encode in place. Overflowing the
    buffer raises [Malformed]. *)
module Bytes_writer : sig
  type t

  val create : ?pos:int -> Bytes.t -> t
  val byte : t -> int -> unit
  val varint : t -> int -> unit
  val int64 : t -> int64 -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val pos : t -> int
  (** Next write offset. *)
end

val encode_sized :
  (Sizer.t -> 'a -> unit) -> (Bytes_writer.t -> 'a -> unit) -> 'a -> string
(** [encode_sized size emit x] runs one layout twice — through a {!Sizer},
    then into a buffer of exactly that size — and returns the bytes: a
    codec's [Emit (Sizer)] and [Emit (Bytes_writer)] instances make a
    one-allocation string encoder. *)

(** Cursor writing into a caller-provided slice (a DRAM view, a virtqueue
    slot): encoded bytes land directly in backing memory. Overflowing the
    slice raises [Malformed]. *)
module View_writer : sig
  type t

  val create : ?pos:int -> Slice.t -> t
  val byte : t -> int -> unit
  val varint : t -> int -> unit
  val int64 : t -> int64 -> unit
  val string : t -> string -> unit
  val view : t -> Slice.t -> unit
  (** Length-prefixed like [string]; payload bytes blit slice-to-slice. *)

  val raw_string : t -> string -> src_pos:int -> len:int -> unit
  val raw_view : t -> Slice.t -> src_pos:int -> len:int -> unit
  (** Unprefixed raw bytes (caller frames them). *)

  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val pos : t -> int
  (** Bytes written so far (next write offset). *)
end

(** Cursor over a slice (a DRAM view): decode straight out of backing
    memory. {!View_reader.view} hands payload fields back as sub-windows
    sharing storage with the underlying slice. *)
module View_reader : sig
  type t

  val create : ?pos:int -> ?len:int -> Slice.t -> t
  val byte : t -> int
  val varint : t -> int
  val int64 : t -> int64
  val string : t -> string
  val view : t -> Slice.t
  val take : t -> int -> Slice.t
  (** [take t len] consumes [len] raw bytes as a sub-window. *)

  val bool : t -> bool
  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option
  val at_end : t -> bool
end
