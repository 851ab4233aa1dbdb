(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]), computed by a
    slice-by-8 C stub. Results are in [\[0, 2^32)]; any single-bit flip
    changes the checksum. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends [crc], the CRC of the bytes seen so
    far, by the [len] bytes of [s] at [pos]. [update 0 s pos len] is the
    one-shot CRC of that range, and checksumming a string piece by piece
    gives the same value as checksumming it whole.
    @raise Invalid_argument when the range falls outside [s]. *)

val string : string -> int
(** The CRC of a whole string: [update 0 s 0 (String.length s)]. *)

val combine : int -> int -> int -> int
(** [combine crc1 crc2 len2] is the CRC of [a ^ b] given [crc1] the CRC
    of [a], [crc2] the CRC of [b] and [len2] the length of [b], in
    O(log len2) without reading either: a file CRC can be assembled from
    its parts' CRCs instead of a second pass over their bytes.
    @raise Invalid_argument when [len2] is negative. *)
