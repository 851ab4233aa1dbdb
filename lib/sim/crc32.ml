(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the one checksum
   of the tree. Snapshot sections and files, framed bus messages, WAL
   records and the NAND ECC model all run through the slice-by-8 C stub
   in bytes_stubs.c. *)

external init : unit -> unit = "lastcpu_crc32_init"

external unsafe_update : int -> string -> int -> int -> int
  = "lastcpu_crc32_update"
[@@noalloc]

external unsafe_combine : int -> int -> int -> int = "lastcpu_crc32_combine"
[@@noalloc]

(* Fill the lookup tables while the program is still single-domain. *)
let () = init ()

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update";
  unsafe_update crc s pos len

let string s = unsafe_update 0 s 0 (String.length s)

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine";
  unsafe_combine crc1 crc2 len2
