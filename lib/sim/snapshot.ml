(* Versioned, CRC-framed snapshot container and field codec.

   A snapshot file is a flat sequence of named sections:

     "LCSN" | u32 version
     repeat: 'S' | varint |name| | name | varint |body| | u32 crc32(body) | body
     'E' | u32 crc32(everything before this u32)

   Every length is explicit and every body is checksummed, so a torn write
   (partial append, zero-filled tail, bit rot) is detected structurally:
   the reader either runs out of bytes mid-frame or hits a CRC mismatch,
   and in both cases the whole file is rejected — there is no "partially
   restored" state. Durability is generation-based: [write] replaces the
   previous snapshot atomically (tmp + rename) and keeps the displaced
   file as [path ^ ".1"], and [load] falls back to that previous
   generation when the primary is missing or corrupt.

   [write] streams: each section's producer writes into one reusable
   [W.t], whose bytes are checksummed (Crc32, the tree's one CRC) and
   copied straight to the channel; no whole-file buffer is built.

   This module is deliberately engine-free: it knows bytes, not
   simulations. Subsystems encode their state with [W]/[R]; the engine's
   hook registry (see Engine.register_snapshot) decides what gets written. *)

let version = 1
let magic = "LCSN"

(* --- field codec ---------------------------------------------------------- *)

(* A growable byte buffer plus a fill length. [reset] keeps the storage,
   so one writer serves every section of a save and settles at the size
   of the largest. *)
module W = struct
  type t = { mutable buf : bytes; mutable len : int }

  type bigarray =
    (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  external unsafe_blit_bigarray : bigarray -> int -> bytes -> int -> int -> unit
    = "lastcpu_blit_ba_to_bytes"
  [@@noalloc]

  let create () = { buf = Bytes.create 4096; len = 0 }
  let reset w = w.len <- 0
  let contents w = Bytes.sub_string w.buf 0 w.len

  (* The CRC of everything written since the last [reset]. *)
  let crc w = Crc32.update 0 (Bytes.unsafe_to_string w.buf) 0 w.len

  let reserve w n =
    let need = w.len + n in
    if need > Bytes.length w.buf then begin
      let buf = Bytes.create (max need (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf 0 buf 0 w.len;
      w.buf <- buf
    end

  let u8 w n =
    if w.len = Bytes.length w.buf then reserve w 1;
    Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (n land 0xff));
    w.len <- w.len + 1

  let u32 w n =
    reserve w 4;
    Bytes.set_int32_le w.buf w.len (Int32.of_int n);
    w.len <- w.len + 4

  let i64 w n =
    reserve w 8;
    Bytes.set_int64_le w.buf w.len n;
    w.len <- w.len + 8

  (* Unsigned LEB128; lengths and other non-negative quantities. *)
  let rec varint w n =
    assert (n >= 0);
    if n < 0x80 then u8 w n
    else begin
      u8 w (0x80 lor (n land 0x7f));
      varint w (n lsr 7)
    end

  (* Zigzag-encoded signed int, for quantities that may go negative. *)
  let vint w n = varint w ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
  let bool w b = u8 w (if b then 1 else 0)
  let float w f = i64 w (Int64.bits_of_float f)

  (* Unprefixed bytes: the container's magic and section bodies. *)
  let raw w s =
    let n = String.length s in
    reserve w n;
    Bytes.blit_string s 0 w.buf w.len n;
    w.len <- w.len + n

  let string w s =
    varint w (String.length s);
    raw w s

  let bigarray w ba ~pos ~len =
    if pos < 0 || len < 0 || pos > Bigarray.Array1.dim ba - len then
      invalid_arg "Snapshot.W.bigarray";
    varint w len;
    reserve w len;
    unsafe_blit_bigarray ba pos w.buf w.len len;
    w.len <- w.len + len

  (* Write the body in place, then slide it right by the width of its
     length prefix: the bytes [string] would give for [f]'s output. *)
  let nested w f =
    let start = w.len in
    f w;
    let n = w.len - start in
    let rec width n = if n < 0x80 then 1 else 1 + width (n lsr 7) in
    let prefix = width n in
    reserve w prefix;
    Bytes.blit w.buf start w.buf (start + prefix) n;
    w.len <- start;
    varint w n;
    w.len <- w.len + n

  let list w f xs =
    varint w (List.length xs);
    List.iter (f w) xs

  let array w f xs =
    varint w (Array.length xs);
    Array.iter (f w) xs

  let option w f = function
    | None -> bool w false
    | Some x ->
      bool w true;
      f w x
end

module R = struct
  exception Corrupt of string

  type t = { buf : string; mutable pos : int }

  let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt
  let of_string buf = { buf; pos = 0 }
  let eof r = r.pos >= String.length r.buf

  let u8 r =
    if r.pos >= String.length r.buf then corrupt "truncated (u8 at %d)" r.pos;
    let c = Char.code r.buf.[r.pos] in
    r.pos <- r.pos + 1;
    c

  let u32 r =
    let a = u8 r in
    let b = u8 r in
    let c = u8 r in
    let d = u8 r in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

  let i64 r =
    let v = ref 0L in
    for shift = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 r)) (8 * shift))
    done;
    !v

  let varint r =
    let rec go shift acc =
      if shift > Sys.int_size then corrupt "varint overflow at %d" r.pos;
      let b = u8 r in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let vint r =
    let n = varint r in
    (n lsr 1) lxor (-(n land 1))

  let bool r = u8 r <> 0
  let float r = Int64.float_of_bits (i64 r)

  let string r =
    let len = varint r in
    if len > String.length r.buf - r.pos then
      corrupt "truncated (string of %d bytes at %d)" len r.pos;
    let s = String.sub r.buf r.pos len in
    r.pos <- r.pos + len;
    s

  let list r f =
    let n = varint r in
    List.init n (fun _ -> f r)

  let array r f =
    let n = varint r in
    Array.init n (fun _ -> f r)

  let option r f = if bool r then Some (f r) else None
end

(* --- container ------------------------------------------------------------ *)

type section = { name : string; body : string }

(* The one frame emitter: every byte of a snapshot file, streamed by
   [write] or collected by [encode], comes from here. [out buf pos len]
   receives the file as consecutive byte ranges. Each section's producer
   fills the one reusable writer [body], whose bytes are checksummed in
   place and handed out right behind their frame header. The file CRC
   is assembled from the pieces' CRCs, so no byte is checksummed twice. *)
let emit out parts =
  let body = W.create () and head = W.create () in
  let file_crc = ref 0 in
  let put (w : W.t) crc =
    file_crc := Crc32.combine !file_crc crc w.len;
    out w.buf 0 w.len
  in
  W.raw head magic;
  W.u32 head version;
  put head (W.crc head);
  List.iter
    (fun (name, save) ->
      W.reset body;
      save body;
      let crc = W.crc body in
      W.reset head;
      W.u8 head (Char.code 'S');
      W.string head name;
      W.varint head body.len;
      W.u32 head crc;
      put head (W.crc head);
      put body crc)
    parts;
  W.reset head;
  W.u8 head (Char.code 'E');
  put head (W.crc head);
  W.reset head;
  W.u32 head !file_crc;
  out head.buf 0 head.len

let render parts =
  let b = Buffer.create 4096 in
  emit (Buffer.add_subbytes b) parts;
  Buffer.contents b

let encode sections =
  render
    (List.map (fun { name; body } -> (name, fun w -> W.raw w body)) sections)

let decode s =
  try
    let r = R.of_string s in
    if String.length s < 8 || String.sub s 0 4 <> magic then
      R.corrupt "bad magic";
    r.R.pos <- 4;
    let v = R.u32 r in
    if v <> version then R.corrupt "unsupported version %d" v;
    (* The running CRC of everything read so far: frame headers are
       checksummed as they pass, bodies folded in by their section CRC. *)
    let file_crc = ref (Crc32.update 0 s 0 r.R.pos) in
    let rec sections acc =
      let frame = r.R.pos in
      match Char.chr (R.u8 r) with
      | 'S' ->
        let name = R.string r in
        let len = R.varint r in
        let crc = R.u32 r in
        let start = r.R.pos in
        if len > String.length s - start then
          R.corrupt "truncated section %S" name;
        if Crc32.update 0 s start len <> crc then
          R.corrupt "checksum mismatch in section %S" name;
        let head_crc = Crc32.update !file_crc s frame (start - frame) in
        file_crc := Crc32.combine head_crc crc len;
        let body = String.sub s start len in
        r.R.pos <- start + len;
        sections ({ name; body } :: acc)
      | 'E' ->
        if R.u32 r <> Crc32.update !file_crc s frame 1 then
          R.corrupt "file checksum mismatch";
        List.rev acc
      | c -> R.corrupt "bad frame tag %C" c
      | exception Invalid_argument _ -> R.corrupt "bad frame tag"
    in
    Ok (sections [])
  with R.Corrupt m -> Error m

let find sections name =
  List.find_map (fun s -> if s.name = name then Some s.body else None) sections

(* --- file I/O with generations -------------------------------------------- *)

let previous_generation path = path ^ ".1"

let rotate path =
  if Sys.file_exists path then Sys.rename path (previous_generation path)

(* Stream into [path ^ ".tmp"], then rotate and rename into place. If a
   producer (or the disk) raises part-way, the channel is closed and the
   temp file removed; neither generation has been touched yet. *)
let write ~path parts =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      emit (output oc) parts;
      close_out oc;
      rotate path;
      Sys.rename tmp path)

(* Chaos hook: simulate the host dying mid-checkpoint. The previous
   generation has already been rotated out of the way (as a real
   checkpoint would), and the primary is left torn at [keep_bytes] — the
   exact on-disk state a kill -9 mid-write of a non-atomic writer would
   leave. [load] must reject it and fall back. *)
let write_torn ~path ~keep_bytes parts =
  let data = render parts in
  let keep = max 0 (min keep_bytes (String.length data - 1)) in
  rotate path;
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_substring oc data 0 keep)

let read_file path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else Ok (In_channel.with_open_bin path In_channel.input_all)

type generation = Primary | Previous

let load ~path =
  let attempt p =
    match read_file p with
    | Error e -> Error e
    | Ok data -> (
      match decode data with
      | Ok sections -> Ok sections
      | Error e -> Error (p ^ ": " ^ e))
  in
  match attempt path with
  | Ok sections -> Ok (Primary, sections)
  | Error primary_err -> (
    match attempt (previous_generation path) with
    | Ok sections -> Ok (Previous, sections)
    | Error fallback_err ->
      Error (Printf.sprintf "%s; fallback %s" primary_err fallback_err))
