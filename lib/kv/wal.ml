module Wire = Lastcpu_proto.Wire
module Crc32 = Lastcpu_sim.Crc32

type record = Put of { key : string; value : string } | Del of { key : string }

(* The record body, laid out once over [Wire.SINK]: [Body_size] sizes a
   frame, [Body_bytes] writes it. *)
module Body (W : Wire.SINK) = struct
  let emit w = function
    | Put { key; value } ->
      W.byte w 0;
      W.string w key;
      W.string w value
    | Del { key } ->
      W.byte w 1;
      W.string w key
end

module Body_size = Body (Wire.Sizer)
module Body_bytes = Body (Wire.Bytes_writer)

(* Framing: u32 length with the top bit marking "CRC follows", then the
   CRC-32 of the body, then the body. Legacy logs (no top bit, no CRC)
   still decode; the marker bit is free because record bodies are tiny.
   The frame is sized first and written into one buffer: a 4 KiB value is
   copied exactly once, and the CRC runs over the body in place. *)
let encode r =
  let size = Wire.Sizer.create () in
  Body_size.emit size r;
  let len = Wire.Sizer.size size in
  let b = Bytes.create (8 + len) in
  Body_bytes.emit (Wire.Bytes_writer.create ~pos:8 b) r;
  Bytes.set_int32_le b 0 (Int32.of_int (len lor 0x8000_0000));
  Bytes.set_int32_le b 4 (Int32.of_int (Crc32.update 0 (Bytes.unsafe_to_string b) 8 len));
  Bytes.unsafe_to_string b

let decode_body body =
  let r = Wire.Reader.create body in
  match Wire.Reader.byte r with
  | 0 ->
    let key = Wire.Reader.string r in
    let value = Wire.Reader.string r in
    if Wire.Reader.at_end r then Some (Put { key; value }) else None
  | 1 ->
    let key = Wire.Reader.string r in
    if Wire.Reader.at_end r then Some (Del { key }) else None
  | _ -> None
  | exception Wire.Malformed _ -> None

let decode_all data =
  let total = String.length data in
  let u32_at pos =
    Char.code data.[pos]
    lor (Char.code data.[pos + 1] lsl 8)
    lor (Char.code data.[pos + 2] lsl 16)
    lor (Char.code data.[pos + 3] lsl 24)
  in
  let rec go pos acc =
    if pos + 4 > total then (List.rev acc, pos)
    else begin
      let word = u32_at pos in
      let checksummed = word land 0x8000_0000 <> 0 in
      let len = word land 0x7fff_ffff in
      let header = if checksummed then 8 else 4 in
      if len = 0 || pos + header + len > total then (List.rev acc, pos)
      else begin
        (* A CRC mismatch means the record (or its tail) never fully hit
           flash: stop here, exactly like a short final record. The CRC
           is checked in place, before the body is sliced out. *)
        if checksummed && Crc32.update 0 data (pos + 8) len <> u32_at (pos + 4)
        then (List.rev acc, pos)
        else
          match decode_body (String.sub data (pos + header) len) with
          | None -> (List.rev acc, pos)
          | Some r -> go (pos + header + len) (r :: acc)
      end
    end
  in
  go 0 []
