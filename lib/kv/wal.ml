module Wire = Lastcpu_proto.Wire
module Crc32 = Lastcpu_sim.Crc32

type record = Put of { key : string; value : string } | Del of { key : string }

let encode r =
  let w = Wire.Writer.create () in
  (match r with
  | Put { key; value } ->
    Wire.Writer.byte w 0;
    Wire.Writer.string w key;
    Wire.Writer.string w value
  | Del { key } ->
    Wire.Writer.byte w 1;
    Wire.Writer.string w key);
  let body = Wire.Writer.contents w in
  (* Framing: u32 length with the top bit marking "CRC follows", then the
     CRC-32 of the body, then the body. Legacy logs (no top bit, no CRC)
     still decode; the marker bit is free because record bodies are tiny. *)
  let len = String.length body in
  let crc = Crc32.string body in
  let u32 v =
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr (v land 0xff));
    Bytes.set b 1 (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b 2 (Char.chr ((v lsr 16) land 0xff));
    Bytes.set b 3 (Char.chr ((v lsr 24) land 0xff));
    Bytes.to_string b
  in
  u32 (len lor 0x8000_0000) ^ u32 crc ^ body

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
        let body = String.sub data (pos + header) len in
        (* A CRC mismatch means the record (or its tail) never fully hit
           flash: stop here, exactly like a short final record. *)
        if checksummed && Crc32.string body <> u32_at (pos + 4) then
          (List.rev acc, pos)
        else
          match decode_body body with
          | None -> (List.rev acc, pos)
          | Some r -> go (pos + header + len) (r :: acc)
      end
    end
  in
  go 0 []
