module Wire = Lastcpu_proto.Wire

type op = Get of string | Put of string * string | Del of string | Scan of string

type request = { corr : int; op : op }

type reply =
  | Value of string option
  | Done
  | Deleted of bool
  | Pairs of (string * string) list
  | Failed of string

type response = { corr : int; reply : reply }

(* One byte layout per message, sized by [Wire.Sizer] and written once
   into an exact-size buffer by [Wire.Bytes_writer]. *)
module Emit (W : Wire.SINK) = struct
  let request w { corr; op } =
    W.varint w corr;
    match op with
    | Get key ->
      W.byte w 0;
      W.string w key
    | Put (key, value) ->
      W.byte w 1;
      W.string w key;
      W.string w value
    | Del key ->
      W.byte w 2;
      W.string w key
    | Scan prefix ->
      W.byte w 3;
      W.string w prefix

  let response w { corr; reply } =
    W.varint w corr;
    match reply with
    | Value v ->
      W.byte w 0;
      W.option w W.string v
    | Done -> W.byte w 1
    | Deleted b ->
      W.byte w 2;
      W.bool w b
    | Pairs pairs ->
      W.byte w 3;
      W.list w
        (fun w (k, v) ->
          W.string w k;
          W.string w v)
        pairs
    | Failed m ->
      W.byte w 4;
      W.string w m
end

module Emit_size = Emit (Wire.Sizer)
module Emit_bytes = Emit (Wire.Bytes_writer)

let encode_request r = Wire.encode_sized Emit_size.request Emit_bytes.request r

let decode_request s =
  match
    let r = Wire.Reader.create s in
    let corr = Wire.Reader.varint r in
    let op =
      match Wire.Reader.byte r with
      | 0 -> Get (Wire.Reader.string r)
      | 1 ->
        let key = Wire.Reader.string r in
        let value = Wire.Reader.string r in
        Put (key, value)
      | 2 -> Del (Wire.Reader.string r)
      | 3 -> Scan (Wire.Reader.string r)
      | n -> raise (Wire.Malformed (Printf.sprintf "bad op %d" n))
    in
    { corr; op }
  with
  | v -> Ok v
  | exception Wire.Malformed m -> Error m

let encode_response r =
  Wire.encode_sized Emit_size.response Emit_bytes.response r

let decode_response s =
  match
    let r = Wire.Reader.create s in
    let corr = Wire.Reader.varint r in
    let reply =
      match Wire.Reader.byte r with
      | 0 -> Value (Wire.Reader.option r Wire.Reader.string)
      | 1 -> Done
      | 2 -> Deleted (Wire.Reader.bool r)
      | 3 ->
        Pairs
          (Wire.Reader.list r (fun r ->
               let k = Wire.Reader.string r in
               let v = Wire.Reader.string r in
               (k, v)))
      | 4 -> Failed (Wire.Reader.string r)
      | n -> raise (Wire.Malformed (Printf.sprintf "bad result tag %d" n))
    in
    { corr; reply }
  with
  | v -> Ok v
  | exception Wire.Malformed m -> Error m
