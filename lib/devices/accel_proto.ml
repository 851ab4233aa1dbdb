module Wire = Lastcpu_proto.Wire

type job =
  | Checksum of { va : int64; len : int }
  | Word_count of { va : int64; len : int }
  | Upper of { src : int64; dst : int64; len : int }
  | Histogram of { va : int64; len : int; dst : int64 }

type outcome = Value of int64 | Written of int | Fault of string

let job_bytes = function
  | Checksum { len; _ } | Word_count { len; _ } -> len
  | Upper { len; _ } -> 2 * len
  | Histogram { len; _ } -> len + (256 * 8)

(* One byte layout per message, sized by [Wire.Sizer] and written once
   into an exact-size buffer by [Wire.Bytes_writer]. *)
module Emit (W : Wire.SINK) = struct
  let job w = function
    | Checksum { va; len } ->
      W.byte w 0;
      W.int64 w va;
      W.varint w len
    | Word_count { va; len } ->
      W.byte w 1;
      W.int64 w va;
      W.varint w len
    | Upper { src; dst; len } ->
      W.byte w 2;
      W.int64 w src;
      W.int64 w dst;
      W.varint w len
    | Histogram { va; len; dst } ->
      W.byte w 3;
      W.int64 w va;
      W.varint w len;
      W.int64 w dst

  let outcome w = function
    | Value v ->
      W.byte w 0;
      W.int64 w v
    | Written n ->
      W.byte w 1;
      W.varint w n
    | Fault m ->
      W.byte w 2;
      W.string w m
end

module Emit_size = Emit (Wire.Sizer)
module Emit_bytes = Emit (Wire.Bytes_writer)

let encode_job j = Wire.encode_sized Emit_size.job Emit_bytes.job j

let decode_job s =
  match
    let r = Wire.Reader.create s in
    match Wire.Reader.byte r with
    | 0 ->
      let va = Wire.Reader.int64 r in
      let len = Wire.Reader.varint r in
      Checksum { va; len }
    | 1 ->
      let va = Wire.Reader.int64 r in
      let len = Wire.Reader.varint r in
      Word_count { va; len }
    | 2 ->
      let src = Wire.Reader.int64 r in
      let dst = Wire.Reader.int64 r in
      let len = Wire.Reader.varint r in
      Upper { src; dst; len }
    | 3 ->
      let va = Wire.Reader.int64 r in
      let len = Wire.Reader.varint r in
      let dst = Wire.Reader.int64 r in
      Histogram { va; len; dst }
    | n -> raise (Wire.Malformed (Printf.sprintf "bad job tag %d" n))
  with
  | j -> Ok j
  | exception Wire.Malformed m -> Error m

let encode_outcome o = Wire.encode_sized Emit_size.outcome Emit_bytes.outcome o

let decode_outcome s =
  match
    let r = Wire.Reader.create s in
    match Wire.Reader.byte r with
    | 0 -> Value (Wire.Reader.int64 r)
    | 1 -> Written (Wire.Reader.varint r)
    | 2 -> Fault (Wire.Reader.string r)
    | n -> raise (Wire.Malformed (Printf.sprintf "bad outcome tag %d" n))
  with
  | o -> Ok o
  | exception Wire.Malformed m -> Error m
