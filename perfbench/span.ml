(* Spans recorded by the benchmark around its own calls into the emulator.

   A span has a name, a category (its layer or phase), its own id, the id
   of the span that caused it, a request id (the client op it belongs to,
   0 for none), a display lane, and its host start/end. Client-op spans
   also carry their virtual (engine) start/end. Spans stay in memory and
   are written once, as Chrome trace-event JSON, when the run ends.

   Each buffer is confined to one lane: the main thread owns one, and in a
   sharded workload every shard owns one, written only by whichever domain
   runs that shard's window (windows are separated by barriers). Ids are
   made unique across buffers by a per-buffer base. *)

type t = {
  name : string;
  cat : string;
  id : int;
  parent : int;
  req : int;
  tid : int;
  host_start : int64;
  host_end : int64;
  virt_start : int64;  (** -1 when the span has no virtual extent *)
  virt_end : int64;
}

type buf = { base : int; mutable next : int; mutable spans : t list }

let now () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let buf ~lane = { base = (lane + 1) lsl 40; next = 0; spans = [] }

let fresh_id b =
  b.next <- b.next + 1;
  b.base + b.next

let add b ~name ~cat ?(parent = 0) ?(req = 0) ?(tid = 0) ?(virt = (-1L, -1L))
    ~id host_start host_end =
  let virt_start, virt_end = virt in
  b.spans <-
    {
      name;
      cat;
      id;
      parent;
      req;
      tid;
      host_start;
      host_end;
      virt_start;
      virt_end;
    }
    :: b.spans

(* Time [f ()] as a span on [b] (when given) and return its result with
   the host seconds it took. *)
let timed ?b ?parent ~name ~cat f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  Option.iter (fun b -> add b ~name ~cat ?parent ~id:(fresh_id b) t0 t1) b;
  (r, seconds_between t0 t1)

(* Ids grow within a buffer: [mark b] is the last id handed out, and
   [drop_after b ~mark ~cat] forgets the [cat] spans recorded since. *)
let mark b = b.base + b.next
let drop_after b ~mark ~cat =
  b.spans <- List.filter (fun s -> s.id <= mark || s.cat <> cat) b.spans

let count bufs = List.fold_left (fun n b -> n + List.length b.spans) 0 bufs

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event format, "JSON object" flavour: complete events
   ([ph = "X"]) with microsecond [ts]/[dur]. Process 1 is host time
   (relative to the earliest span); process 2 repeats every span that has
   a virtual extent on the engine's virtual clock. *)
let write_chrome ~path bufs =
  let all = List.concat_map (fun b -> b.spans) bufs in
  let origin =
    List.fold_left (fun m s -> if s.host_start < m then s.host_start else m)
      Int64.max_int all
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  let event ~pid ~start ~stop s =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\
       \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
      (escape s.name) (escape s.cat) pid s.tid
      (Int64.to_float start /. 1e3)
      (Int64.to_float (Int64.sub stop start) /. 1e3)
      s.id s.parent s.req
  in
  List.iter
    (fun s ->
      event ~pid:1 ~start:(Int64.sub s.host_start origin)
        ~stop:(Int64.sub s.host_end origin) s;
      if s.virt_start >= 0L then event ~pid:2 ~start:s.virt_start ~stop:s.virt_end s)
    all;
  output_string oc
    "\n],\"metadata\":{\"pid 1\":\"host time\",\"pid 2\":\"virtual time\"}}\n";
  close_out oc
