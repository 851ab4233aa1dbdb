type entry = { time : int64; actor : string; kind : string; detail : string }

type t = {
  entries : entry Queue.t;  (* oldest first *)
  capacity : int;  (* 0 = retain nothing: appends are no-ops *)
  (* Begin times of open spans, one table per span name, keyed by id. The
     names are a handful of literals, so a short list beats hashing them. *)
  mutable open_spans : (string * (int, int64) Hashtbl.t) list;
}

let create ?(capacity = max_int) () =
  { entries = Queue.create (); capacity; open_spans = [] }

let enabled t = t.capacity > 0

let append t ~time ~actor ~kind detail =
  if t.capacity > 0 then begin
    Queue.push { time; actor; kind; detail } t.entries;
    if Queue.length t.entries > t.capacity then ignore (Queue.pop t.entries)
  end

let length t = Queue.length t.entries
let entries t = List.of_seq (Queue.to_seq t.entries)
let find_all t ~kind = List.filter (fun e -> e.kind = kind) (entries t)

(* Spans: paired begin/end entries correlated by name and id; retained
   entries carry "name#id" as detail. Begin times are kept in a side table
   (not recovered from entries) so spans time correctly whether or not, and
   however many, entries are retained. *)
let span_begin_kind = "span.begin"
let span_end_kind = "span.end"

let starts t name =
  let rec find = function
    | (n, tbl) :: _ when String.equal n name -> tbl
    | _ :: rest -> find rest
    | [] ->
      let tbl = Hashtbl.create 16 in
      t.open_spans <- (name, tbl) :: t.open_spans;
      tbl
  in
  find t.open_spans

let append_span t ~time ~actor ~kind ~name ~id =
  if t.capacity > 0 then
    append t ~time ~actor ~kind (name ^ "#" ^ string_of_int id)

let begin_span t ~time ~actor ~name ~id =
  Hashtbl.replace (starts t name) id time;
  append_span t ~time ~actor ~kind:span_begin_kind ~name ~id

let end_span t ~time ~actor ~name ~id =
  let tbl = starts t name in
  match Hashtbl.find tbl id with
  | exception Not_found -> -1 (* unknown or already ended: no sample *)
  | start ->
    Hashtbl.remove tbl id;
    append_span t ~time ~actor ~kind:span_end_kind ~name ~id;
    Int64.to_int (Int64.sub time start)

let open_span_count t =
  List.fold_left (fun n (_, tbl) -> n + Hashtbl.length tbl) 0 t.open_spans

let pp_entry ppf e =
  Format.fprintf ppf "[%8Ld ns] %-14s %-22s %s" e.time e.actor e.kind e.detail

let pp ppf t =
  Queue.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) t.entries

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json_lines t =
  let buf = Buffer.create 4096 in
  Queue.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"time_ns\":%Ld,\"actor\":\"%s\",\"kind\":\"%s\",\"detail\":\"%s\"}\n"
           e.time (json_escape e.actor) (json_escape e.kind)
           (json_escape e.detail)))
    t.entries;
  Buffer.contents buf
