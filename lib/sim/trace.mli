(** Structured trace of simulation events.

    The trace is the observable record of a run: every bus message, device
    state change and fault can be appended with its virtual timestamp. Tests
    assert on traces (e.g. the Figure-2 sequence) and the CLI pretty-prints
    them. Retention is opt-in per engine ({!Engine.create}'s
    [trace_capacity]); a trace that retains nothing still times spans. *)

type entry = {
  time : int64;  (** virtual nanoseconds *)
  actor : string;  (** which component produced the event *)
  kind : string;  (** short machine-readable tag, e.g. "bus.route" *)
  detail : string;  (** human-readable description *)
}

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] is an empty trace that retains the newest
    [capacity] entries, dropping the oldest first in O(1); the default
    keeps everything. [~capacity:0] retains nothing — appends are no-ops —
    while span timing (the begin-time side table) keeps working, so
    metrics histograms fed from spans are the same either way. *)

val enabled : t -> bool
(** [false] iff created with [~capacity:0]: appends are dropped, and call
    sites must not build detail strings (see {!Engine.trace_event}). *)

val append : t -> time:int64 -> actor:string -> kind:string -> string -> unit
val length : t -> int
val entries : t -> entry list
(** Entries in chronological (append) order. *)

val find_all : t -> kind:string -> entry list

(** {2 Spans}

    A span is a pair of entries — kind ["span.begin"] / ["span.end"] with
    detail ["name#id"] — correlated by its name and the caller-supplied id
    (typically a bus correlation id or an [Engine.fresh_span_id]). Begin
    times live in a side table keyed by that pair, so spans time the same
    whether entries are retained or not; nothing is formatted unless they
    are. *)

val span_begin_kind : string
val span_end_kind : string

val begin_span : t -> time:int64 -> actor:string -> name:string -> id:int -> unit

val end_span : t -> time:int64 -> actor:string -> name:string -> id:int -> int
(** Nanoseconds since the matching [begin_span], or [-1] if the span was
    never opened (or already ended — ending twice is harmless). *)

val open_span_count : t -> int
(** Spans begun but not yet ended. *)

val pp : Format.formatter -> t -> unit

val to_json_lines : t -> string
(** One JSON object per line ({i jsonl}), chronological: for offline
    analysis of runs. Strings are escaped per RFC 8259. *)
