(** Control-plane messages carried by the system management bus.

    This is the vocabulary of §2.2 and the Figure-2 sequence: liveness,
    service discovery, service open/close, memory allocation and grants
    (which cause the privileged bus to program IOMMUs), notifications,
    errors and resets. Data transfers never travel here — they go through
    VIRTIO queues in shared memory (§2.3 control/data-plane split). *)

type service_desc = {
  kind : Types.service_kind;
  name : string;  (** instance name, e.g. "ssd0.fs" *)
  version : int;
}

type payload =
  | Device_alive of { services : service_desc list }
      (** sent after self-test; the bus records liveness (§2.2) *)
  | Heartbeat
  | Discover_request of {
      kind : Types.service_kind;
      query : string;  (** e.g. a file name for file services (Fig. 2 step 1) *)
    }
  | Discover_response of {
      provider : Types.device_id;
      service : service_desc;
      query : string;
    }
  | Open_service of {
      service : service_desc;
      pasid : Types.pasid;
      auth : Token.t option;  (** authorization token (Fig. 2 step 3) *)
      params : (string * string) list;
    }
  | Open_response of {
      accepted : bool;
      connection : int;  (** connection id on the provider *)
      shm_bytes : int64;  (** shared memory the provider needs (step 4) *)
      error : Types.error_code option;
    }
  | Close_service of { connection : int }
  | Alloc_request of {
      pasid : Types.pasid;
      va : Types.addr;  (** where the app wants it mapped (step 5) *)
      bytes : int64;
      perm : Types.perm;
    }
  | Alloc_response of {
      ok : bool;
      va : Types.addr;
      bytes : int64;
      grant : Token.t option;  (** capability over the new region *)
      error : Types.error_code option;
    }
  | Map_directive of {
      (* resource controller -> bus: program [device]'s IOMMU (step 6) *)
      device : Types.device_id;
      pasid : Types.pasid;
      va : Types.addr;
      pa : Types.addr;
      bytes : int64;
      perm : Types.perm;
      auth : Token.t;
    }
  | Grant_request of {
      (* owner -> bus: extend an existing grant to another device (step 7) *)
      to_device : Types.device_id;
      pasid : Types.pasid;
      va : Types.addr;
      bytes : int64;
      perm : Types.perm;
      auth : Token.t;
    }
  | Map_complete of { pasid : Types.pasid; va : Types.addr; ok : bool }
  | Free_request of { pasid : Types.pasid; va : Types.addr; bytes : int64 }
  | Unmap_directive of {
      device : Types.device_id;
      pasid : Types.pasid;
      va : Types.addr;
      bytes : int64;
      auth : Token.t;
    }
  | Doorbell of { queue : int }  (** MSI-style notification (§2.3) *)
  | Fault_notify of { pasid : Types.pasid; va : Types.addr; detail : string }
  | Resource_failed of { resource : string }
      (** a resource died but the device survived (§4) *)
  | Device_failed of { device : Types.device_id }
      (** bus broadcast after liveness loss (§4) *)
  | Reset_device
  | Reset_resource of { resource : string }
  | Load_image of { image : string; bytes : int64 }
  | Auth_request of { user : string; credential : string }
  | Auth_response of { ok : bool; session : Token.t option }
  | Error_msg of { code : Types.error_code; detail : string }
  | App_message of { tag : string; body : string }
      (** application-defined control payloads *)

type t = {
  src : Types.device_id;
  dst : Types.dest;
  corr : int;  (** correlation id: responses echo the request's id *)
  deadline_ns : int64 option;
      (** absolute virtual deadline: hops may shed the message once it has
          passed — servicing it can no longer help the requester *)
  payload : payload;
}

val make :
  ?deadline_ns:int64 ->
  src:Types.device_id ->
  dst:Types.dest ->
  corr:int ->
  payload ->
  t
(** [deadline_ns] defaults to none (the message is never shed). *)

val expired : t -> now:int64 -> bool
(** The message carries a deadline and [now] is past it. *)

val busy_detail : retry_after_ns:int64 -> string
(** Detail string for [Error_msg E_busy] carrying a deterministic
    retry-after hint (virtual ns until the rejecting queue drains). *)

val retry_after_of_detail : string -> int64 option
(** Parse the hint back out of a {!busy_detail} string. *)

val payload_tag : payload -> string
(** Short machine-readable tag for tracing, e.g. "discover-req". *)

val trace_kind : payload -> string
(** The bus trace's entry kind for a message: ["msg."] followed by its
    {!payload_tag}, e.g. "msg.discover-req". Allocates nothing. *)

val wire_size : t -> int
(** Encoded size in bytes (used by the latency model). *)

val pp : Format.formatter -> t -> unit
