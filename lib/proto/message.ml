type service_desc = {
  kind : Types.service_kind;
  name : string;
  version : int;
}

type payload =
  | Device_alive of { services : service_desc list }
  | Heartbeat
  | Discover_request of { kind : Types.service_kind; query : string }
  | Discover_response of {
      provider : Types.device_id;
      service : service_desc;
      query : string;
    }
  | Open_service of {
      service : service_desc;
      pasid : Types.pasid;
      auth : Token.t option;
      params : (string * string) list;
    }
  | Open_response of {
      accepted : bool;
      connection : int;
      shm_bytes : int64;
      error : Types.error_code option;
    }
  | Close_service of { connection : int }
  | Alloc_request of {
      pasid : Types.pasid;
      va : Types.addr;
      bytes : int64;
      perm : Types.perm;
    }
  | Alloc_response of {
      ok : bool;
      va : Types.addr;
      bytes : int64;
      grant : Token.t option;
      error : Types.error_code option;
    }
  | Map_directive of {
      device : Types.device_id;
      pasid : Types.pasid;
      va : Types.addr;
      pa : Types.addr;
      bytes : int64;
      perm : Types.perm;
      auth : Token.t;
    }
  | Grant_request of {
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
  | Doorbell of { queue : int }
  | Fault_notify of { pasid : Types.pasid; va : Types.addr; detail : string }
  | Resource_failed of { resource : string }
  | Device_failed of { device : Types.device_id }
  | Reset_device
  | Reset_resource of { resource : string }
  | Load_image of { image : string; bytes : int64 }
  | Auth_request of { user : string; credential : string }
  | Auth_response of { ok : bool; session : Token.t option }
  | Error_msg of { code : Types.error_code; detail : string }
  | App_message of { tag : string; body : string }

type t = {
  src : Types.device_id;
  dst : Types.dest;
  corr : int;
  deadline_ns : int64 option;
  payload : payload;
}

let make ?deadline_ns ~src ~dst ~corr payload =
  { src; dst; corr; deadline_ns; payload }

let expired t ~now =
  match t.deadline_ns with Some d -> now > d | None -> false

(* Deterministic retry-after hint carried in [Error_msg E_busy] details.
   A string field keeps the wire format stable; both ends use these
   helpers so the hint survives encoding. *)
let busy_detail ~retry_after_ns =
  Printf.sprintf "busy; retry-after=%Ldns" retry_after_ns

let retry_after_of_detail detail =
  let prefix = "retry-after=" in
  let plen = String.length prefix in
  let dlen = String.length detail in
  let rec find i =
    if i + plen > dlen then None
    else if String.sub detail i plen = prefix then begin
      let j = ref (i + plen) in
      while !j < dlen && detail.[!j] >= '0' && detail.[!j] <= '9' do incr j done;
      if !j = i + plen then None
      else Int64.of_string_opt (String.sub detail (i + plen) (!j - i - plen))
    end
    else find (i + 1)
  in
  find 0

let payload_tag = function
  | Device_alive _ -> "device-alive"
  | Heartbeat -> "heartbeat"
  | Discover_request _ -> "discover-req"
  | Discover_response _ -> "discover-resp"
  | Open_service _ -> "open-service"
  | Open_response _ -> "open-resp"
  | Close_service _ -> "close-service"
  | Alloc_request _ -> "alloc-req"
  | Alloc_response _ -> "alloc-resp"
  | Map_directive _ -> "map-directive"
  | Grant_request _ -> "grant-req"
  | Map_complete _ -> "map-complete"
  | Free_request _ -> "free-req"
  | Unmap_directive _ -> "unmap-directive"
  | Doorbell _ -> "doorbell"
  | Fault_notify _ -> "fault-notify"
  | Resource_failed _ -> "resource-failed"
  | Device_failed _ -> "device-failed"
  | Reset_device -> "reset-device"
  | Reset_resource _ -> "reset-resource"
  | Load_image _ -> "load-image"
  | Auth_request _ -> "auth-req"
  | Auth_response _ -> "auth-resp"
  | Error_msg _ -> "error"
  | App_message _ -> "app-msg"

(* ["msg." ^ payload_tag p] as literals, so a trace call site names its
   entry kind without allocating. *)
let trace_kind = function
  | Device_alive _ -> "msg.device-alive"
  | Heartbeat -> "msg.heartbeat"
  | Discover_request _ -> "msg.discover-req"
  | Discover_response _ -> "msg.discover-resp"
  | Open_service _ -> "msg.open-service"
  | Open_response _ -> "msg.open-resp"
  | Close_service _ -> "msg.close-service"
  | Alloc_request _ -> "msg.alloc-req"
  | Alloc_response _ -> "msg.alloc-resp"
  | Map_directive _ -> "msg.map-directive"
  | Grant_request _ -> "msg.grant-req"
  | Map_complete _ -> "msg.map-complete"
  | Free_request _ -> "msg.free-req"
  | Unmap_directive _ -> "msg.unmap-directive"
  | Doorbell _ -> "msg.doorbell"
  | Fault_notify _ -> "msg.fault-notify"
  | Resource_failed _ -> "msg.resource-failed"
  | Device_failed _ -> "msg.device-failed"
  | Reset_device -> "msg.reset-device"
  | Reset_resource _ -> "msg.reset-resource"
  | Load_image _ -> "msg.load-image"
  | Auth_request _ -> "msg.auth-req"
  | Auth_response _ -> "msg.auth-resp"
  | Error_msg _ -> "msg.error"
  | App_message _ -> "msg.app-msg"

(* Size model: header (16B) plus a per-payload estimate. Exact fidelity is
   unnecessary; the codec gives true sizes where messages are actually
   serialised, and the latency model only needs the right magnitude. *)
let payload_size = function
  | Device_alive { services } ->
    4 + List.fold_left (fun a s -> a + 8 + String.length s.name) 0 services
  | Heartbeat -> 1
  | Discover_request { query; _ } -> 2 + String.length query
  | Discover_response { service; query; _ } ->
    10 + String.length service.name + String.length query
  | Open_service { service; params; auth; _ } ->
    8 + String.length service.name
    + List.fold_left
        (fun a (k, v) -> a + String.length k + String.length v + 2)
        0 params
    + (match auth with Some _ -> 64 | None -> 0)
  | Open_response _ -> 20
  | Close_service _ -> 8
  | Alloc_request _ -> 25
  | Alloc_response { grant; _ } ->
    24 + (match grant with Some _ -> 64 | None -> 0)
  | Map_directive _ -> 100
  | Grant_request _ -> 96
  | Map_complete _ -> 17
  | Free_request _ -> 20
  | Unmap_directive _ -> 92
  | Doorbell _ -> 8
  | Fault_notify { detail; _ } -> 16 + String.length detail
  | Resource_failed { resource } -> 4 + String.length resource
  | Device_failed _ -> 8
  | Reset_device -> 1
  | Reset_resource { resource } -> 4 + String.length resource
  | Load_image { image; _ } -> 12 + String.length image
  | Auth_request { user; credential } ->
    4 + String.length user + String.length credential
  | Auth_response { session; _ } -> 2 + (match session with Some _ -> 64 | None -> 0)
  | Error_msg { detail; _ } -> 6 + String.length detail
  | App_message { tag; body } -> 4 + String.length tag + String.length body

let wire_size t = 16 + payload_size t.payload

let pp_payload ppf = function
  | Discover_request { kind; query } ->
    Format.fprintf ppf "discover %s %S" (Types.service_kind_to_string kind)
      query
  | Discover_response { provider; service; _ } ->
    Format.fprintf ppf "found %s at dev%d" service.name provider
  | Open_response { accepted; connection; shm_bytes; _ } ->
    Format.fprintf ppf "open %s conn=%d shm=%Ld"
      (if accepted then "ok" else "denied")
      connection shm_bytes
  | Alloc_request { pasid; va; bytes; perm } ->
    Format.fprintf ppf "alloc pasid=%d va=%a bytes=%Ld perm=%s" pasid
      Types.pp_addr va bytes (Types.perm_to_string perm)
  | Map_directive { device; pasid; va; pa; bytes; _ } ->
    Format.fprintf ppf "map dev%d pasid=%d %a->%a len=%Ld" device pasid
      Types.pp_addr va Types.pp_addr pa bytes
  | Error_msg { code; detail } ->
    Format.fprintf ppf "error %s: %s" (Types.error_code_to_string code) detail
  | p -> Format.pp_print_string ppf (payload_tag p)

let pp ppf t =
  Format.fprintf ppf "dev%d -> %s #%d: %a" t.src
    (Types.dest_to_string t.dst)
    t.corr pp_payload t.payload
