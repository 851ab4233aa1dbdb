(* The four workloads. Each builds a machine from the emulator's public
   constructors (set-up), then drives closed-loop clients through it (the
   timed phase). Every client input — keys, op kinds, think times, page
   addresses — is drawn from the benchmark seed before the timed phase;
   the emulator itself runs with its default seed, so the generated ops
   are all it sees.

   Clients check their own replies: each KV client owns a disjoint key
   range and keeps a shadow map of its last acknowledged Put, so every Get
   must return exactly that value; every alloc must return a token and
   every free [Ok]. A violation, an error reply or a missing reply counts
   as a failed op. *)

module Types = Lastcpu_proto.Types
module Engine = Lastcpu_sim.Engine
module Metrics = Lastcpu_sim.Metrics
module Sanitizer = Lastcpu_sim.Sanitizer
module Temporal = Lastcpu_sim.Temporal
module Parallel = Lastcpu_sim.Parallel
module Netsim = Lastcpu_net.Netsim
module Shardlink = Lastcpu_bus.Shardlink
module Device = Lastcpu_device.Device
module Smart_nic = Lastcpu_devices.Smart_nic
module Memctl = Lastcpu_devices.Memctl
module Kv_app = Lastcpu_kv.Kv_app
module Kv_proto = Lastcpu_kv.Kv_proto
module Store = Lastcpu_kv.Store
module System = Lastcpu_core.System
module Scenario_kvs = Lastcpu_core.Scenario_kvs
module Checkpoint = Lastcpu_core.Checkpoint

(* --- seeded inputs ----------------------------------------------------------- *)

let rng ~seed ~stream = Random.State.make [| seed; stream |]

(* Cumulative Zipf(s) weights over ranks 0..n-1. *)
let zipf_cdf ~n ~s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf st =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Exponential think time with the given mean, in whole nanoseconds. *)
let think st ~mean_ns =
  if mean_ns <= 0. then 0L
  else Int64.of_float (-.mean_ns *. log (1. -. Random.State.float st 1.0))

let value ~bytes prefix =
  let n = String.length prefix in
  if n >= bytes then prefix else prefix ^ String.make (bytes - n) '.'

(* --- what a timed phase reports ---------------------------------------------- *)

type drive = {
  attempted : int;
  failed : int;
  kv_ops : int;  (** KV ops among [attempted] *)
  latencies : float array;  (** virtual ns of every completed op *)
  virtual_ns : int64;  (** virtual time the phase spanned *)
  compact_s : float list;  (** host seconds of each [Store.compact] *)
  checkpoint_s : float list;  (** host seconds of each checkpoint save *)
  checkpoint_bytes : int;
}

(* A built machine: one system per shard. *)
type machine = {
  systems : System.t array;
  apps : Kv_app.t array;
  target : Checkpoint.target;
  pool : Parallel.Pool.t option;
  boot_s : float;
  preload_s : float;
  drive : unit -> drive;
}

type ctx = {
  seed : int;
  scale : int;  (** divides op counts; 1 for measurement *)
  lanes : int;
  snapshots : bool;
  snap_path : string;
  spans : Span.buf array option;  (** main lane first, then one per shard *)
  parent : int;  (** span id of the round *)
}

let engines m = Array.map System.engine m.systems

let digest m =
  Array.fold_left
    (fun acc e -> Sanitizer.combine acc (Metrics.digest (Engine.metrics e)))
    0x70657266L (engines m)

let release m = Option.iter Parallel.Pool.shutdown m.pool
let main_spans ctx = Option.map (fun a -> a.(0)) ctx.spans
let shard_spans ctx i = Option.map (fun a -> a.(i + 1)) ctx.spans

(* --- closed-loop KV client over the network ---------------------------------- *)

type kv_op = Get of int | Put of int

type kv_client = {
  cid : int;
  engine : Engine.t;
  ep : Netsim.endpoint;
  dst : int;
  keys : string array;
  value_bytes : int;
  ops : kv_op array;
  thinks : int64 array;
  shadow : string option array;  (** last acknowledged value per key *)
  lat : float array;
  mutable next : int;
  mutable upto : int;
  mutable failed : int;
  mutable inflight : string option;
  mutable sent_virt : int64;
  mutable sent_host : int64;
  spans : Span.buf option;
  mutable parent : int;
}

let put_value c j = value ~bytes:c.value_bytes (Printf.sprintf "c%d-op%d-" c.cid j)

let rec kv_send_next c =
  if c.next < c.upto then begin
    let j = c.next in
    let send () =
      let op, inflight =
        match c.ops.(j) with
        | Get k -> (Kv_proto.Get c.keys.(k), None)
        | Put k ->
          let v = put_value c j in
          (Kv_proto.Put (c.keys.(k), v), Some v)
      in
      c.inflight <- inflight;
      c.sent_virt <- Engine.now c.engine;
      if c.spans <> None then c.sent_host <- Span.now ();
      Netsim.send c.ep ~dst:c.dst (Kv_proto.encode_request { Kv_proto.corr = j; op })
    in
    if c.thinks.(j) > 0L then Engine.schedule c.engine ~delay:c.thinks.(j) send
    else send ()
  end

and kv_on_reply c frame =
  let j = c.next in
  let ok =
    match Kv_proto.decode_response frame with
    | Error _ -> false
    | Ok { Kv_proto.corr; reply } -> (
      corr = j
      &&
      match (c.ops.(j), reply, c.inflight) with
      | Put k, Kv_proto.Done, Some v ->
        c.shadow.(k) <- Some v;
        true
      | Get k, Kv_proto.Value got, None -> got = c.shadow.(k)
      | _ -> false)
  in
  let now = Engine.now c.engine in
  c.lat.(j) <- Int64.to_float (Int64.sub now c.sent_virt);
  if not ok then c.failed <- c.failed + 1;
  (match c.spans with
  | Some b ->
    let name = match c.ops.(j) with Get _ -> "kv.get" | Put _ -> "kv.put" in
    Span.add b ~name ~cat:"client-op" ~parent:c.parent
      ~req:((c.cid lsl 24) lor j) ~tid:(c.cid + 1) ~virt:(c.sent_virt, now)
      ~id:(Span.fresh_id b) c.sent_host (Span.now ())
  | None -> ());
  c.next <- j + 1;
  kv_send_next c

let kv_client ~cid system ~keys ~preload ~value_bytes ~ops ~thinks ~spans =
  let net = System.net system in
  let ep = Netsim.endpoint net ~name:(Printf.sprintf "bench-client-%d" cid) in
  let c =
    {
      cid;
      engine = System.engine system;
      ep;
      dst = Smart_nic.endpoint_address (System.nic system 0);
      keys;
      value_bytes;
      ops;
      thinks;
      shadow = Array.map preload keys;
      lat = Array.make (Array.length ops) nan;
      next = 0;
      upto = 0;
      failed = 0;
      inflight = None;
      sent_virt = 0L;
      sent_host = 0L;
      spans;
      parent = 0;
    }
  in
  Netsim.set_receiver ep (fun ~src:_ frame -> kv_on_reply c frame);
  c

let kv_slice c ~upto ~parent =
  c.upto <- min upto (Array.length c.ops);
  c.parent <- parent;
  kv_send_next c

(* Ops that never got a reply are failures too. *)
let kv_unfinished c = c.upto - c.next

let kv_gen ~st ~n_ops ~n_keys ~put_share ~zipf_s ~think_ns =
  let cdf = zipf_cdf ~n:n_keys ~s:zipf_s in
  (* Exactly [put_share] of the ops are Puts, at seeded positions. *)
  let puts = int_of_float (Float.round (put_share *. float_of_int n_ops)) in
  let is_put = Array.init n_ops (fun i -> i < puts) in
  for i = n_ops - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = is_put.(i) in
    is_put.(i) <- is_put.(j);
    is_put.(j) <- t
  done;
  let ops =
    Array.map (fun put -> let k = zipf_draw cdf st in if put then Put k else Get k) is_put
  in
  let thinks = Array.init n_ops (fun _ -> think st ~mean_ns:think_ns) in
  (ops, thinks)

let preload_value ~bytes key = value ~bytes ("pre-" ^ key)

(* Sequential local Puts (set-up traffic, not counted as client ops). *)
let preload system app keys ~value_bytes =
  let n = Array.length keys in
  let failed = ref 0 in
  let rec go i =
    if i < n then
      Kv_app.local_op app
        (Kv_proto.Put (keys.(i), preload_value ~bytes:value_bytes keys.(i)))
        (function Kv_proto.Done -> go (i + 1) | _ -> incr failed; go (i + 1))
  in
  go 0;
  System.run_until_quiescent system;
  if !failed > 0 then failwith (Printf.sprintf "preload: %d puts failed" !failed)

let boot_kvs ?(spec = System.default_spec) () =
  match Scenario_kvs.run ~spec ~smoke_ops:0 () with
  | Error e -> failwith ("KVS bring-up failed: " ^ e)
  | Ok o -> o

(* Latencies of the ops that completed (the others are still nan). *)
let completed lats =
  let done_ a = Array.of_seq (Seq.filter (fun x -> not (Float.is_nan x)) (Array.to_seq a)) in
  Array.concat (List.map done_ lats)

(* --- kv-read and kv-write ---------------------------------------------------- *)

type kv_shape = {
  clients : int;
  keys_per_client : int;
  ops_per_client : int;
  put_share : float;
  zipf_s : float;
  value_bytes : int;
  think_ns : float;
  compactions : int;
      (** the ops run in this many rounds, each ending in a compaction; 0 = none *)
}

let kv_read_shape =
  {
    clients = 4;
    keys_per_client = 256;
    ops_per_client = 3000;
    put_share = 0.05;
    zipf_s = 0.99;
    value_bytes = 100;
    think_ns = 4_000.;
    compactions = 0;
  }

let kv_write_shape =
  {
    clients = 2;
    keys_per_client = 128;
    ops_per_client = 800;
    put_share = 0.5;
    zipf_s = 0.99;
    value_bytes = 4096;
    think_ns = 4_000.;
    compactions = 4;
  }

let kv_machine shape ctx =
  let (o : Scenario_kvs.outcome), boot_s =
    Span.timed ?b:(main_spans ctx) ~parent:ctx.parent ~name:"setup.boot"
      ~cat:"setup" (fun () -> boot_kvs ())
  in
  let system = o.Scenario_kvs.system and app = o.Scenario_kvs.app in
  let n_keys = shape.clients * shape.keys_per_client in
  let all_keys = Array.init n_keys (Printf.sprintf "key-%06d") in
  let (), preload_s =
    Span.timed ?b:(main_spans ctx) ~parent:ctx.parent ~name:"setup.preload"
      ~cat:"setup" (fun () ->
        preload system app all_keys ~value_bytes:shape.value_bytes)
  in
  let n_ops = max 1 (shape.ops_per_client / ctx.scale) in
  let clients =
    List.init shape.clients (fun cid ->
        let st = rng ~seed:ctx.seed ~stream:cid in
        let ops, thinks =
          kv_gen ~st ~n_ops ~n_keys:shape.keys_per_client
            ~put_share:shape.put_share ~zipf_s:shape.zipf_s
            ~think_ns:shape.think_ns
        in
        let keys = Array.sub all_keys (cid * shape.keys_per_client) shape.keys_per_client in
        kv_client ~cid system ~keys
          ~preload:(fun k -> Some (preload_value ~bytes:shape.value_bytes k))
          ~value_bytes:shape.value_bytes ~ops ~thinks ~spans:(main_spans ctx))
  in
  let drive () =
    let engine = System.engine system in
    let v0 = Engine.now engine in
    let compact_s = ref [] in
    let failed_compactions = ref 0 in
    let rounds = max 1 shape.compactions in
    for r = 1 to rounds do
      let upto = n_ops * r / rounds in
      List.iter (fun c -> kv_slice c ~upto ~parent:ctx.parent) clients;
      System.run_until_quiescent system;
      if shape.compactions > 0 then begin
        let (), s =
          Span.timed ?b:(main_spans ctx) ~parent:ctx.parent ~name:"kv.compact"
            ~cat:"kv" (fun () ->
              Store.compact (Kv_app.store app) (function
                | Ok () -> ()
                | Error _ -> incr failed_compactions);
              System.run_until_quiescent system)
        in
        compact_s := s :: !compact_s
      end
    done;
    if !failed_compactions > 0 then
      failwith (Printf.sprintf "%d compactions failed" !failed_compactions);
    let attempted = n_ops * shape.clients in
    let failed =
      List.fold_left (fun a c -> a + c.failed + kv_unfinished c) 0 clients
    in
    {
      attempted;
      failed;
      kv_ops = attempted;
      latencies = completed (List.map (fun c -> c.lat) clients);
      virtual_ns = Int64.sub (Engine.now engine) v0;
      compact_s = List.rev !compact_s;
      checkpoint_s = [];
      checkpoint_bytes = 0;
    }
  in
  {
    systems = [| system |];
    apps = [| app |];
    target = Checkpoint.Single (System.engine system);
    pool = None;
    boot_s;
    preload_s;
    drive;
  }

(* --- ctl-churn ----------------------------------------------------------------- *)

let churn_apps = 8
let churn_pairs_per_app = 500
let churn_window_pages = 256
let churn_think_ns = 2_000.

type churner = {
  dev : Device.t;
  mc : Types.device_id;
  pasid : int;
  vas : int64 array;
  pthinks : int64 array;
  plat : float array;
  mutable pnext : int;
  mutable plimit : int;
  mutable pfailed : int;
}

(* One alloc -> free pair of one page, then (after the think time) the
   next, until [plimit]. [timeout]/[retries] arm the cross-shard variant's
   retransmits, as in T16. *)
let rec churn_next ?timeout ?retries ch ~engine ~spans ~tid ~parent =
  let j = ch.pnext in
  if j < ch.plimit then begin
    let va = ch.vas.(j) in
    let go () =
      let v0 = Engine.now engine in
      let h0 = if spans <> None then Span.now () else 0L in
      let finish ok =
        let now = Engine.now engine in
        ch.plat.(j) <- Int64.to_float (Int64.sub now v0);
        if not ok then ch.pfailed <- ch.pfailed + 1;
        (match spans with
        | Some b ->
          Span.add b ~name:"ctl.alloc-free" ~cat:"client-op" ~parent
            ~req:((tid lsl 24) lor j) ~tid ~virt:(v0, now) ~id:(Span.fresh_id b) h0
            (Span.now ())
        | None -> ());
        ch.pnext <- j + 1;
        churn_next ?timeout ?retries ch ~engine ~spans ~tid ~parent
      in
      Device.alloc ch.dev ~memctl:ch.mc ~pasid:ch.pasid ~va ~bytes:4096L
        ~perm:Types.perm_rw ?timeout ?retries (function
        | Error _ -> finish false
        | Ok _token ->
          Device.free ch.dev ~memctl:ch.mc ~pasid:ch.pasid ~va ~bytes:4096L
            (function Ok () -> finish true | Error _ -> finish false))
    in
    if ch.pthinks.(j) > 0L then Engine.schedule engine ~delay:ch.pthinks.(j) go else go ()
  end

let churner ~dev ~mc ~pasid ~base ~n ~st =
  {
    dev;
    mc;
    pasid;
    vas =
      Array.init n (fun _ ->
          Int64.add base (Int64.of_int (4096 * Random.State.int st churn_window_pages)));
    pthinks = Array.init n (fun _ -> think st ~mean_ns:churn_think_ns);
    plat = Array.make n nan;
    pnext = 0;
    plimit = 0;
    pfailed = 0;
  }

let churn_slice ?timeout ?retries ch ~upto ~engine ~spans ~tid ~parent =
  ch.plimit <- min upto (Array.length ch.vas);
  churn_next ?timeout ?retries ch ~engine ~spans ~tid ~parent

let churn_failed ch = ch.pfailed + (ch.plimit - ch.pnext)

let ctl_machine ctx =
  let spec =
    { System.default_spec with nic_count = churn_apps; memctl_count = 2; bus_lanes = 2 }
  in
  let system, boot_s =
    Span.timed ?b:(main_spans ctx) ~parent:ctx.parent ~name:"setup.boot"
      ~cat:"setup" (fun () ->
        let s = System.build ~spec () in
        (match System.boot s with Ok () -> () | Error e -> failwith ("boot: " ^ e));
        s)
  in
  let mcs = Array.of_list (List.map Memctl.id (System.memctls system)) in
  let n = max 1 (churn_pairs_per_app / ctx.scale) in
  let churners =
    List.init churn_apps (fun i ->
        churner
          ~dev:(Smart_nic.device (System.nic system i))
          ~mc:mcs.(i mod Array.length mcs)
          ~pasid:(System.fresh_pasid system)
          ~base:(Int64.add 0x6000_0000L (Int64.of_int (i * 0x100_0000)))
          ~n ~st:(rng ~seed:ctx.seed ~stream:(100 + i)))
  in
  let drive () =
    let engine = System.engine system in
    let v0 = Engine.now engine in
    List.iteri
      (fun i ch ->
        churn_slice ch ~upto:n ~engine ~spans:(main_spans ctx) ~tid:(i + 1)
          ~parent:ctx.parent)
      churners;
    System.run_until_quiescent system;
    let attempted = n * churn_apps in
    let failed = List.fold_left (fun a ch -> a + churn_failed ch) 0 churners in
    {
      attempted;
      failed;
      kv_ops = 0;
      latencies = completed (List.map (fun ch -> ch.plat) churners);
      virtual_ns = Int64.sub (Engine.now engine) v0;
      compact_s = [];
      checkpoint_s = [];
      checkpoint_bytes = 0;
    }
  in
  {
    systems = [| system |];
    apps = [||];
    target = Checkpoint.Single (System.engine system);
    pool = None;
    boot_s;
    preload_s = 0.;
    drive;
  }

(* --- shard-soak ---------------------------------------------------------------- *)

(* The T16 ring: four KVS clusters, each a full System on its own engine,
   coupled by Temporal + Shardlink (50 us lookahead). Each segment runs
   local KV clients on every shard plus alloc/free churn from each NIC
   against the next shard's memory controller across the boundary, then
   drains to a quiescent quantum edge, where a whole-machine checkpoint is
   written. Unlike [Experiments.t16_soak] (whose result does not depend on
   its seed) the ops come from the benchmark seed, and there is no crash
   window: every op is expected to succeed. *)

let ring_shards = 4
let ring_segments = 5
let ring_kv_clients = 2
let ring_keys_per_client = 24
let ring_kv_ops = 120
let ring_churn_pairs = 40
let ring_lookahead_ns = 50_000L
let ring_think_ns = 5_000.

let ring_machine ctx =
  let built, boot_s =
    Span.timed ?b:(main_spans ctx) ~parent:ctx.parent ~name:"setup.boot"
      ~cat:"setup" (fun () ->
        Array.init ring_shards (fun i ->
            let spec =
              {
                System.default_spec with
                System.seed = Int64.of_int (42 + (1000 * i));
                shard = i;
              }
            in
            boot_kvs ~spec ()))
  in
  let systems = Array.map (fun o -> o.Scenario_kvs.system) built in
  let apps = Array.map (fun o -> o.Scenario_kvs.app) built in
  let temporal = Temporal.create ~lookahead:ring_lookahead_ns (Array.map System.engine systems) in
  let links = Shardlink.create temporal (Array.map System.bus systems) in
  let proxies =
    Array.init ring_shards (fun i ->
        let next = (i + 1) mod ring_shards in
        fst
          (Shardlink.link links
             ~a:(i, Device.id (Smart_nic.device (System.nic systems.(i) 0)))
             ~b:(next, Memctl.id (System.memctl systems.(next)))))
  in
  let pool = Parallel.Pool.create ~lanes:ctx.lanes in
  let n_kv = max 1 (ring_kv_ops / ctx.scale) in
  let n_churn = max 1 (ring_churn_pairs / ctx.scale) in
  let total_kv = n_kv * ring_segments and total_churn = n_churn * ring_segments in
  let clients =
    Array.init ring_shards (fun i ->
        List.init ring_kv_clients (fun c ->
            let cid = (i * ring_kv_clients) + c in
            let st = rng ~seed:ctx.seed ~stream:(200 + cid) in
            let ops, thinks =
              kv_gen ~st ~n_ops:total_kv ~n_keys:ring_keys_per_client ~put_share:(1. /. 3.)
                ~zipf_s:0.99 ~think_ns:ring_think_ns
            in
            let keys =
              Array.init ring_keys_per_client (Printf.sprintf "key-%d-%03d" c)
            in
            kv_client ~cid systems.(i) ~keys ~preload:(fun _ -> None)
              ~value_bytes:64 ~ops ~thinks ~spans:(shard_spans ctx i)))
  in
  let churners =
    Array.init ring_shards (fun i ->
        churner
          ~dev:(Smart_nic.device (System.nic systems.(i) 0))
          ~mc:proxies.(i)
          ~pasid:(System.fresh_pasid systems.(i))
          ~base:0xA000_0000L ~n:total_churn
          ~st:(rng ~seed:ctx.seed ~stream:(300 + i)))
  in
  let target = Checkpoint.Sharded temporal in
  let tag = "perfbench:shard-soak" in
  let drive () =
    let v0 = Engine.now (System.engine systems.(0)) in
    let checkpoint_s = ref [] in
    for seg = 1 to ring_segments do
      let (), _ =
        Span.timed ?b:(main_spans ctx) ~parent:ctx.parent
          ~name:(Printf.sprintf "segment.%d" seg) ~cat:"sim.temporal" (fun () ->
            Array.iteri
              (fun i cs ->
                List.iter
                  (fun c -> kv_slice c ~upto:(n_kv * seg) ~parent:ctx.parent)
                  cs;
                churn_slice churners.(i) ~timeout:800_000L ~retries:4
                  ~upto:(n_churn * seg) ~engine:(System.engine systems.(i))
                  ~spans:(shard_spans ctx i) ~tid:(100 + i) ~parent:ctx.parent)
              clients;
            Temporal.run_until_quiescent ~pool temporal)
      in
      if ctx.snapshots then begin
        let (), s =
          Span.timed ?b:(main_spans ctx) ~parent:ctx.parent ~name:"checkpoint.save"
            ~cat:"core" (fun () -> Checkpoint.save ~path:ctx.snap_path ~tag target)
        in
        checkpoint_s := s :: !checkpoint_s
      end
    done;
    let kv_failed =
      Array.fold_left
        (fun a cs -> List.fold_left (fun a c -> a + c.failed + kv_unfinished c) a cs)
        0 clients
    in
    let churn_failed = Array.fold_left (fun a ch -> a + churn_failed ch) 0 churners in
    let kv_ops = total_kv * ring_kv_clients * ring_shards in
    {
      attempted = kv_ops + (total_churn * ring_shards);
      failed = kv_failed + churn_failed;
      kv_ops;
      latencies =
        completed
          (List.concat_map (List.map (fun c -> c.lat)) (Array.to_list clients)
          @ List.map (fun ch -> ch.plat) (Array.to_list churners));
      virtual_ns = Int64.sub (Engine.now (System.engine systems.(0))) v0;
      compact_s = [];
      checkpoint_s = List.rev !checkpoint_s;
      checkpoint_bytes =
        (if ctx.snapshots then (Unix.stat ctx.snap_path).Unix.st_size else 0);
    }
  in
  {
    systems;
    apps;
    target;
    pool = Some pool;
    boot_s;
    preload_s = 0.;
    drive;
  }
