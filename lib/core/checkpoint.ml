module Engine = Lastcpu_sim.Engine
module Temporal = Lastcpu_sim.Temporal
module Snapshot = Lastcpu_sim.Snapshot

type target =
  | Single of Engine.t
  | Sharded of Temporal.t

let engines = function
  | Single e -> [| e |]
  | Sharded tp -> Array.init (Temporal.shard_count tp) (Temporal.engine tp)

let engine_section i = Printf.sprintf "%d/engine" i
let hook_section i name = Printf.sprintf "%d/hook/%s" i name

(* Sections are produced while the file streams out, so a target that
   cannot be checkpointed is refused here, before any file is opened; a
   hook that refuses mid-write leaves both generations untouched
   (Snapshot.write). *)
let save ?torn_keep_bytes ~path ~tag target =
  let es = engines target in
  let quiescent =
    match target with
    | Single e -> Engine.quiescent e
    | Sharded tp -> Temporal.quiescent tp
  in
  if not quiescent then invalid_arg "Checkpoint.save: target is not quiescent";
  let meta w =
    Snapshot.W.string w tag;
    Snapshot.W.varint w (Array.length es)
  in
  let head =
    ("meta", meta)
    ::
    (match target with
    | Single _ -> []
    | Sharded tp -> [ ("temporal", Temporal.save_state tp) ])
  in
  let shards =
    List.concat
      (List.mapi
         (fun i e ->
           (engine_section i, Engine.save_state e)
           :: List.map
                (fun (name, save, _restore) -> (hook_section i name, save))
                (Engine.snapshot_hooks e))
         (Array.to_list es))
  in
  let sections = head @ shards in
  match torn_keep_bytes with
  | None -> Snapshot.write ~path sections
  | Some keep_bytes -> Snapshot.write_torn ~path ~keep_bytes sections

exception Mismatch of string

let restore ~path ~tag target =
  match Snapshot.load ~path with
  | Error e -> Error e
  | Ok (generation, sections) -> (
    let find name =
      match Snapshot.find sections name with
      | Some body -> body
      | None ->
        raise
          (Mismatch
             (Printf.sprintf
                "snapshot has no %S section (topology/checkpoint mismatch)"
                name))
    in
    try
      let meta = Snapshot.R.of_string (find "meta") in
      let saved_tag = Snapshot.R.string meta in
      if not (String.equal saved_tag tag) then
        raise
          (Mismatch
             (Printf.sprintf "snapshot is of %S, this run is %S" saved_tag tag));
      let es = engines target in
      let saved_shards = Snapshot.R.varint meta in
      if saved_shards <> Array.length es then
        raise
          (Mismatch
             (Printf.sprintf "snapshot has %d shard(s), topology has %d"
                saved_shards (Array.length es)));
      (match target with
      | Single _ -> ()
      | Sharded tp -> Temporal.restore_state tp (find "temporal"));
      (* Per shard: the engine first — reconciling the rebuilt static
         events against the saved pending times — then every hook in
         registration order, so a hook whose restore re-arms a static
         (e.g. the bus liveness sweep) schedules it after the queue
         filter has run, not into it. *)
      Array.iteri
        (fun i e ->
          Engine.restore_state e (find (engine_section i));
          List.iter
            (fun (name, _save, restore) -> restore (find (hook_section i name)))
            (Engine.snapshot_hooks e))
        es;
      Ok generation
    with
    | Mismatch m -> Error m
    | Snapshot.R.Corrupt m -> Error ("corrupt snapshot section: " ^ m)
    | Invalid_argument m -> Error ("snapshot does not fit this topology: " ^ m))
