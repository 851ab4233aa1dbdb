(* Tests for the inode file system. *)

module Nand = Lastcpu_flash.Nand
module Ftl = Lastcpu_flash.Ftl
module Fs = Lastcpu_fs.Fs

let mkfs ?cache () =
  let nand =
    Nand.create ~geometry:{ Nand.blocks = 64; pages_per_block = 16; page_size = 4096 } ()
  in
  let ftl = Ftl.create ~nand () in
  match Fs.format ?cache ftl with
  | Ok fs -> (fs, ftl)
  | Error e -> failwith (Fs.error_to_string e)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Fs.error_to_string e)

let expect_err name = function
  | Ok _ -> Alcotest.fail (name ^ ": expected error")
  | Error _ -> ()

let check_clean name fs =
  match Fs.fsck fs with
  | Error e -> Alcotest.fail (Fs.error_to_string e)
  | Ok r ->
    let msg = Format.asprintf "%s: %a" name Fs.pp_fsck_report r in
    Alcotest.(check int) (msg ^ " leaked") 0 r.Fs.leaked_blocks;
    Alcotest.(check int) (msg ^ " shared") 0 r.Fs.shared_blocks;
    Alcotest.(check int) (msg ^ " unmarked") 0 r.Fs.unmarked_blocks;
    Alcotest.(check int) (msg ^ " orphans") 0 r.Fs.orphan_inodes;
    r

(* --- basics ---------------------------------------------------------------- *)

let test_create_stat () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/hello.txt");
  let st = ok (Fs.stat fs "/hello.txt") in
  Alcotest.(check int) "size 0" 0 st.Fs.size;
  Alcotest.(check string) "owner" "alice" st.Fs.owner;
  Alcotest.(check bool) "regular" true (st.Fs.kind = Fs.Regular);
  Alcotest.(check bool) "exists" true (Fs.exists fs "/hello.txt");
  Alcotest.(check bool) "missing" false (Fs.exists fs "/nope")

let test_write_read () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/f");
  ok (Fs.write fs ~user:"alice" "/f" ~off:0 "hello world");
  Alcotest.(check string) "read" "hello world"
    (ok (Fs.read fs ~user:"alice" "/f" ~off:0 ~len:100));
  Alcotest.(check string) "partial" "world"
    (ok (Fs.read fs ~user:"alice" "/f" ~off:6 ~len:5));
  Alcotest.(check string) "past eof" "" (ok (Fs.read fs ~user:"alice" "/f" ~off:50 ~len:10));
  Alcotest.(check int) "size" 11 (ok (Fs.file_size fs "/f"))

let test_write_extends_with_holes () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/f");
  ok (Fs.write fs ~user:"alice" "/f" ~off:10000 "far");
  Alcotest.(check int) "size" 10003 (ok (Fs.file_size fs "/f"));
  let hole = ok (Fs.read fs ~user:"alice" "/f" ~off:0 ~len:4) in
  Alcotest.(check string) "hole reads zero" "\000\000\000\000" hole;
  Alcotest.(check string) "tail" "far" (ok (Fs.read fs ~user:"alice" "/f" ~off:10000 ~len:3))

let test_large_file_indirect () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/big");
  (* 60 pages: beyond the 12 direct pointers, into the indirect block. *)
  let chunk = String.make 4096 'x' in
  for i = 0 to 59 do
    ok (Fs.write fs ~user:"alice" "/big" ~off:(i * 4096) chunk)
  done;
  Alcotest.(check int) "size" (60 * 4096) (ok (Fs.file_size fs "/big"));
  let back = ok (Fs.read fs ~user:"alice" "/big" ~off:(45 * 4096) ~len:4096) in
  Alcotest.(check string) "indirect data" chunk back

let test_directories () =
  let fs, _ = mkfs () in
  ok (Fs.mkdir fs ~user:"alice" "/docs");
  ok (Fs.mkdir fs ~user:"alice" "/docs/sub");
  ok (Fs.create fs ~user:"alice" "/docs/a.txt");
  ok (Fs.create fs ~user:"alice" "/docs/b.txt");
  let names = List.sort compare (ok (Fs.readdir fs ~user:"alice" "/docs")) in
  Alcotest.(check (list string)) "listing" [ "a.txt"; "b.txt"; "sub" ] names;
  expect_err "rmdir non-empty" (Fs.unlink fs ~user:"alice" "/docs");
  ok (Fs.unlink fs ~user:"alice" "/docs/a.txt");
  ok (Fs.unlink fs ~user:"alice" "/docs/b.txt");
  ok (Fs.unlink fs ~user:"alice" "/docs/sub");
  ok (Fs.unlink fs ~user:"alice" "/docs");
  Alcotest.(check bool) "gone" false (Fs.exists fs "/docs")

let test_unlink_frees_space () =
  let fs, _ = mkfs () in
  let before = Fs.free_blocks fs in
  ok (Fs.create fs ~user:"alice" "/f");
  ok (Fs.write fs ~user:"alice" "/f" ~off:0 (String.make 20000 'x'));
  Alcotest.(check bool) "space consumed" true (Fs.free_blocks fs < before);
  ok (Fs.unlink fs ~user:"alice" "/f");
  Alcotest.(check int) "space restored" before (Fs.free_blocks fs)

let test_truncate () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/f");
  ok (Fs.write fs ~user:"alice" "/f" ~off:0 (String.make 10000 'x'));
  ok (Fs.truncate fs ~user:"alice" "/f" ~len:100);
  Alcotest.(check int) "shrunk" 100 (ok (Fs.file_size fs "/f"));
  Alcotest.(check string) "data intact" (String.make 100 'x')
    (ok (Fs.read fs ~user:"alice" "/f" ~off:0 ~len:200));
  ok (Fs.truncate fs ~user:"alice" "/f" ~len:0);
  Alcotest.(check int) "empty" 0 (ok (Fs.file_size fs "/f"));
  (* Grow-truncate produces zeroes. *)
  ok (Fs.truncate fs ~user:"alice" "/f" ~len:50);
  Alcotest.(check string) "zeros" (String.make 50 '\000')
    (ok (Fs.read fs ~user:"alice" "/f" ~off:0 ~len:50))

(* A shrinking truncate must zero the cut-off tail of the last kept
   block: growing the file again (by truncate or by a write past EOF)
   exposes those bytes, and they must read as zeroes, not stale data. *)
let test_truncate_zeroes_tail cache () =
  let fs, _ = mkfs ~cache () in
  ok (Fs.create fs ~user:"u" "/f");
  ok (Fs.write fs ~user:"u" "/f" ~off:0 "abcdefgh");
  ok (Fs.truncate fs ~user:"u" "/f" ~len:2);
  ok (Fs.truncate fs ~user:"u" "/f" ~len:8);
  Alcotest.(check string) "regrown by truncate" "ab\000\000\000\000\000\000"
    (ok (Fs.read fs ~user:"u" "/f" ~off:0 ~len:8));
  ok (Fs.create fs ~user:"u" "/g");
  ok (Fs.write fs ~user:"u" "/g" ~off:0 "abcdefgh");
  ok (Fs.truncate fs ~user:"u" "/g" ~len:2);
  ok (Fs.write fs ~user:"u" "/g" ~off:6 "XY");
  Alcotest.(check string) "regrown by a write past EOF" "ab\000\000\000\000XY"
    (ok (Fs.read fs ~user:"u" "/g" ~off:0 ~len:8));
  (* The same through the indirect block: cut mid-block past the direct
     pointers, then regrow. *)
  let big = String.make 60_000 'z' in
  ok (Fs.create fs ~user:"u" "/h");
  ok (Fs.write fs ~user:"u" "/h" ~off:0 big);
  ok (Fs.truncate fs ~user:"u" "/h" ~len:50_000);
  ok (Fs.truncate fs ~user:"u" "/h" ~len:60_000);
  Alcotest.(check string) "indirect tail zeroed"
    (String.sub big 0 50_000 ^ String.make 10_000 '\000')
    (ok (Fs.read fs ~user:"u" "/h" ~off:0 ~len:60_000));
  ignore (check_clean "after truncates" fs)

let test_exists_and_duplicate () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" "/f");
  expect_err "duplicate create" (Fs.create fs ~user:"alice" "/f");
  expect_err "missing parent" (Fs.create fs ~user:"alice" "/no/such/f")

let test_rename_same_dir () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"u" "/a");
  ok (Fs.write fs ~user:"u" "/a" ~off:0 "payload");
  ok (Fs.rename fs ~user:"u" "/a" "/b");
  Alcotest.(check bool) "old gone" false (Fs.exists fs "/a");
  Alcotest.(check string) "data moved" "payload"
    (ok (Fs.read fs ~user:"u" "/b" ~off:0 ~len:7));
  ignore (check_clean "after same-dir rename" fs)

let test_rename_across_dirs () =
  let fs, _ = mkfs () in
  ok (Fs.mkdir fs ~user:"u" "/src");
  ok (Fs.mkdir fs ~user:"u" "/dst");
  ok (Fs.create fs ~user:"u" "/src/f");
  ok (Fs.write fs ~user:"u" "/src/f" ~off:0 "x-dir");
  ok (Fs.rename fs ~user:"u" "/src/f" "/dst/g");
  Alcotest.(check (list string)) "src empty" [] (ok (Fs.readdir fs ~user:"u" "/src"));
  Alcotest.(check string) "moved" "x-dir" (ok (Fs.read fs ~user:"u" "/dst/g" ~off:0 ~len:5));
  ignore (check_clean "after cross-dir rename" fs)

let test_rename_replaces_target () =
  let fs, _ = mkfs () in
  let before = Fs.free_blocks fs in
  ok (Fs.create fs ~user:"u" "/new");
  ok (Fs.write fs ~user:"u" "/new" ~off:0 "fresh");
  ok (Fs.create fs ~user:"u" "/old");
  ok (Fs.write fs ~user:"u" "/old" ~off:0 (String.make 10000 'o'));
  ok (Fs.rename fs ~user:"u" "/new" "/old");
  Alcotest.(check string) "target replaced" "fresh"
    (ok (Fs.read fs ~user:"u" "/old" ~off:0 ~len:5));
  Alcotest.(check bool) "source gone" false (Fs.exists fs "/new");
  (* The replaced file's blocks were freed (3 data blocks). *)
  Alcotest.(check bool) "space reclaimed" true (Fs.free_blocks fs >= before - 2);
  ignore (check_clean "after replacing rename" fs)

let test_rename_errors () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"u" "/f");
  ok (Fs.mkdir fs ~user:"u" "/d");
  expect_err "missing source" (Fs.rename fs ~user:"u" "/ghost" "/x");
  expect_err "onto directory" (Fs.rename fs ~user:"u" "/f" "/d");
  expect_err "missing target parent" (Fs.rename fs ~user:"u" "/f" "/no/where");
  (* Permission: bob cannot move alice's file out of her 0o755 dir. *)
  ok (Fs.mkdir fs ~user:"alice" ~mode:0o755 "/hers");
  ok (Fs.create fs ~user:"alice" "/hers/doc");
  expect_err "no write perm on parent" (Fs.rename fs ~user:"bob" "/hers/doc" "/stolen")

(* Only a directory can be moved into its own subtree, and that is refused
   as [Invalid]; a file or a missing source keeps its own error. *)
let test_rename_into_subtree () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"u" "/f");
  ok (Fs.mkdir fs ~user:"u" "/d");
  ok (Fs.mkdir fs ~user:"u" "/d/e");
  let expect name want got =
    let kind = function
      | Ok () -> "ok"
      | Error (Fs.Invalid _) -> "invalid"
      | Error (Fs.Not_a_directory _) -> "not a directory"
      | Error (Fs.Not_found_e _) -> "not found"
      | Error e -> Fs.error_to_string e
    in
    Alcotest.(check string) name want (kind got)
  in
  expect "dir into itself" "invalid" (Fs.rename fs ~user:"u" "/d" "/d/x");
  expect "dir into a subdir" "invalid" (Fs.rename fs ~user:"u" "/d" "/d/e/x");
  expect "file under itself" "not a directory" (Fs.rename fs ~user:"u" "/f" "/f/x");
  expect "missing source" "not found" (Fs.rename fs ~user:"u" "/d/ghost" "/d/ghost/x");
  expect "prefix sibling is not inside" "ok" (Fs.rename fs ~user:"u" "/d" "/dd");
  Alcotest.(check bool) "moved with its child" true (Fs.exists fs "/dd/e");
  ignore (check_clean "after subtree renames" fs)

(* --- permissions -------------------------------------------------------------- *)

let test_permissions () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" ~mode:0o600 "/private");
  ok (Fs.write fs ~user:"alice" "/private" ~off:0 "secret");
  expect_err "other cannot read" (Fs.read fs ~user:"bob" "/private" ~off:0 ~len:6);
  expect_err "other cannot write" (Fs.write fs ~user:"bob" "/private" ~off:0 "x");
  Alcotest.(check string) "owner reads" "secret"
    (ok (Fs.read fs ~user:"alice" "/private" ~off:0 ~len:6));
  Alcotest.(check string) "root reads" "secret"
    (ok (Fs.read fs ~user:"root" "/private" ~off:0 ~len:6))

let test_chmod_chown () =
  let fs, _ = mkfs () in
  ok (Fs.create fs ~user:"alice" ~mode:0o600 "/f");
  expect_err "non-owner chmod" (Fs.chmod fs ~user:"bob" "/f" ~mode:0o666);
  ok (Fs.chmod fs ~user:"alice" "/f" ~mode:0o644);
  Alcotest.(check string) "bob can read now" ""
    (ok (Fs.read fs ~user:"bob" "/f" ~off:0 ~len:0));
  expect_err "non-root chown" (Fs.chown fs ~user:"alice" "/f" ~owner:"bob");
  ok (Fs.chown fs ~user:"root" "/f" ~owner:"bob");
  Alcotest.(check string) "new owner" "bob" (ok (Fs.stat fs "/f")).Fs.owner

let test_dir_write_permission () =
  let fs, _ = mkfs () in
  ok (Fs.mkdir fs ~user:"alice" ~mode:0o755 "/her");
  expect_err "bob cannot create in alice's dir"
    (Fs.create fs ~user:"bob" "/her/file");
  ok (Fs.create fs ~user:"alice" "/her/file")

(* --- persistence ---------------------------------------------------------------- *)

let test_mount_persistence () =
  let fs, ftl = mkfs () in
  ok (Fs.create fs ~user:"alice" "/persist");
  ok (Fs.write fs ~user:"alice" "/persist" ~off:0 "durable data");
  (* Remount from the same flash: everything must still be there. *)
  let fs2 = ok (Fs.mount ftl) in
  Alcotest.(check string) "data survives remount" "durable data"
    (ok (Fs.read fs2 ~user:"alice" "/persist" ~off:0 ~len:12));
  Alcotest.(check string) "owner survives" "alice" (ok (Fs.stat fs2 "/persist")).Fs.owner

let test_mount_rejects_unformatted () =
  let nand =
    Nand.create ~geometry:{ Nand.blocks = 64; pages_per_block = 16; page_size = 4096 } ()
  in
  let ftl = Ftl.create ~nand () in
  match Fs.mount ftl with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mounted unformatted device"

let test_cache_equivalence () =
  (* The same operation sequence with and without the device cache must
     produce identical observable state. *)
  let run cache =
    let fs, _ = mkfs ~cache () in
    ok (Fs.mkdir fs ~user:"u" "/d");
    ok (Fs.create fs ~user:"u" "/d/f");
    for i = 0 to 20 do
      ok (Fs.write fs ~user:"u" "/d/f" ~off:(i * 1000) (Printf.sprintf "<%d>" i))
    done;
    ok (Fs.truncate fs ~user:"u" "/d/f" ~len:15000);
    ok (Fs.read fs ~user:"u" "/d/f" ~off:0 ~len:15000)
  in
  Alcotest.(check string) "cached = uncached" (run false) (run true)

let test_fsck_clean_after_torture () =
  let fs, ftl = mkfs () in
  (* Torture: creates, writes (direct + indirect), truncates, unlinks,
     nested directories. *)
  ok (Fs.mkdir fs ~user:"u" "/d1");
  ok (Fs.mkdir fs ~user:"u" "/d1/d2");
  for i = 0 to 9 do
    let p = Printf.sprintf "/d1/f%d" i in
    ok (Fs.create fs ~user:"u" p);
    ok (Fs.write fs ~user:"u" p ~off:(i * 3000) (String.make 5000 'x'))
  done;
  (* One big file through the indirect block. *)
  ok (Fs.create fs ~user:"u" "/d1/d2/big");
  for i = 0 to 39 do
    ok (Fs.write fs ~user:"u" "/d1/d2/big" ~off:(i * 4096) (String.make 4096 'b'))
  done;
  ok (Fs.truncate fs ~user:"u" "/d1/d2/big" ~len:10000);
  for i = 0 to 4 do
    ok (Fs.unlink fs ~user:"u" (Printf.sprintf "/d1/f%d" i))
  done;
  let r = check_clean "after torture" fs in
  Alcotest.(check int) "files counted" 6 r.Fs.files;
  Alcotest.(check int) "dirs counted (incl root)" 3 r.Fs.directories;
  (* Remounting sees the same healthy image. *)
  let fs2 = ok (Fs.mount ftl) in
  ignore (check_clean "after remount" fs2)

let test_fsck_counts_usage () =
  let fs, _ = mkfs () in
  let before = (check_clean "empty" fs).Fs.used_blocks in
  ok (Fs.create fs ~user:"u" "/f");
  ok (Fs.write fs ~user:"u" "/f" ~off:0 (String.make 8192 'x'));
  let after = (check_clean "with file" fs).Fs.used_blocks in
  (* 2 data blocks + 1 root-dir data block appeared (root dir grew). *)
  Alcotest.(check bool) "usage grew by >= 2" true (after - before >= 2)

let fs_model_prop =
  (* Random write/read sequences against a pure byte-array model. *)
  QCheck.Test.make ~name:"fs file contents match byte-array model" ~count:25
    QCheck.(list (pair (int_bound 30_000) (string_of_size Gen.(int_range 1 2000))))
    (fun writes ->
      let fs, _ = mkfs () in
      (match Fs.create fs ~user:"u" "/m" with Ok () -> () | Error _ -> ());
      let model = Bytes.create 40_000 in
      Bytes.fill model 0 40_000 '\000';
      let size = ref 0 in
      List.for_all
        (fun (off, data) ->
          match Fs.write fs ~user:"u" "/m" ~off data with
          | Error _ -> true (* no-space etc.: skip *)
          | Ok () ->
            Bytes.blit_string data 0 model off (String.length data);
            size := max !size (off + String.length data);
            let expect = Bytes.sub_string model 0 !size in
            (match Fs.read fs ~user:"u" "/m" ~off:0 ~len:!size with
            | Ok got -> String.equal got expect
            | Error _ -> false))
        writes)

(* --- model-based property ----------------------------------------------------

   Random operation sequences run against the file system and against a
   pure reference: a map from path to [Dir] or [File contents]. Every
   operation must succeed exactly when the reference says it should, every
   read must return the reference's bytes, fsck must be clean at the end,
   and a checkpoint of the whole stack (NAND, FTL, FS cache) restored into
   fresh instances must read back the same files. Blocks are shared
   between the FS cache and NAND, so a block mutated after it was handed
   to the FTL corrupts both copies at once: only a reference model sees
   it. *)

module Model = Map.Make (String)

type node = Dir | File of string

(* Offsets and lengths relative to the file's current size (at EOF,
   inside, past EOF) or near the first indirect block, resolved against
   the model when the operation runs. *)
type pos = At_eof | Inside of int | Past of int | Near_indirect of int

type op =
  | Mkdir of string
  | Create of string
  | Write of string * pos * int * int  (* path, offset, length, fill seed *)
  | Truncate of string * pos
  | Read of string * pos * int
  | Unlink of string
  | Rename of string * string

let pp_pos = function
  | At_eof -> "eof"
  | Inside k -> Printf.sprintf "in%d" k
  | Past k -> Printf.sprintf "past%d" k
  | Near_indirect k -> Printf.sprintf "ind%d" k

let pp_op = function
  | Mkdir p -> "mkdir " ^ p
  | Create p -> "create " ^ p
  | Write (p, o, n, c) -> Printf.sprintf "write %s @%s %dB #%d" p (pp_pos o) n c
  | Truncate (p, o) -> Printf.sprintf "truncate %s %s" p (pp_pos o)
  | Read (p, o, n) -> Printf.sprintf "read %s @%s %dB" p (pp_pos o) n
  | Unlink p -> "unlink " ^ p
  | Rename (a, b) -> Printf.sprintf "rename %s %s" a b

let gen_path =
  QCheck.Gen.(
    map
      (fun cs -> "/" ^ String.concat "/" cs)
      (list_size (int_range 1 3) (oneofl [ "a"; "b"; "f" ])))

let gen_pos =
  QCheck.Gen.(
    frequency
      [
        (2, return At_eof);
        (3, map (fun k -> Inside k) (int_bound 100_000));
        (2, map (fun k -> Past k) (int_bound 6000));
        (1, map (fun k -> Near_indirect k) (int_bound 8192));
      ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun p -> Mkdir p) gen_path);
        (3, map (fun p -> Create p) gen_path);
        ( 5,
          map
            (fun (p, o, n, c) -> Write (p, o, n, c))
            (quad gen_path gen_pos (int_range 1 9000) (int_bound 250)) );
        (2, map2 (fun p o -> Truncate (p, o)) gen_path gen_pos);
        (3, map3 (fun p o n -> Read (p, o, n)) gen_path gen_pos (int_bound 9000));
        (1, map (fun p -> Unlink p) gen_path);
        (2, map2 (fun a b -> Rename (a, b)) gen_path gen_path);
      ])

let parent p = match String.rindex_opt p '/' with Some 0 | None -> "/" | Some i -> String.sub p 0 i

let is_dir m p = String.equal p "/" || Model.find_opt p m = Some Dir

let file_size m p =
  match Model.find_opt p m with Some (File s) -> String.length s | _ -> 0

let resolve m p = function
  | At_eof -> file_size m p
  | Inside k -> if file_size m p = 0 then 0 else k mod file_size m p
  | Past k -> file_size m p + k
  | Near_indirect k -> (12 * 4096) - 4096 + k

let under ~dir p = String.starts_with ~prefix:(dir ^ "/") p

let children m dir =
  Model.fold (fun p _ acc -> if String.equal (parent p) dir then p :: acc else acc) m []

let fill n seed = String.init n (fun i -> Char.chr (1 + ((seed + (i * 7)) mod 251)))

(* Apply [op] to the model: [None] when the file system must refuse it,
   [Some m'] otherwise. *)
let step m = function
  | Mkdir p | Create p when Model.mem p m || not (is_dir m (parent p)) -> None
  | Mkdir p -> Some (Model.add p Dir m)
  | Create p -> Some (Model.add p (File "") m)
  | Write (p, o, n, c) -> (
    match Model.find_opt p m with
    | Some (File s) ->
      let off = resolve m p o in
      let len = max (String.length s) (off + n) in
      let b = Bytes.make len '\000' in
      Bytes.blit_string s 0 b 0 (String.length s);
      Bytes.blit_string (fill n c) 0 b off n;
      Some (Model.add p (File (Bytes.to_string b)) m)
    | _ -> None)
  | Truncate (p, o) -> (
    match Model.find_opt p m with
    | Some (File s) ->
      let len = resolve m p o in
      let s' =
        if len <= String.length s then String.sub s 0 len
        else s ^ String.make (len - String.length s) '\000'
      in
      Some (Model.add p (File s') m)
    | _ -> None)
  | Read (p, _, _) -> (
    match Model.find_opt p m with Some (File _) -> Some m | _ -> None)
  | Unlink p -> (
    match Model.find_opt p m with
    | Some (File _) -> Some (Model.remove p m)
    | Some Dir when children m p = [] -> Some (Model.remove p m)
    | Some Dir | None -> None)
  | Rename (a, b) when String.equal a b -> Some m
  | Rename (a, b) when under ~dir:a b -> None
  | Rename (a, b) -> (
    match (Model.find_opt a m, Model.find_opt b m) with
    | None, _ | _, Some Dir -> None
    | Some _, _ when not (is_dir m (parent b)) -> None
    | Some node, _ ->
      let m = Model.remove a (Model.remove b m) in
      let m = Model.add b node m in
      if node <> Dir then Some m
      else
        Some
          (Model.fold
             (fun p v acc ->
               if under ~dir:a p then
                 let rest = String.sub p (String.length a) (String.length p - String.length a) in
                 Model.add (b ^ rest) v (Model.remove p acc)
               else acc)
             m m))

let run_fs fs m = function
  | Mkdir p -> Result.map (fun () -> None) (Fs.mkdir fs ~user:"u" p)
  | Create p -> Result.map (fun () -> None) (Fs.create fs ~user:"u" p)
  | Write (p, o, n, c) ->
    Result.map (fun () -> None) (Fs.write fs ~user:"u" p ~off:(resolve m p o) (fill n c))
  | Truncate (p, o) -> Result.map (fun () -> None) (Fs.truncate fs ~user:"u" p ~len:(resolve m p o))
  | Read (p, o, n) -> Result.map Option.some (Fs.read fs ~user:"u" p ~off:(resolve m p o) ~len:n)
  | Unlink p -> Result.map (fun () -> None) (Fs.unlink fs ~user:"u" p)
  | Rename (a, b) -> Result.map (fun () -> None) (Fs.rename fs ~user:"u" a b)

let expected_read m = function
  | Read (p, o, n) ->
    let s = match Model.find_opt p m with Some (File s) -> s | _ -> "" in
    let off = resolve m p o in
    let len = max 0 (min n (String.length s - off)) in
    if len = 0 then "" else String.sub s off len
  | _ -> ""

(* Every file reads back whole and every directory lists the model's
   children. *)
let matches_model fs m =
  Model.for_all
    (fun p node ->
      match node with
      | File s -> Fs.read fs ~user:"u" p ~off:0 ~len:(String.length s + 1) = Ok s
      | Dir -> (
        match Fs.readdir fs ~user:"u" p with
        | Ok names ->
          List.sort compare names
          = List.sort compare
              (List.map (fun c -> Filename.basename c) (children m p))
        | Error _ -> false))
    m

let geometry = { Nand.blocks = 64; pages_per_block = 16; page_size = 4096 }

(* Checkpoint NAND, FTL and the FS cache the way the smart SSD does, and
   restore them into a fresh stack. *)
let reload ~cache fs ftl =
  let w = Lastcpu_sim.Snapshot.W.create () in
  Nand.save w (Ftl.nand ftl);
  Ftl.save w ftl;
  Fs.save w fs;
  let r = Lastcpu_sim.Snapshot.R.of_string (Lastcpu_sim.Snapshot.W.contents w) in
  let nand = Nand.create ~geometry () in
  let ftl = Ftl.create ~nand () in
  Nand.restore r nand;
  Ftl.restore r ftl;
  let fs = ok (Fs.mount ~cache ftl) in
  Fs.restore r fs;
  fs

let fs_reference_prop ~cache =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "fs matches a reference model (cache=%b)" cache)
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let nand = Nand.create ~geometry () in
      let ftl = Ftl.create ~nand () in
      let fs = ok (Fs.format ~cache ftl) in
      let final =
        List.fold_left
          (fun m op ->
            match (step m op, run_fs fs m op) with
            | None, Error _ -> m
            | Some m', Ok got ->
              (match got with
              | Some data when not (String.equal data (expected_read m op)) ->
                QCheck.Test.fail_reportf "%s read %S" (pp_op op) data
              | _ -> ());
              m'
            | None, Ok _ -> QCheck.Test.fail_reportf "%s: expected an error" (pp_op op)
            | Some _, Error e ->
              QCheck.Test.fail_reportf "%s: %s" (pp_op op) (Fs.error_to_string e))
          Model.empty ops
      in
      let clean =
        match Fs.fsck fs with
        | Ok r ->
          r.Fs.leaked_blocks = 0 && r.Fs.shared_blocks = 0
          && r.Fs.unmarked_blocks = 0 && r.Fs.orphan_inodes = 0
        | Error _ -> false
      in
      clean && matches_model fs final && matches_model (reload ~cache fs ftl) final)

(* --- equivalence with the pre-change lookup and allocator ------------------ *)

(* A fixed workload over directory and allocation corner cases: a
   directory two blocks long (the whole-directory path, entries
   straddling blocks), names that are prefixes of each other or differ in
   one byte (NUL and 0xff included), and first-fit allocation past whole
   bitmap bytes and words into a freed hole. Its lookups, block counters
   and storage image are pinned to the values the list-parsing lookup and
   bit-at-a-time allocator produced. *)
let fs_equivalence_run ~cache =
  let m = Lastcpu_sim.Metrics.create () in
  let nand = Nand.create ~geometry () in
  let ftl = Ftl.create ~nand () in
  let fs = ok (Fs.format ~cache ~metrics:m ~actor:"fs" ftl) in
  let mk p = ok (Fs.create fs ~user:"u" p) in
  ok (Fs.mkdir fs ~user:"u" "/big");
  for i = 0 to 39 do
    mk (Printf.sprintf "/big/entry-%02d-%s" i (String.make (100 + (i mod 7)) 'x'))
  done;
  ok (Fs.mkdir fs ~user:"u" "/p");
  let alike = [ "a"; "ab"; "abc"; "abcd"; "b"; "ba"; "a\000"; "a\255"; "abd"; "abce" ] in
  List.iter (fun n -> mk ("/p/" ^ n)) alike;
  mk "/fill";
  ok (Fs.write fs ~user:"u" "/fill" ~off:0 (String.make (90 * 4096) 'f'));
  List.iter (fun n -> mk n) [ "/s1"; "/s2"; "/s3" ];
  List.iter (fun n -> ok (Fs.write fs ~user:"u" n ~off:0 (String.make 4096 'g'))) [ "/s1"; "/s2"; "/s3" ];
  ok (Fs.unlink fs ~user:"u" "/s2");
  mk "/s4";
  ok (Fs.write fs ~user:"u" "/s4" ~off:0 (String.make 8192 'h'));
  let probe p =
    match Fs.stat fs p with
    | Ok st -> string_of_int st.Fs.ino
    | Error (Fs.Not_found_e _) -> "nf"
    | Error (Fs.Not_a_directory _) -> "nd"
    | Error e -> Fs.error_to_string e
  in
  let looked =
    List.map probe
      (List.map
         (fun (i, pad) -> Printf.sprintf "/big/entry-%02d-%s" i (String.make pad 'x'))
         [ (0, 100); (17, 103); (36, 101); (39, 104); (39, 103); (40, 100) ]
      @ List.map (fun n -> "/p/" ^ n) (alike @ [ "abcde"; "a\001"; "" ])
      @ [ "/p/a/b"; "/s2"; "/s4"; "/fill/x"; "/nope/x" ])
  in
  let count name = Lastcpu_sim.Metrics.counter_read m ~actor:"fs" ~name in
  let w = Lastcpu_sim.Snapshot.W.create () in
  Nand.save w nand;
  Ftl.save w ftl;
  Fs.save w fs;
  ( String.concat "," looked,
    (count "block_reads", count "block_writes", count "cache_hits"),
    Digest.to_hex (Digest.string (Lastcpu_sim.Snapshot.W.contents w)) )

let test_fs_equivalence ~cache () =
  let looked, counts, image = fs_equivalence_run ~cache in
  Alcotest.(check string) "lookup results"
    "2,19,38,41,nf,nf,43,44,45,46,47,48,49,50,51,52,nf,nf,42,nd,nf,55,nd,nf" looked;
  Alcotest.(check (triple int int int)) "block_reads, block_writes, cache_hits"
    (2570, 624, if cache then 2570 else 0)
    counts;
  Alcotest.(check string) "storage image (md5)"
    (if cache then "9eca346636d24e103769c6525c9daba3"
     else "6b7eb6ae78df8e3e25823b64e2e69b7a")
    image

let () =
  Alcotest.run "fs"
    [
      ( "basics",
        [
          Alcotest.test_case "create/stat" `Quick test_create_stat;
          Alcotest.test_case "write/read" `Quick test_write_read;
          Alcotest.test_case "holes" `Quick test_write_extends_with_holes;
          Alcotest.test_case "indirect blocks" `Quick test_large_file_indirect;
          Alcotest.test_case "directories" `Quick test_directories;
          Alcotest.test_case "unlink frees space" `Quick test_unlink_frees_space;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "truncate zeroes the tail (cache)" `Quick
            (test_truncate_zeroes_tail true);
          Alcotest.test_case "truncate zeroes the tail (no cache)" `Quick
            (test_truncate_zeroes_tail false);
          Alcotest.test_case "duplicates and bad paths" `Quick test_exists_and_duplicate;
          Alcotest.test_case "rename same dir" `Quick test_rename_same_dir;
          Alcotest.test_case "rename across dirs" `Quick test_rename_across_dirs;
          Alcotest.test_case "rename replaces target" `Quick test_rename_replaces_target;
          Alcotest.test_case "rename errors" `Quick test_rename_errors;
          Alcotest.test_case "rename into own subtree" `Quick test_rename_into_subtree;
        ] );
      ( "permissions",
        [
          Alcotest.test_case "owner/other" `Quick test_permissions;
          Alcotest.test_case "chmod/chown" `Quick test_chmod_chown;
          Alcotest.test_case "directory write" `Quick test_dir_write_permission;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "mount" `Quick test_mount_persistence;
          Alcotest.test_case "rejects unformatted" `Quick test_mount_rejects_unformatted;
          Alcotest.test_case "cache equivalence" `Quick test_cache_equivalence;
          Alcotest.test_case "fsck after torture" `Quick test_fsck_clean_after_torture;
          Alcotest.test_case "fsck usage accounting" `Quick test_fsck_counts_usage;
          QCheck_alcotest.to_alcotest fs_model_prop;
          QCheck_alcotest.to_alcotest (fs_reference_prop ~cache:true);
          QCheck_alcotest.to_alcotest (fs_reference_prop ~cache:false);
          Alcotest.test_case "lookup and allocation pinned (cache)" `Quick
            (test_fs_equivalence ~cache:true);
          Alcotest.test_case "lookup and allocation pinned (no cache)" `Quick
            (test_fs_equivalence ~cache:false);
        ] );
    ]
