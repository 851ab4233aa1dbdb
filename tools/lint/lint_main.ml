(* lastcpu-lint driver: scan source trees for determinism hazards.

   Usage:
     lint_main --rules lint.rules --suppressions lint.suppressions \
               [--root DIR] lib bin

   Exit status is 0 only when every finding is suppressed with a
   justification and every suppression matched a finding; an unsuppressed
   hazard or a stale suppression both fail the build, so the checked-in
   baseline always describes the tree exactly. *)

let () =
  let rules_file = ref "lint.rules" in
  let supp_file = ref "lint.suppressions" in
  let root = ref "." in
  let dirs = ref [] in
  let spec =
    [
      ("--rules", Arg.Set_string rules_file, "FILE rule configuration");
      ("--suppressions", Arg.Set_string supp_file, "FILE suppression baseline");
      ("--root", Arg.Set_string root, "DIR repo root the scan is relative to");
    ]
  in
  Arg.parse spec
    (fun d -> dirs := d :: !dirs)
    "lastcpu-lint: determinism-hazard lint (rules D001-D005)";
  let dirs = List.rev !dirs in
  if dirs = [] then begin
    prerr_endline "lastcpu-lint: no directories to scan";
    exit 2
  end;
  let config = Lint_core.parse_rules (Lint_core.read_file !rules_file) in
  let suppressions =
    Lint_core.parse_suppressions (Lint_core.read_file !supp_file)
  in
  let errors = ref 0 in
  let findings = ref [] in
  List.iter
    (fun dir ->
      let files = Lint_core.ml_files_under (Filename.concat !root dir) in
      List.iter
        (fun full ->
          (* Report paths root-relative so config and suppressions are
             stable regardless of where the lint runs from. *)
          let path =
            let prefix = !root ^ "/" in
            if String.length full > String.length prefix
               && String.sub full 0 (String.length prefix) = prefix
            then String.sub full (String.length prefix)
                   (String.length full - String.length prefix)
            else full
          in
          match Lint_core.scan_string config ~path (Lint_core.read_file full) with
          | Ok fs -> findings := !findings @ fs
          | Error msg ->
            Printf.eprintf "%s\n" msg;
            incr errors)
        files)
    dirs;
  (* This driver owns the Parsetree rules only; D007/D008 entries in the
     shared suppressions file belong to audit_main and are not stale here. *)
  let known_rules = [ "D001"; "D002"; "D003"; "D004"; "D005"; "D006" ] in
  let unsuppressed, stale =
    Lint_core.apply_suppressions ~known_rules suppressions !findings
  in
  List.iter
    (fun f ->
      Format.eprintf "%a@." Lint_core.pp_finding f;
      incr errors)
    unsuppressed;
  List.iter
    (fun s ->
      Printf.eprintf
        "stale suppression: %s %s %s matched no finding (remove it)\n"
        s.Lint_core.s_rule s.Lint_core.s_path s.Lint_core.s_binding;
      incr errors)
    stale;
  if !errors = 0 then begin
    Printf.printf "lastcpu-lint: %d file(s) clean (%d finding(s) suppressed)\n"
      (List.fold_left
         (fun acc dir ->
           acc
           + List.length (Lint_core.ml_files_under (Filename.concat !root dir)))
         0 dirs)
      (List.length
         (List.filter
            (fun s -> List.mem s.Lint_core.s_rule known_rules)
            suppressions));
    exit 0
  end
  else begin
    Printf.eprintf "lastcpu-lint: %d error(s)\n" !errors;
    exit 1
  end
