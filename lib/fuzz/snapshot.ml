module Json = Sp_obs.Json
module Io = Sp_obs.Io
module Prog = Sp_syzlang.Prog
module Accum = Sp_coverage.Accum

(* Version 2 added the always-present "aux" field (strategy-side state:
   the snowplow inference/funnel/prediction caches; [Null] for stateless
   strategies). Version 3 stores each shard's executed set as sorted
   fingerprints instead of program text. Version 4 keys the caches,
   memos, inboxes and attempts inside "aux" by fingerprint instead of
   keeping a program text beside each. Versions 2 and 3 are still read
   (their texts are fingerprinted on restore); version-1 documents lack
   "aux" and are rejected. *)
let format_version = 4

let readable_versions = [ 2; 3; format_version ]

let entry_to_json (e : Corpus.entry) =
  Json.Obj
    [ ("prog", Json.Str (Prog.to_string e.Corpus.prog));
      ("blocks", Accum.bitset_to_json e.Corpus.blocks);
      ("edges", Accum.bitset_to_json e.Corpus.edges);
      ("added_at", Json.Num e.Corpus.added_at)
    ]

let entry_of_json ~parse j =
  let open Json.Decode in
  let text = str_field "prog" j in
  let prog =
    match parse text with
    | Ok p -> p
    | Error msg -> error "corpus entry: %s" msg
  in
  {
    Corpus.prog;
    blocks = Accum.bitset_of_json (field "blocks" j);
    edges = Accum.bitset_of_json (field "edges" j);
    added_at = num_field "added_at" j;
  }

(* Entries oldest-first (insertion order): restore re-adds them in the
   original order, which rebuilds the dedup index and the directed
   distance tiers exactly as the uninterrupted run had them. *)
let corpus_to_json c =
  Json.Arr (List.rev_map entry_to_json (Corpus.entries c))

let corpus_entries_of_json ~parse j =
  match j with
  | Json.Arr items -> List.map (entry_of_json ~parse) items
  | _ -> Json.Decode.error "corpus: expected array"

let path ~dir ~barrier = Filename.concat dir (Printf.sprintf "snapshot-%06d.json" barrier)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ())
  end

let write ?inject ~dir ~barrier json =
  mkdir_p dir;
  let p = path ~dir ~barrier in
  Io.write_atomic ?inject p (Json.to_string json);
  p

(* Failure forensics live next to the snapshots but under a name the
   resume scan does not match, so a quarantine record can never be
   mistaken for campaign state. The generation suffix keeps a retry that
   fails at the same barrier from overwriting the original record. *)
let failure_path ~dir ~barrier ~generation =
  Filename.concat dir
    (Printf.sprintf "failure-%06d-g%d.json" barrier generation)

let write_failure ~dir ~barrier ~generation json =
  mkdir_p dir;
  let p = failure_path ~dir ~barrier ~generation in
  Io.write_atomic p (Json.to_string json);
  p

let read file =
  match Io.read_file file with
  | exception Sys_error msg -> Error msg
  | data -> Json.of_string data

(* Highest-numbered snapshot in [dir]: what `--resume` continues from.
   Matching on the exact file-name shape (not lexicographic order of
   everything in the directory) keeps temp files and strangers out. *)
let latest ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | names ->
    Array.fold_left
      (fun best name ->
        match Scanf.sscanf_opt name "snapshot-%06d.json%!" (fun b -> b) with
        | Some b when (match best with None -> true | Some (b0, _) -> b > b0)
          ->
          Some (b, Filename.concat dir name)
        | Some _ | None -> best)
      None names

(* All snapshots in [dir], highest barrier first. *)
let all_desc ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           match Scanf.sscanf_opt name "snapshot-%06d.json%!" (fun b -> b) with
           | Some b -> Some (b, Filename.concat dir name)
           | None -> None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)

let latest_valid ?(events = Sp_obs.Events.null) ~dir () =
  let rec scan = function
    | [] -> None
    | (barrier, file) :: older -> (
      match read file with
      | Ok doc -> Some (barrier, file, doc)
      | Error msg ->
        (* A torn or corrupt newest snapshot must not strand the whole
           campaign: warn and fall back to the one before it. The
           warning goes to the structured event log when one is wired,
           to stderr otherwise — never both. *)
        if Sp_obs.Events.enabled events then
          Sp_obs.Events.log events ~level:Sp_obs.Events.Warn
            ~kind:"snapshot.corrupt"
            [ ("file", Sp_obs.Json.Str file);
              ("barrier", Sp_obs.Json.Num (float_of_int barrier));
              ("error", Sp_obs.Json.Str msg)
            ]
        else
          Printf.eprintf
            "warning: skipping corrupt snapshot %s (%s); trying the previous \
             one\n%!"
            file msg;
        scan older)
  in
  scan (all_desc ~dir)
