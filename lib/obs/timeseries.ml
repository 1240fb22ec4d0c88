type t = {
  cols_seen : (string, unit) Hashtbl.t;
  mutable cols_rev : string list;  (* first-seen order, reversed *)
  mutable rows_rev : (float * (string * float) list) list;
  mutable n : int;
}

let create () =
  { cols_seen = Hashtbl.create 16; cols_rev = []; rows_rev = []; n = 0 }

let sample t ~time fields =
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem t.cols_seen name) then begin
        Hashtbl.add t.cols_seen name ();
        t.cols_rev <- name :: t.cols_rev
      end)
    fields;
  t.rows_rev <- (time, fields) :: t.rows_rev;
  t.n <- t.n + 1

let length t = t.n

let columns t = List.rev t.cols_rev

let rows t = List.rev t.rows_rev

let column t name =
  List.filter_map
    (fun (time, fields) ->
      match List.assoc_opt name fields with
      | Some v -> Some (time, v)
      | None -> None)
    (rows t)

let last t name =
  let rec go = function
    | [] -> None
    | (_, fields) :: rest -> (
      match List.assoc_opt name fields with Some v -> Some v | None -> go rest)
  in
  go t.rows_rev

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (time, fields) ->
      let obj =
        Json.Obj
          (("t", Json.Num time)
          :: List.map (fun (k, v) -> (k, Json.Num v)) fields)
      in
      Json.to_buffer buf obj;
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let to_csv t =
  let cols = columns t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," ("t" :: cols));
  Buffer.add_char buf '\n';
  List.iter
    (fun (time, fields) ->
      Buffer.add_string buf (Json.num_to_string time);
      List.iter
        (fun col ->
          Buffer.add_char buf ',';
          match List.assoc_opt col fields with
          | Some v -> Buffer.add_string buf (Json.num_to_string v)
          | None -> ())
        cols;
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let of_jsonl text =
  let t = create () in
  let lines = String.split_on_char '\n' text in
  let rec go i = function
    | [] -> Ok t
    | "" :: rest -> go (i + 1) rest
    | line :: rest -> (
      match Json.of_string line with
      | Error e -> Error (Printf.sprintf "line %d: %s" i e)
      | Ok (Json.Obj fields) -> (
        match List.assoc_opt "t" fields with
        | Some (Json.Num time) ->
          let cols =
            List.filter_map
              (fun (k, v) ->
                if String.equal k "t" then None
                else
                  match v with Json.Num f -> Some (k, f) | _ -> None)
              fields
          in
          sample t ~time cols;
          go (i + 1) rest
        | Some _ | None ->
          Error (Printf.sprintf "line %d: missing numeric \"t\" field" i))
      | Ok _ -> Error (Printf.sprintf "line %d: expected an object" i))
  in
  go 1 lines

let write_file t path =
  Io.write_atomic path
    (if Filename.check_suffix path ".csv" then to_csv t else to_jsonl t)

let missing t names =
  let have = columns t in
  List.filter (fun n -> not (List.mem n have)) names
