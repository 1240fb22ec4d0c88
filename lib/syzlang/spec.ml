type t = {
  name : string;
  sys_id : int;
  args : Ty.field list;
  ret : string option;
}

type db = { by_name : (string, t) Hashtbl.t; ordered : t array }

let make_db entries =
  let by_name = Hashtbl.create (List.length entries) in
  let ordered =
    List.mapi
      (fun sys_id (name, args, ret) ->
        if Hashtbl.mem by_name name then
          invalid_arg ("Spec.make_db: duplicate syscall name " ^ name);
        let spec = { name; sys_id; args; ret } in
        Hashtbl.add by_name name spec;
        spec)
      entries
  in
  { by_name; ordered = Array.of_list ordered }

let find db name = Hashtbl.find_opt db.by_name name

let find_exn db name =
  match find db name with
  | Some s -> s
  | None -> invalid_arg ("Spec.find_exn: unknown syscall " ^ name)

let by_id db id = db.ordered.(id)

let count db = Array.length db.ordered

let all db = Array.to_list db.ordered

let producers_of db kind =
  List.filter (fun s -> s.ret = Some kind) (all db)

let pp ppf t =
  Format.fprintf ppf "%s(%a)%s" t.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf f -> Format.fprintf ppf "%s: %a" f.Ty.fname Ty.pp f.Ty.fty))
    t.args
    (match t.ret with None -> "" | Some k -> " -> " ^ k)
