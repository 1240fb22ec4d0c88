type cmp = Eq | Ne | Lt | Gt | Masked

let eval_cmp cmp v c =
  match cmp with
  | Eq -> v = c
  | Ne -> v <> c
  | Lt -> v < c
  | Gt -> v > c
  | Masked -> v land c = c

let cmp_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Gt -> ">"
  | Masked -> "&="

type predicate =
  | Arg of { path : int list; name : string; cmp : cmp; const : int }
  | Res_state of {
      path : int list;
      name : string;
      field : [ `Mode | `Oflags ];
      cmp : cmp;
      const : int;
    }
  | Res_valid of { path : int list; name : string }

let pp_predicate ppf = function
  | Arg { path; name; cmp; const } ->
    Format.fprintf ppf "arg[%s](%s) %s %d"
      (String.concat "." (List.map string_of_int path))
      name (cmp_to_string cmp) const
  | Res_state { path; name; field; cmp; const } ->
    Format.fprintf ppf "res[%s](%s).%s %s %d"
      (String.concat "." (List.map string_of_int path))
      name
      (match field with `Mode -> "mode" | `Oflags -> "oflags")
      (cmp_to_string cmp) const
  | Res_valid { path; name } ->
    Format.fprintf ppf "res[%s](%s) valid"
      (String.concat "." (List.map string_of_int path))
      name

type terminator =
  | Jump of int
  | Cond of { pred : predicate; if_true : int; if_false : int }
  | Ret
  | Crash of int

type block = {
  id : int;
  sys_id : int;
  depth : int;
  tokens : int array;
  term : terminator;
}

let successors = function
  | Jump b -> [ b ]
  | Cond { if_true; if_false; _ } -> [ if_true; if_false ]
  | Ret | Crash _ -> []
