type flag_spec = { flag_name : string; flag_values : (string * int) list }

type t =
  | Const of int
  | Int of { bits : int; lo : int; hi : int }
  | Flags of flag_spec
  | Enum of { enum_name : string; choices : (string * int) list }
  | Len of int
  | Buffer of { min_len : int; max_len : int }
  | Str of string list
  | Ptr of t
  | Struct of field list
  | Resource of string

and field = { fname : string; fty : t }

let kind_token = function
  | Const _ -> "const"
  | Int _ -> "int"
  | Flags _ -> "flags"
  | Enum _ -> "enum"
  | Len _ -> "len"
  | Buffer _ -> "buffer"
  | Str _ -> "string"
  | Ptr _ -> "ptr"
  | Struct _ -> "struct"
  | Resource _ -> "resource"

let all_kind_tokens =
  [ "const"; "int"; "flags"; "enum"; "len"; "buffer"; "string"; "ptr";
    "struct"; "resource" ]

let rec pp ppf = function
  | Const v -> Format.fprintf ppf "const[%d]" v
  | Int { bits; lo; hi } -> Format.fprintf ppf "int%d[%d:%d]" bits lo hi
  | Flags f -> Format.fprintf ppf "flags[%s]" f.flag_name
  | Enum e -> Format.fprintf ppf "enum[%s]" e.enum_name
  | Len i -> Format.fprintf ppf "len[arg%d]" i
  | Buffer { min_len; max_len } -> Format.fprintf ppf "buffer[%d:%d]" min_len max_len
  | Str names -> Format.fprintf ppf "string[%d]" (List.length names)
  | Ptr inner -> Format.fprintf ppf "ptr[%a]" pp inner
  | Struct fields ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf f -> Format.fprintf ppf "%s:%a" f.fname pp f.fty))
      fields
  | Resource kind -> Format.fprintf ppf "res[%s]" kind

let to_string t = Format.asprintf "%a" pp t
