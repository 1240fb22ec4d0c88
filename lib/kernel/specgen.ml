module Rng = Sp_util.Rng
module Ty = Sp_syzlang.Ty
module Spec = Sp_syzlang.Spec

(* name, produced resource kind, consumed resource kind. Producers come
   first per kind so consumers always have a producer available. *)
let catalog =
  [
    ("open", Some "fd", None);
    ("read", None, Some "fd");
    ("openat$dir", Some "fd", None);
    ("memfd_create", Some "fd", None);
    ("socket$inet", Some "sock", None);
    ("socket$unix", Some "sock", None);
    ("pipe2", Some "pipefd", None);
    ("timerfd_create", Some "timerfd", None);
    ("io_uring_setup", Some "ring", None);
    ("epoll_create1", Some "kobj", None);
    ("eventfd2", Some "kobj", None);
    ("accept$inet", Some "sock", Some "sock");
    ("dup3", Some "fd", Some "fd");
    ("write", None, Some "fd");
    ("pread64", None, Some "fd");
    ("pwrite64", None, Some "fd");
    ("ioctl$scsi", None, Some "fd");
    ("ioctl$tty", None, Some "fd");
    ("ioctl$kvm", None, Some "fd");
    ("ioctl$sock", None, Some "sock");
    ("mmap", None, Some "fd");
    ("fcntl$setfl", None, Some "fd");
    ("lseek", None, Some "fd");
    ("ftruncate", None, Some "fd");
    ("fallocate", None, Some "fd");
    ("sendmsg$inet", None, Some "sock");
    ("recvmsg", None, Some "sock");
    ("setsockopt$inet", None, Some "sock");
    ("getsockopt", None, Some "sock");
    ("bind$inet", None, Some "sock");
    ("connect$inet", None, Some "sock");
    ("listen", None, Some "sock");
    ("splice", None, Some "pipefd");
    ("tee", None, Some "pipefd");
    ("timerfd_settime", None, Some "timerfd");
    ("io_uring_enter", None, Some "ring");
    ("epoll_ctl$add", None, Some "kobj");
    ("getdents64", None, Some "fd");
    ("statx", None, Some "fd");
    ("madvise", None, None);
    ("mprotect", None, None);
    ("futex", None, None);
    ("mount$ext4", None, None);
    ("unlinkat", None, None);
    ("renameat2", None, None);
    ("prctl", None, None);
    ("seccomp", None, None);
    ("bpf$prog_load", None, None);
  ]

let catalog_size = List.length catalog

let file_names =
  [ "./file0"; "./file1"; "./file2"; "/dev/scsi0"; "/dev/tty1"; "/dev/kvm";
    "/proc/self/status"; "./dir0/file0" ]

let gen_flag_spec rng base =
  let n = Rng.int_in rng 5 8 in
  {
    Ty.flag_name = base;
    flag_values =
      List.init n (fun i -> (Printf.sprintf "%s_B%d" (String.uppercase_ascii base) i, 1 lsl i));
  }

let gen_enum rng base =
  let n = Rng.int_in rng 4 10 in
  (* Non-contiguous command numbers, like real ioctl commands. *)
  let start = Rng.int_in rng 1 64 in
  let choices =
    List.init n (fun i ->
        (Printf.sprintf "%s_C%d" (String.uppercase_ascii base) i, start + (i * 17)))
  in
  Ty.Enum { enum_name = base; choices }

let gen_int rng =
  let hi = Rng.choose rng [| 63; 255; 1023; 4095; 65535 |] in
  Ty.Int { bits = 32; lo = 0; hi }

(* A leaf or shallow field type, named so operand signatures can refer to
   it. [depth] bounds struct nesting. *)
let rec gen_field rng ~name ~depth ~sibling_buffer =
  let choices =
    [ (`Flags, 3.0); (`Enum, 2.0); (`Int, 3.0); (`Str, 1.0); (`Bufptr, 2.0) ]
    @ (if depth > 0 then [ (`Structptr, 2.5) ] else [])
    @ if sibling_buffer >= 0 then [ (`Len, 2.0) ] else []
  in
  match Rng.weighted rng choices with
  | `Flags -> Ty.Flags (gen_flag_spec rng (name ^ "_flags"))
  | `Enum -> gen_enum rng (name ^ "_cmd")
  | `Int -> gen_int rng
  | `Str -> Ty.Str (Rng.sample rng (Array.of_list file_names) (Rng.int_in rng 2 4))
  | `Bufptr ->
    let min_len = 0 and max_len = Rng.choose rng [| 16; 64; 256; 4096 |] in
    Ty.Ptr (Ty.Buffer { min_len; max_len })
  | `Len -> Ty.Len sibling_buffer
  | `Structptr ->
    let nfields = Rng.int_in rng 2 4 in
    let fields =
      List.init nfields (fun i ->
          let fname = Printf.sprintf "%s_f%d" name i in
          (* Struct fields can themselves contain one more struct level when
             depth allows — Figure 4's nested struct buffers. *)
          let buffer_sib =
            (* within the struct, field i-1 index if it was a buffer *)
            -1
          in
          { Ty.fname; fty = gen_field rng ~name:fname ~depth:(depth - 1) ~sibling_buffer:buffer_sib })
    in
    Ty.Ptr (Ty.Struct fields)

let buffer_like (ty : Ty.t) =
  match ty with
  | Ty.Ptr (Ty.Buffer _) | Ty.Buffer _ | Ty.Str _ -> true
  | _ -> false

(* Filler arguments: fields the kernel accepts but never branches on —
   payload buffers, padding words, reserved structs. Real system calls are
   dominated by these; "only a few arguments are effective in changing the
   behavior" (§1), which is precisely the slack a learned localizer
   exploits. Their names end in "_pad" and the kernel builder never
   generates predicates over them. *)
let rec gen_filler rng ~name ~depth =
  match Rng.weighted rng
          ([ (`Int, 3.0); (`Buf, 3.0); (`Str, 1.0) ]
          @ if depth > 0 then [ (`Struct, 2.0) ] else [])
  with
  | `Int -> Ty.Int { bits = 32; lo = 0; hi = 65535 }
  | `Buf -> Ty.Ptr (Ty.Buffer { min_len = 0; max_len = 4096 })
  | `Str -> Ty.Str (Rng.sample rng (Array.of_list file_names) 2)
  | `Struct ->
    let nfields = Rng.int_in rng 2 3 in
    Ty.Ptr
      (Ty.Struct
         (List.init nfields (fun i ->
              let fname = Printf.sprintf "%s%d_pad" name i in
              { Ty.fname; fty = gen_filler rng ~name:fname ~depth:(depth - 1) })))

let gen_args rng name ~consumes =
  let base =
    match consumes with
    | Some kind -> [ { Ty.fname = name ^ "_res"; fty = Ty.Resource kind } ]
    | None -> []
  in
  let extra = Rng.int_in rng 2 3 in
  let fillers = Rng.int_in rng 10 16 in
  let fields = ref (List.rev base) in
  for i = 0 to extra - 1 do
    let fname = Printf.sprintf "%s_a%d" name i in
    (* If the previous top-level field is buffer-like, bias towards pairing
       it with a Len field (buffer+length calling conventions). *)
    let sibling_buffer =
      match !fields with
      | prev :: _ when buffer_like prev.Ty.fty && Rng.coin rng 0.6 ->
        List.length !fields - 1
      | _ -> -1
    in
    let fty =
      if sibling_buffer >= 0 then Ty.Len sibling_buffer
      else gen_field rng ~name:fname ~depth:2 ~sibling_buffer:(-1)
    in
    fields := { Ty.fname; fty } :: !fields
  done;
  for i = 0 to fillers - 1 do
    let fname = Printf.sprintf "%s_f%d_pad" name i in
    fields := { Ty.fname; fty = gen_filler rng ~name:fname ~depth:1 } :: !fields
  done;
  (* Interleave fillers among real arguments deterministically. *)
  let arr = Array.of_list (List.rev !fields) in
  Rng.shuffle rng arr;
  (* keep the resource first, as in real call conventions *)
  let res, rest =
    Array.to_list arr
    |> List.partition (fun f -> match f.Ty.fty with Ty.Resource _ -> true | _ -> false)
  in
  res @ rest

let generate rng ~num_syscalls =
  let picked = List.filteri (fun i _ -> i < num_syscalls) catalog in
  let entries =
    List.map
      (fun (name, produces, consumes) ->
        (name, gen_args rng name ~consumes, produces))
      picked
  in
  Spec.make_db entries
