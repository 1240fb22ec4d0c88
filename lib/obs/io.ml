let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let write_atomic_with ?inject path writer =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path ^ ".") ".tmp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          writer oc;
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc));
      (match inject with Some f -> f () | None -> ());
      Sys.rename tmp path;
      fsync_dir dir)

let write_atomic ?inject path data =
  write_atomic_with ?inject path (fun oc -> output_string oc data)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
