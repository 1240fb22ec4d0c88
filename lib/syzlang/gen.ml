module Rng = Sp_util.Rng

let call rng _db (spec : Spec.t) =
  let mk (f : Ty.field) =
    (* Mostly defaults with some randomization: seed tests in real corpora
       are valid programs, not uniform noise. *)
    if Rng.coin rng 0.5 then Value.default rng f.fty else Value.random rng f.fty
  in
  Prog.fix_lens { Prog.spec; args = List.map mk spec.Spec.args }

(* Collect the paths of resource-typed argument nodes of one call. *)
let resource_paths (c : Prog.call) ci =
  List.filter_map
    (fun (p, (ty : Ty.t)) ->
      match ty with
      | Ty.Resource kind when p.Prog.call = ci -> Some (p, kind)
      | _ -> None)
    (Prog.arg_nodes [| c |])
  |> List.map (fun (p, kind) -> ({ p with Prog.call = ci }, kind))

let wire_resources rng db prog =
  let prog = ref prog in
  let ci = ref 0 in
  while !ci < Array.length !prog do
    let paths = resource_paths !prog.(!ci) !ci in
    List.iter
      (fun (path, kind) ->
        match Prog.get !prog path with
        | Value.Vres i when i >= 0 -> ()
        | _ when Rng.coin rng 0.1 -> () (* keep a bogus fd on purpose *)
        | _ ->
          let producers =
            List.filteri (fun i _ -> i < !ci) (Array.to_list !prog)
            |> List.mapi (fun i c -> (i, c))
            |> List.filter (fun (_, (c : Prog.call)) -> c.spec.Spec.ret = Some kind)
          in
          (match (producers, Spec.producers_of db kind) with
          | (_ :: _ as ps), _ when Rng.coin rng 0.9 ->
            let i, _ = Rng.choose_list rng ps in
            prog := Prog.set !prog path (Value.Vres i)
          | _, [] -> ()
          | _, specs ->
            (* Insert a fresh producer right before this call. The path we
               are wiring shifts by one call. *)
            let producer = Prog.make_call rng (Rng.choose_list rng specs) in
            prog := Prog.insert_call !prog !ci producer;
            let path = { path with Prog.call = path.Prog.call + 1 } in
            prog := Prog.set !prog path (Value.Vres !ci);
            incr ci))
      paths;
    incr ci
  done;
  !prog

let program rng db ?(min_calls = 3) ?(max_calls = 7) () =
  let n = Rng.int_in rng min_calls max_calls in
  let specs = Array.of_list (Spec.all db) in
  let calls = Array.init n (fun _ -> call rng db (Rng.choose rng specs)) in
  wire_resources rng db calls

let corpus rng db ~size =
  let seen = Sp_util.Fpset.create () in
  let rec collect acc n guard =
    if n >= size || guard > size * 50 then List.rev acc
    else
      let p = program rng db () in
      let fp = Prog.fingerprint p in
      if Sp_util.Fpset.add seen fp.Prog.fp_hi fp.Prog.fp_lo then
        collect (p :: acc) (n + 1) (guard + 1)
      else collect acc n (guard + 1)
  in
  collect [] 0 0
