module Rng = Sp_util.Rng

type call = { spec : Spec.t; args : Value.t list }

type t = call array

type path = { call : int; arg : int list }

let path_compare a b =
  match compare a.call b.call with 0 -> compare a.arg b.arg | c -> c

let path_to_string p =
  Printf.sprintf "c%d.%s" p.call
    (String.concat "." (List.map string_of_int p.arg))

(* Length fixing: a [Len i] field mirrors the length of the sibling argument
   at index [i] within the same argument list (top level or struct). *)

let value_length (v : Value.t) =
  match v with
  | Vbuf { len; _ } -> len
  | Vstr s -> String.length s
  | Vptr (Some (Vbuf { len; _ })) -> len
  | Vptr (Some (Vstr s)) -> String.length s
  | other -> Value.scalar other

let rec fix_level (tys : Ty.t list) (vs : Value.t list) =
  let vs_arr = Array.of_list vs in
  List.mapi
    (fun i (ty : Ty.t) ->
      match (ty, vs_arr.(i)) with
      | Ty.Len sib, _ when sib >= 0 && sib < Array.length vs_arr ->
        Value.Vlen (value_length vs_arr.(sib))
      | Ty.Ptr inner, Value.Vptr (Some v) ->
        let fixed = fix_level [ inner ] [ v ] in
        Value.Vptr (Some (List.hd fixed))
      | Ty.Struct fields, Value.Vstruct inner_vs
        when List.length fields = List.length inner_vs ->
        Value.Vstruct (fix_level (List.map (fun f -> f.Ty.fty) fields) inner_vs)
      | _, v -> v)
    tys

let fix_lens c =
  let tys = List.map (fun f -> f.Ty.fty) c.spec.Spec.args in
  { c with args = fix_level tys c.args }

let make_call rng (spec : Spec.t) =
  fix_lens
    { spec; args = List.map (fun f -> Value.default rng f.Ty.fty) spec.args }

(* Node enumeration. *)

let rec enum_ty_value ~call ~rev_path (ty : Ty.t) (v : Value.t) acc =
  let here = ({ call; arg = List.rev rev_path }, ty) in
  let acc = here :: acc in
  match (ty, v) with
  | Ty.Ptr inner, Value.Vptr (Some v) ->
    enum_ty_value ~call ~rev_path:(0 :: rev_path) inner v acc
  | Ty.Ptr inner, Value.Vptr None ->
    (* NULL pointers still expose the pointee node: mutating it requires
       materializing the pointee, which the instantiator can do. *)
    ignore inner;
    acc
  | Ty.Struct fields, Value.Vstruct vs ->
    List.fold_left2
      (fun (acc, i) f v ->
        (enum_ty_value ~call ~rev_path:(i :: rev_path) f.Ty.fty v acc, i + 1))
      (acc, 0) fields vs
    |> fst
  | _, _ -> acc

let arg_nodes t =
  let acc = ref [] in
  Array.iteri
    (fun ci c ->
      List.iteri
        (fun i (f : Ty.field) ->
          let v = List.nth c.args i in
          acc := enum_ty_value ~call:ci ~rev_path:[ i ] f.fty v !acc)
        c.spec.Spec.args)
    t;
  List.rev !acc

let is_mutable (ty : Ty.t) =
  match ty with
  | Ty.Const _ | Ty.Len _ | Ty.Struct _ -> false
  | Ty.Int _ | Ty.Flags _ | Ty.Enum _ | Ty.Buffer _ | Ty.Str _ | Ty.Ptr _
  | Ty.Resource _ ->
    true

let mutable_nodes t =
  List.filter (fun (_, ty) -> is_mutable ty) (arg_nodes t)

let num_args t = List.length (arg_nodes t)

let nth_exn l i name =
  match List.nth_opt l i with
  | Some x -> x
  | None -> invalid_arg ("Prog: dangling path at " ^ name)

let ty_at t (p : path) =
  if p.call < 0 || p.call >= Array.length t then invalid_arg "Prog.ty_at: bad call";
  let c = t.(p.call) in
  match p.arg with
  | [] -> invalid_arg "Prog.ty_at: empty path"
  | top :: rest ->
    let rec go (ty : Ty.t) = function
      | [] -> ty
      | i :: rest -> (
        match ty with
        | Ty.Ptr inner when i = 0 -> go inner rest
        | Ty.Struct fields -> go (nth_exn fields i "struct field").Ty.fty rest
        | _ -> invalid_arg "Prog.ty_at: path descends into a leaf")
    in
    go (nth_exn c.spec.Spec.args top "top arg").Ty.fty rest

let get t (p : path) =
  if p.call < 0 || p.call >= Array.length t then invalid_arg "Prog.get: bad call";
  let c = t.(p.call) in
  match p.arg with
  | [] -> invalid_arg "Prog.get: empty path"
  | top :: rest ->
    let rec go (v : Value.t) = function
      | [] -> v
      | i :: rest -> (
        match v with
        | Value.Vptr (Some inner) when i = 0 -> go inner rest
        | Value.Vstruct vs -> go (nth_exn vs i "struct value") rest
        | _ -> invalid_arg "Prog.get: path descends into a leaf value")
    in
    go (nth_exn c.args top "top value") rest

let set t (p : path) v =
  if p.call < 0 || p.call >= Array.length t then invalid_arg "Prog.set: bad call";
  let c = t.(p.call) in
  match p.arg with
  | [] -> invalid_arg "Prog.set: empty path"
  | top :: rest ->
    (* Type-directed descent: a NULL pointer on the path is materialized
       with a minimal well-formed pointee so the write still lands
       (instantiators rely on this to mutate under NULLed pointers). *)
    let rec go (ty : Ty.t) (cur : Value.t) = function
      | [] -> v
      | i :: rest -> (
        match (ty, cur) with
        | Ty.Ptr inner_ty, Value.Vptr (Some inner) when i = 0 ->
          Value.Vptr (Some (go inner_ty inner rest))
        | Ty.Ptr inner_ty, Value.Vptr None when i = 0 ->
          Value.Vptr (Some (go inner_ty (Value.minimal inner_ty) rest))
        | Ty.Struct fields, Value.Vstruct vs when i < List.length fields ->
          Value.Vstruct
            (List.mapi
               (fun j x -> if j = i then go (nth_exn fields i "field").Ty.fty x rest else x)
               vs)
        | _ -> invalid_arg "Prog.set: path descends into a leaf value")
    in
    let args =
      List.mapi
        (fun j x ->
          if j = top then go (nth_exn c.spec.Spec.args top "top arg").Ty.fty x rest
          else x)
        c.args
    in
    let t' = Array.copy t in
    t'.(p.call) <- fix_lens { c with args };
    t'

(* Resource reference rewiring for call-level edits. *)

let rec map_res f (v : Value.t) =
  match v with
  | Value.Vres i -> Value.Vres (f i)
  | Value.Vptr (Some inner) -> Value.Vptr (Some (map_res f inner))
  | Value.Vstruct vs -> Value.Vstruct (List.map (map_res f) vs)
  | Value.Vconst _ | Value.Vint _ | Value.Vflags _ | Value.Venum _
  | Value.Vlen _ | Value.Vbuf _ | Value.Vstr _ | Value.Vptr None ->
    v

let map_call_res f c = { c with args = List.map (map_res f) c.args }

let insert_call t pos c =
  let n = Array.length t in
  if pos < 0 || pos > n then invalid_arg "Prog.insert_call: bad position";
  let shift i = if i >= pos then i + 1 else i in
  Array.init (n + 1) (fun i ->
      if i < pos then t.(i)
      else if i = pos then c
      else map_call_res shift t.(i - 1))

let remove_call t pos =
  let n = Array.length t in
  if pos < 0 || pos >= n then invalid_arg "Prog.remove_call: bad position";
  let rewire i = if i = pos then -1 else if i > pos then i - 1 else i in
  Array.init (n - 1) (fun i ->
      let c = if i < pos then t.(i) else t.(i + 1) in
      map_call_res rewire c)

let validate t =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  Array.iteri
    (fun ci c ->
      if List.length c.args <> List.length c.spec.Spec.args then
        fail "call %d (%s): arity mismatch" ci c.spec.Spec.name
      else begin
        List.iter2
          (fun (f : Ty.field) v ->
            if not (Value.conforms f.fty v) then
              fail "call %d (%s): argument %s does not conform to %s" ci
                c.spec.Spec.name f.fname (Ty.to_string f.fty))
          c.spec.Spec.args c.args;
        (* Resource references must point to earlier producers of the kind. *)
        let rec check_res (ty : Ty.t) (v : Value.t) =
          match (ty, v) with
          | Ty.Resource kind, Value.Vres i ->
            if i >= 0 then
              if i >= ci then fail "call %d: forward resource reference r%d" ci i
              else if i < Array.length t && t.(i).spec.Spec.ret <> Some kind then
                fail "call %d: r%d does not produce resource %s" ci i kind
          | Ty.Ptr inner, Value.Vptr (Some v) -> check_res inner v
          | Ty.Struct fields, Value.Vstruct vs ->
            List.iter2 (fun f v -> check_res f.Ty.fty v) fields vs
          | _, _ -> ()
        in
        List.iter2 (fun (f : Ty.field) v -> check_res f.fty v) c.spec.Spec.args c.args;
        (* Len fields must be consistent with their sibling. *)
        let fixed = fix_lens c in
        if not (List.for_all2 Value.equal fixed.args c.args) then
          fail "call %d (%s): stale Len field" ci c.spec.Spec.name
      end)
    t;
  match !problem with None -> Ok () | Some msg -> Error msg

let hash t =
  Array.fold_left
    (fun acc c ->
      let h =
        List.fold_left
          (fun acc v -> (acc * 1000003) lxor Value.content_hash v)
          (Hashtbl.hash c.spec.Spec.name)
          c.args
      in
      (acc * 65599) lxor h)
    0 t

(* Structural fingerprint: one pass over the program that steps two
   independently seeded 63-bit accumulators, each a multiply-xorshift
   permutation of its state for a fixed input, so two programs share a
   fingerprint only if both halves collide at once. Every constructor
   mixes its own tag and every list its length, so no two nestings
   encode alike; strings are mixed byte for byte. The accumulators are
   the result record itself, so the walk allocates nothing. *)

type fingerprint = { mutable fp_hi : int; mutable fp_lo : int }

let mix fp x =
  let h = (fp.fp_hi lxor x) * 0x2545F4914F6CDD1D in
  fp.fp_hi <- h lxor (h lsr 29);
  let l = (fp.fp_lo + x) * 0x3C6EF372FE94F82B in
  fp.fp_lo <- l lxor (l lsr 31)

(* Length first, then the bytes seven to a word. *)
let mix_string fp s =
  let n = String.length s in
  mix fp n;
  let w = ref 0 in
  for i = 0 to n - 1 do
    w := (!w lsl 8) lor Char.code (String.unsafe_get s i);
    if i mod 7 = 6 then begin
      mix fp !w;
      w := 0
    end
  done;
  if n mod 7 <> 0 then mix fp !w

let rec mix_value fp (v : Value.t) =
  match v with
  | Vconst n -> mix fp 1; mix fp n
  | Vint n -> mix fp 2; mix fp n
  | Vflags n -> mix fp 3; mix fp n
  | Venum n -> mix fp 4; mix fp n
  | Vlen n -> mix fp 5; mix fp n
  | Vbuf { len; seed } -> mix fp 6; mix fp len; mix fp seed
  | Vstr s -> mix fp 7; mix_string fp s
  | Vptr None -> mix fp 8
  | Vptr (Some v) -> mix fp 9; mix_value fp v
  | Vstruct vs -> mix fp 10; mix_values fp vs
  | Vres i -> mix fp 11; mix fp i

and mix_values fp vs =
  mix fp (List.length vs);
  mix_list fp vs

and mix_list fp = function
  | [] -> ()
  | v :: rest ->
    mix_value fp v;
    mix_list fp rest

(* A final avalanche on each half, so that every input bit reaches
   every output bit. *)
let avalanche h =
  let h = (h lxor (h lsr 32)) * 0x1D8E4E27C47D124F in
  h lxor (h lsr 29)

let fingerprint t =
  let fp = { fp_hi = 0x1851F42D4C957F2D; fp_lo = 0x14057B7EF767814F } in
  mix fp (Array.length t);
  for i = 0 to Array.length t - 1 do
    let c = Array.unsafe_get t i in
    mix fp 12;
    mix_string fp c.spec.Spec.name;
    mix_values fp c.args
  done;
  fp.fp_hi <- avalanche fp.fp_hi;
  fp.fp_lo <- avalanche fp.fp_lo;
  fp

let fingerprint_to_hex fp = Sp_util.Fpset.to_hex fp.fp_hi fp.fp_lo

let fingerprint_of_hex s =
  Option.map
    (fun (fp_hi, fp_lo) -> { fp_hi; fp_lo })
    (Sp_util.Fpset.of_hex s)

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ca cb ->
         String.equal ca.spec.Spec.name cb.spec.Spec.name
         && List.length ca.args = List.length cb.args
         && List.for_all2 Value.equal ca.args cb.args)
       a b

let pp ppf t =
  Array.iteri
    (fun i c ->
      (match c.spec.Spec.ret with
      | Some _ -> Format.fprintf ppf "r%d = " i
      | None -> ());
      Format.fprintf ppf "%s(%a)@." c.spec.Spec.name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Value.pp)
        c.args)
    t

let to_string t = Format.asprintf "%a" pp t
