module Linear = struct
  type t = { w : Ad.t; b : Ad.t option }

  let create ?(bias = true) rng d_in d_out =
    {
      w = Ad.param (Tensor.glorot rng d_in d_out);
      b = (if bias then Some (Ad.param (Tensor.create 1 d_out)) else None);
    }

  let apply t x =
    let y = Ad.matmul x t.w in
    match t.b with Some b -> Ad.add y b | None -> y

  let params t = t.w :: (match t.b with Some b -> [ b ] | None -> [])

  let weight t = Ad.value t.w

  let bias t = Option.map Ad.value t.b

  (* Fresh parameter leaves over the SAME value tensors: a stripe worker
     clone accumulates private gradients while reading (and seeing
     updates to) the primary's weights. *)
  let clone_shared t =
    { w = Ad.param (Ad.value t.w); b = Option.map (fun b -> Ad.param (Ad.value b)) t.b }
end

module Embedding = struct
  type t = { table : Ad.t; dim : int }

  let create rng ~vocab ~dim = { table = Ad.param (Tensor.randn rng 0.1 vocab dim); dim }

  let lookup t idx = Ad.gather_rows t.table idx

  let params t = [ t.table ]

  let dim t = t.dim

  let table t = Ad.value t.table

  let clone_shared t = { table = Ad.param (Ad.value t.table); dim = t.dim }
end

let num_parameters params =
  List.fold_left (fun acc p -> acc + Tensor.numel (Ad.value p)) 0 params
