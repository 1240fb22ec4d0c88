module Bitset = Sp_util.Bitset

type t = {
  block_cover : Bitset.t;
  edge_cover : Bitset.t;
  mutable nblocks : int;
  mutable nedges : int;
}

let create ~num_blocks ~num_edges =
  {
    block_cover = Bitset.create num_blocks;
    edge_cover = Bitset.create num_edges;
    nblocks = 0;
    nedges = 0;
  }

let copy t =
  {
    block_cover = Bitset.copy t.block_cover;
    edge_cover = Bitset.copy t.edge_cover;
    nblocks = t.nblocks;
    nedges = t.nedges;
  }

type delta = { new_blocks : int; new_edges : int }

let add t ~blocks ~edges =
  let new_blocks = Bitset.union_into ~dst:t.block_cover blocks in
  let new_edges = Bitset.union_into ~dst:t.edge_cover edges in
  t.nblocks <- t.nblocks + new_blocks;
  t.nedges <- t.nedges + new_edges;
  { new_blocks; new_edges }

(* The scratch-execution variant: O(members) per execution instead of
   O(universe/8) words, and no bitset materialization on the hot path. An
   index loop (not [Stampset.iter]) keeps it closure-free. *)
let add_stamped t ~blocks ~edges =
  let new_blocks = ref 0 in
  for k = 0 to Sp_util.Stampset.cardinal blocks - 1 do
    let b = Sp_util.Stampset.member blocks k in
    if not (Bitset.mem t.block_cover b) then begin
      Bitset.add t.block_cover b;
      incr new_blocks
    end
  done;
  let new_edges = ref 0 in
  for k = 0 to Sp_util.Stampset.cardinal edges - 1 do
    let e = Sp_util.Stampset.member edges k in
    if not (Bitset.mem t.edge_cover e) then begin
      Bitset.add t.edge_cover e;
      incr new_edges
    end
  done;
  t.nblocks <- t.nblocks + !new_blocks;
  t.nedges <- t.nedges + !new_edges;
  { new_blocks = !new_blocks; new_edges = !new_edges }

let merge_into ~dst src =
  ignore (add dst ~blocks:src.block_cover ~edges:src.edge_cover)

module Json = Sp_obs.Json

let bitset_to_json b =
  Json.Obj
    [ ("capacity", Json.Num (float_of_int (Bitset.capacity b)));
      ( "elements",
        Json.Arr
          (List.map (fun i -> Json.Num (float_of_int i)) (Bitset.elements b))
      )
    ]

let bitset_of_json j =
  let open Json.Decode in
  let cap = int_field "capacity" j in
  let elems =
    List.map
      (function
        | Json.Num f when Float.is_integer f -> int_of_float f
        | _ -> error "bitset elements: expected integers")
      (arr_field "elements" j)
  in
  match Bitset.of_list cap elems with
  | b -> b
  | exception Invalid_argument msg -> Json.Decode.error "bitset: %s" msg

let to_json t =
  Json.Obj
    [ ("blocks", bitset_to_json t.block_cover);
      ("edges", bitset_to_json t.edge_cover)
    ]

let of_json j =
  let open Json.Decode in
  let block_cover = bitset_of_json (field "blocks" j) in
  let edge_cover = bitset_of_json (field "edges" j) in
  {
    block_cover;
    edge_cover;
    nblocks = Bitset.cardinal block_cover;
    nedges = Bitset.cardinal edge_cover;
  }

let blocks t = t.block_cover

let snapshot_blocks t = Bitset.copy t.block_cover

let mem_block t b = Bitset.mem t.block_cover b

let capacities t = (Bitset.capacity t.block_cover, Bitset.capacity t.edge_cover)

let blocks_covered t = t.nblocks

let edges_covered t = t.nedges
