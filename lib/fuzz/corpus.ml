module Rng = Sp_util.Rng
module Prog = Sp_syzlang.Prog
module Fpset = Sp_util.Fpset

type entry = {
  prog : Prog.t;
  blocks : Sp_util.Bitset.t;
  edges : Sp_util.Bitset.t;
  added_at : float;
}

type t = {
  mutable items : entry array;
  mutable count : int;
  seen : Fpset.t;  (* the fingerprint of every entry's program *)
  distance : (entry -> int) option;
  (* directed mode: per-entry distance (parallel to [items]) plus the
     current minimum and the indices achieving it, maintained on [add] so
     base selection is O(1) instead of an O(n) scan + O(n) allocation *)
  mutable dists : int array;
  mutable best_dist : int;
  mutable best_tier : int list;
}

let create ?distance () =
  {
    items = [||];
    count = 0;
    seen = Fpset.create ();
    distance;
    dists = [||];
    best_dist = max_int;
    best_tier = [];
  }

(* Shards run each epoch against a private copy of the barrier-frozen
   global corpus: entries are immutable, so the arrays are copied shallow
   and the distance closure is shared. *)
let copy t =
  {
    items = Array.copy t.items;
    count = t.count;
    seen = Fpset.copy t.seen;
    distance = t.distance;
    dists = Array.copy t.dists;
    best_dist = t.best_dist;
    best_tier = t.best_tier;
  }

let size t = t.count

let nth t i =
  if i < 0 || i >= t.count then invalid_arg "Corpus.nth";
  t.items.(i)

let entries t = List.init t.count (fun i -> t.items.(t.count - 1 - i))

let mem_prog t prog =
  let fp = Prog.fingerprint prog in
  Fpset.mem t.seen fp.Prog.fp_hi fp.Prog.fp_lo

let entry_distance t i =
  if i < 0 || i >= t.count then invalid_arg "Corpus.entry_distance";
  match t.distance with
  | None -> invalid_arg "Corpus.entry_distance: no distance function"
  | Some _ -> t.dists.(i)

let min_distance t = if t.best_tier = [] then None else Some t.best_dist

let add t entry =
  let fp = Prog.fingerprint entry.prog in
  if not (Fpset.add t.seen fp.Prog.fp_hi fp.Prog.fp_lo) then false
  else begin
    if t.count = Array.length t.items then begin
      let cap = max 16 (2 * Array.length t.items) in
      let items = Array.make cap entry in
      Array.blit t.items 0 items 0 t.count;
      t.items <- items;
      if Option.is_some t.distance then begin
        let dists = Array.make cap max_int in
        Array.blit t.dists 0 dists 0 t.count;
        t.dists <- dists
      end
    end;
    let i = t.count in
    t.items.(i) <- entry;
    t.count <- t.count + 1;
    (match t.distance with
    | None -> ()
    | Some distance ->
      let d = distance entry in
      t.dists.(i) <- d;
      if d < t.best_dist then begin
        t.best_dist <- d;
        t.best_tier <- [ i ]
      end
      else if d = t.best_dist then t.best_tier <- i :: t.best_tier);
    true
  end

let choose rng t =
  if t.count = 0 then invalid_arg "Corpus.choose: empty corpus";
  t.items.(Rng.int rng t.count)

let choose_directed rng t =
  if t.count = 0 then invalid_arg "Corpus.choose_directed: empty corpus";
  if Option.is_none t.distance then
    invalid_arg "Corpus.choose_directed: corpus has no distance function";
  if Rng.coin rng 0.1 || t.best_tier = [] then choose rng t
  else t.items.(Rng.choose_list rng t.best_tier)
