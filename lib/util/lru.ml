(* Hashtbl + intrusive doubly-linked recency list: O(1) find / put / evict.
   Recency order and freshness are separate axes: a hit refreshes recency
   (the entry moves to the front) but never the write stamp, so TTL expiry
   is measured from the last [put] — a stale answer cannot be kept alive by
   being popular. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable written_at : float;
  mutable prev : ('k, 'v) node option;  (* towards the front (most recent) *)
  mutable next : ('k, 'v) node option;  (* towards the back (least recent) *)
}

type ('k, 'v) t = {
  capacity : int;
  ttl : float option;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable evictions : int;
  mutable expirations : int;
}

let create ?ttl ~capacity () =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  (match ttl with
  | Some t when t <= 0.0 -> invalid_arg "Lru.create: ttl must be positive"
  | Some _ | None -> ());
  {
    capacity;
    ttl;
    table = Hashtbl.create (min capacity 1024);
    head = None;
    tail = None;
    evictions = 0;
    expirations = 0;
  }

let length t = Hashtbl.length t.table

let capacity t = t.capacity

let evictions t = t.evictions

let expirations t = t.expirations

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table k

let expired t ~now node =
  match t.ttl with None -> false | Some ttl -> now -. node.written_at > ttl

let find t ~now k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
    if expired t ~now node then begin
      unlink t node;
      Hashtbl.remove t.table k;
      t.expirations <- t.expirations + 1;
      None
    end
    else begin
      unlink t node;
      push_front t node;
      Some node.value
    end

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.evictions <- t.evictions + 1

let put t ~now k v =
  (match Hashtbl.find_opt t.table k with
  | Some node ->
    node.value <- v;
    node.written_at <- now;
    unlink t node;
    push_front t node
  | None ->
    if Hashtbl.length t.table >= t.capacity then evict_tail t;
    let node = { key = k; value = v; written_at = now; prev = None; next = None } in
    Hashtbl.replace t.table k node;
    push_front t node);
  assert (Hashtbl.length t.table <= t.capacity)

let fold f acc t =
  Hashtbl.fold (fun k node acc -> f acc k node.value) t.table acc

let to_list t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk ((node.key, node.value, node.written_at) :: acc) node.next
  in
  walk [] t.head

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None
