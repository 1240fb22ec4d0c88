(* Two-list functional-queue core behind a small mutable record: [front] is
   the head of the queue in order, [back] holds recent pushes in reverse.
   Push is O(1); pop reverses [back] into [front] only when [front] runs
   out, so every element is moved at most once — amortized O(1). *)

type 'a t = {
  mutable front : 'a list;
  mutable back : 'a list;
  mutable len : int;
}

let create () = { front = []; back = []; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let push t x =
  t.back <- x :: t.back;
  t.len <- t.len + 1

let norm t =
  if t.front = [] then begin
    t.front <- List.rev t.back;
    t.back <- []
  end

let pop_opt t =
  norm t;
  match t.front with
  | [] -> None
  | x :: rest ->
    t.front <- rest;
    t.len <- t.len - 1;
    Some x

let peek_opt t =
  norm t;
  match t.front with [] -> None | x :: _ -> Some x

let to_list t = t.front @ List.rev t.back

let of_list l = { front = l; back = []; len = List.length l }

let clear t =
  t.front <- [];
  t.back <- [];
  t.len <- 0

let drain t =
  let all = to_list t in
  clear t;
  all

let iter f t =
  List.iter f t.front;
  List.iter f (List.rev t.back)

let fold f acc t = List.fold_left f (List.fold_left f acc t.front) (List.rev t.back)

(* Used by pollers that deliver an arbitrary subset (e.g. ready requests
   whose completion times are not monotone in queue order): one O(n) pass,
   relative order preserved on both sides. *)
let partition p t =
  let yes, no = List.partition p (to_list t) in
  t.front <- no;
  t.back <- [];
  t.len <- List.length no;
  yes
