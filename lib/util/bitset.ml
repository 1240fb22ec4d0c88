type t = { capacity : int; words : Bytes.t }

(* One byte per 8 bits; Bytes gives unboxed storage without Int64 boxing. *)

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Bytes.make ((capacity + 7) / 8) '\000' }

let capacity t = t.capacity

let copy t = { capacity = t.capacity; words = Bytes.copy t.words }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let add t i =
  check t i;
  let b = Bytes.get_uint8 t.words (i lsr 3) in
  Bytes.set_uint8 t.words (i lsr 3) (b lor (1 lsl (i land 7)))

let remove t i =
  check t i;
  let b = Bytes.get_uint8 t.words (i lsr 3) in
  Bytes.set_uint8 t.words (i lsr 3) (b land lnot (1 lsl (i land 7)))

let mem t i =
  check t i;
  Bytes.get_uint8 t.words (i lsr 3) land (1 lsl (i land 7)) <> 0

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun b -> table.(b)

let cardinal t =
  let n = ref 0 in
  for i = 0 to Bytes.length t.words - 1 do
    n := !n + popcount_byte (Bytes.get_uint8 t.words i)
  done;
  !n

let is_empty t =
  let rec go i =
    i >= Bytes.length t.words
    || (Bytes.get_uint8 t.words i = 0 && go (i + 1))
  in
  go 0

let check_same a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let union_into ~dst src =
  check_same dst src;
  let added = ref 0 in
  for i = 0 to Bytes.length dst.words - 1 do
    let d = Bytes.get_uint8 dst.words i and s = Bytes.get_uint8 src.words i in
    let merged = d lor s in
    if merged <> d then begin
      added := !added + popcount_byte (merged lxor d);
      Bytes.set_uint8 dst.words i merged
    end
  done;
  !added

let diff_cardinal a b =
  check_same a b;
  let n = ref 0 in
  for i = 0 to Bytes.length a.words - 1 do
    let x = Bytes.get_uint8 a.words i land lnot (Bytes.get_uint8 b.words i) in
    n := !n + popcount_byte (x land 0xff)
  done;
  !n

let inter_cardinal a b =
  check_same a b;
  let n = ref 0 in
  for i = 0 to Bytes.length a.words - 1 do
    n := !n + popcount_byte (Bytes.get_uint8 a.words i land Bytes.get_uint8 b.words i)
  done;
  !n

let iter f t =
  for i = 0 to Bytes.length t.words - 1 do
    let b = Bytes.get_uint8 t.words i in
    if b <> 0 then
      for bit = 0 to 7 do
        if b land (1 lsl bit) <> 0 then f ((i lsl 3) lor bit)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity l =
  let t = create capacity in
  List.iter (add t) l;
  t

let equal a b = a.capacity = b.capacity && Bytes.equal a.words b.words

let subset a b =
  check_same a b;
  let rec go i =
    i >= Bytes.length a.words
    || (Bytes.get_uint8 a.words i land lnot (Bytes.get_uint8 b.words i) land 0xff = 0
        && go (i + 1))
  in
  go 0
