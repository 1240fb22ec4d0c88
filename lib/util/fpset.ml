(* One flat int array holds every pair: open addressing with linear
   probing over a power-of-two capacity, grown at half load. Slot [i]
   keeps its first half at [2i] and its second at [2i + 1]; the pair
   (0, 0) marks an empty slot, so the key (0, 0) itself lives in a flag.
   Ints are immediates: the table holds nothing for the GC to trace, and
   an insert allocates nothing unless it doubles the table. *)

type t = {
  mutable slots : int array;
  mutable mask : int;  (* capacity - 1 *)
  mutable stored : int;  (* pairs in [slots] *)
  mutable zero : bool;  (* (0, 0) is a member *)
}

let initial_capacity = 32

let create () =
  {
    slots = Array.make (2 * initial_capacity) 0;
    mask = initial_capacity - 1;
    stored = 0;
    zero = false;
  }

let length t = t.stored + Bool.to_int t.zero

let copy t = { t with slots = Array.copy t.slots }

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) 0;
  t.stored <- 0;
  t.zero <- false

(* Fibonacci hashing: the product's high bits spread even sequential
   keys over the table. *)
let home mask hi lo = ((hi lxor lo) * 0x2545F4914F6CDD1D) lsr 31 land mask

(* The slot holding [(hi, lo)], or the empty slot where it would go. *)
let rec probe slots mask hi lo i =
  let h = Array.unsafe_get slots (2 * i)
  and l = Array.unsafe_get slots ((2 * i) + 1) in
  if (h = hi && l = lo) || (h = 0 && l = 0) then i
  else probe slots mask hi lo ((i + 1) land mask)

let occupied slots i = slots.(2 * i) <> 0 || slots.((2 * i) + 1) <> 0

let mem t hi lo =
  if hi = 0 && lo = 0 then t.zero
  else occupied t.slots (probe t.slots t.mask hi lo (home t.mask hi lo))

let place slots mask hi lo =
  let i = probe slots mask hi lo (home mask hi lo) in
  slots.(2 * i) <- hi;
  slots.((2 * i) + 1) <- lo

let grow t =
  let old = t.slots in
  let mask = (2 * (t.mask + 1)) - 1 in
  let slots = Array.make (2 * (mask + 1)) 0 in
  for i = 0 to t.mask do
    if occupied old i then place slots mask old.(2 * i) old.((2 * i) + 1)
  done;
  t.slots <- slots;
  t.mask <- mask

let add t hi lo =
  if hi = 0 && lo = 0 then begin
    let fresh = not t.zero in
    t.zero <- true;
    fresh
  end
  else begin
    let i = probe t.slots t.mask hi lo (home t.mask hi lo) in
    if occupied t.slots i then false
    else begin
      t.slots.(2 * i) <- hi;
      t.slots.((2 * i) + 1) <- lo;
      t.stored <- t.stored + 1;
      if 2 * t.stored > t.mask + 1 then grow t;
      true
    end
  end

(* Unsigned order on 63-bit ints: flipping the sign bit maps it onto the
   signed order. It matches the order of the fixed-width hex text. *)
let ucompare a b = Int.compare (a lxor min_int) (b lxor min_int)

let iter_sorted f t =
  let live = Array.make t.stored 0 and n = ref 0 in
  for i = 0 to t.mask do
    if occupied t.slots i then begin
      live.(!n) <- i;
      incr n
    end
  done;
  let slots = t.slots in
  Array.sort
    (fun i j ->
      match ucompare slots.(2 * i) slots.(2 * j) with
      | 0 -> ucompare slots.((2 * i) + 1) slots.((2 * j) + 1)
      | c -> c)
    live;
  if t.zero then f 0 0;
  Array.iter (fun i -> f slots.(2 * i) slots.((2 * i) + 1)) live

let hex_digits = "0123456789abcdef"

let to_hex hi lo =
  let b = Bytes.create 32 in
  for k = 0 to 15 do
    let shift = 4 * (15 - k) in
    Bytes.unsafe_set b k hex_digits.[(hi lsr shift) land 15];
    Bytes.unsafe_set b (16 + k) hex_digits.[(lo lsr shift) land 15]
  done;
  Bytes.unsafe_to_string b

let of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> -1
  in
  let half off =
    let rec go k acc =
      if k = 16 then Some acc
      else
        let d = digit s.[off + k] in
        if d < 0 then None else go (k + 1) ((acc lsl 4) lor d)
    in
    (* 63-bit halves: the leading digit carries at most three bits. *)
    if digit s.[off] > 7 then None else go 0 0
  in
  if String.length s <> 32 then None
  else
    match (half 0, half 16) with
    | Some hi, Some lo -> Some (hi, lo)
    | _ -> None
