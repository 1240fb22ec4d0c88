type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  (* SplitMix64 finalizer (Stafford variant 13). *)
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let state t = t.state

let set_state t s = t.state <- s

let of_state s = { state = s }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let split_named t label =
  (* FNV-1a over the label, mixed with the *current* state (not advanced), so
     that named streams are stable under unrelated draws from siblings. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    label;
  { state = mix64 (Int64.logxor t.state !h) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  (* Rejection sampling: the masked draw is uniform over [0, max_int]
     (2^62 values), and plain [v mod bound] is biased towards small
     residues whenever [bound] does not divide 2^62. Discarding the
     topmost partial cycle — the [2^62 mod bound] values above [limit] —
     makes every residue exactly equally likely; the rejection
     probability is below [bound / 2^62] per draw. *)
  let rem = ((max_int mod bound) + 1) mod bound in
  let limit = max_int - rem in
  let rec draw () =
    let v = Int64.to_int (Int64.logand (bits64 t) mask) in
    if v > limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let coin t p = float t 1.0 < p

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t arr k =
  let n = Array.length arr in
  let k = min k n in
  if k = 0 then []
  else begin
    let idx = Array.init n Fun.id in
    (* Partial Fisher–Yates: only the first [k] positions need settling. *)
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- tmp
    done;
    List.init k (fun i -> arr.(idx.(i)))
  end

let weighted t choices =
  (* Non-finite weights count as zero. [Float.max nan 0.0] is NaN, and a
     NaN total slips past a [total <= 0.0] guard (NaN compares false), so
     a single NaN weight used to poison the cumulative scan and return an
     arbitrary element; an infinite weight has no meaningful proportional
     draw either. *)
  let clamp w = if Float.is_finite w && w > 0.0 then w else 0.0 in
  let total = List.fold_left (fun acc (_, w) -> acc +. clamp w) 0.0 choices in
  if not (total > 0.0) then invalid_arg "Rng.weighted: no positive weight";
  let x = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.weighted: empty list"
    | [ (v, _) ] -> v
    | (v, w) :: rest ->
      let acc = acc +. clamp w in
      if x < acc then v else pick acc rest
  in
  pick 0.0 choices

let gaussian t =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-12 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
