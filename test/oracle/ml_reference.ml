(* The pre-Bigarray tensor core, kept verbatim as a differential oracle
   (mirroring Oracle.Kernel_reference): boxed records over [float array],
   every operation allocating its result. test/test_ml_diff pins the
   Bigarray core against this implementation, and bench/exp_ml uses the
   [Mlp] trainer below as the pre-optimization baseline. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let make rows cols v = { rows; cols; data = Array.make (rows * cols) v }

let of_array ~rows ~cols data =
  if Array.length data <> rows * cols then
    invalid_arg "Ml_reference.of_array: size mismatch";
  { rows; cols; data }

let copy t = { t with data = Array.copy t.data }

let get t i j = t.data.((i * t.cols) + j)

let set t i j v = t.data.((i * t.cols) + j) <- v

let dims t = (t.rows, t.cols)

let numel t = t.rows * t.cols

let fill t v = Array.fill t.data 0 (Array.length t.data) v

let glorot rng rows cols =
  let bound = sqrt (6.0 /. float_of_int (rows + cols)) in
  {
    rows;
    cols;
    data =
      Array.init (rows * cols) (fun _ ->
          Sp_util.Rng.float rng (2.0 *. bound) -. bound);
  }

let randn rng std rows cols =
  { rows; cols;
    data = Array.init (rows * cols) (fun _ -> std *. Sp_util.Rng.gaussian rng) }

let same_shape a b = a.rows = b.rows && a.cols = b.cols

let add_into ~dst src =
  if same_shape dst src then
    for i = 0 to numel dst - 1 do
      dst.data.(i) <- dst.data.(i) +. src.data.(i)
    done
  else if src.rows = 1 && src.cols = dst.cols then
    for i = 0 to dst.rows - 1 do
      let base = i * dst.cols in
      for j = 0 to dst.cols - 1 do
        dst.data.(base + j) <- dst.data.(base + j) +. src.data.(j)
      done
    done
  else invalid_arg "Ml_reference.add_into: shape mismatch"

let add a b =
  let r = copy a in
  add_into ~dst:r b;
  r

let sub a b =
  if not (same_shape a b) then invalid_arg "Ml_reference.sub: shape mismatch";
  { a with data = Array.init (numel a) (fun i -> a.data.(i) -. b.data.(i)) }

let mul a b =
  if not (same_shape a b) then invalid_arg "Ml_reference.mul: shape mismatch";
  { a with data = Array.init (numel a) (fun i -> a.data.(i) *. b.data.(i)) }

let scale s t = { t with data = Array.map (fun x -> s *. x) t.data }

let map f t = { t with data = Array.map f t.data }

let matmul_into ~dst a b =
  if a.cols <> b.rows || dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Ml_reference.matmul_into: shape mismatch";
  let n = a.rows and k = a.cols and m = b.cols in
  for i = 0 to n - 1 do
    let abase = i * k and dbase = i * m in
    for l = 0 to k - 1 do
      let av = a.data.(abase + l) in
      if av <> 0.0 then begin
        let bbase = l * m in
        for j = 0 to m - 1 do
          dst.data.(dbase + j) <- dst.data.(dbase + j) +. (av *. b.data.(bbase + j))
        done
      end
    done
  done

let matmul a b =
  let dst = create a.rows b.cols in
  matmul_into ~dst a b;
  dst

let matmul_tn a b =
  (* (a^T b): a is k x n, b is k x m, result n x m. *)
  if a.rows <> b.rows then invalid_arg "Ml_reference.matmul_tn: shape mismatch";
  let k = a.rows and n = a.cols and m = b.cols in
  let dst = create n m in
  for l = 0 to k - 1 do
    let abase = l * n and bbase = l * m in
    for i = 0 to n - 1 do
      let av = a.data.(abase + i) in
      if av <> 0.0 then begin
        let dbase = i * m in
        for j = 0 to m - 1 do
          dst.data.(dbase + j) <- dst.data.(dbase + j) +. (av *. b.data.(bbase + j))
        done
      end
    done
  done;
  dst

let matmul_nt a b =
  (* (a b^T): a is n x k, b is m x k, result n x m. *)
  if a.cols <> b.cols then invalid_arg "Ml_reference.matmul_nt: shape mismatch";
  let n = a.rows and k = a.cols and m = b.rows in
  let dst = create n m in
  for i = 0 to n - 1 do
    let abase = i * k in
    for j = 0 to m - 1 do
      let bbase = j * k in
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (a.data.(abase + l) *. b.data.(bbase + l))
      done;
      dst.data.((i * m) + j) <- !acc
    done
  done;
  dst

let transpose t =
  let r = create t.cols t.rows in
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      r.data.((j * t.rows) + i) <- t.data.((i * t.cols) + j)
    done
  done;
  r

let row t i = Array.sub t.data (i * t.cols) t.cols

let sum t = Array.fold_left ( +. ) 0.0 t.data

let frobenius t = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 t.data)

let equal a b = same_shape a b && a.data = b.data

type tensor = t

(* ------------------------------------------------------------------ *)
(* Per-sample MLP trainer on the boxed core — the pre-PR execution
   model: one sample at a time, every op allocating, gradients
   accumulated with copy-then-add (exactly how the Ad tape did it). *)
(* ------------------------------------------------------------------ *)

module Mlp = struct
  let zeros = create

  type nonrec t = {
    w1 : t;
    b1 : t;
    w2 : t;
    b2 : t;
    (* Adam slots, one per parameter, flattened row-major. *)
    m : float array array;
    v : float array array;
    beta1 : float;
    beta2 : float;
    eps : float;
    lr : float;
    mutable step_count : int;
  }

  let create rng ~d_in ~hidden ~d_out ~lr =
    let w1 = glorot rng d_in hidden in
    let b1 = create 1 hidden in
    let w2 = glorot rng hidden d_out in
    let b2 = create 1 d_out in
    {
      w1; b1; w2; b2;
      m = Array.map (fun p -> Array.make (numel p) 0.0) [| w1; b1; w2; b2 |];
      v = Array.map (fun p -> Array.make (numel p) 0.0) [| w1; b1; w2; b2 |];
      beta1 = 0.9; beta2 = 0.999; eps = 1e-8; lr;
      step_count = 0;
    }

  let params t = [ t.w1; t.b1; t.w2; t.b2 ]

  let relu x = Float.max 0.0 x

  let relu' x = if x > 0.0 then 1.0 else 0.0

  let adam t grads =
    t.step_count <- t.step_count + 1;
    let bc1 = 1.0 -. (t.beta1 ** float_of_int t.step_count) in
    let bc2 = 1.0 -. (t.beta2 ** float_of_int t.step_count) in
    List.iteri
      (fun pi (p, g) ->
        let m = t.m.(pi) and v = t.v.(pi) in
        for i = 0 to Array.length p.data - 1 do
          let gi = g.data.(i) in
          m.(i) <- (t.beta1 *. m.(i)) +. ((1.0 -. t.beta1) *. gi);
          v.(i) <- (t.beta2 *. v.(i)) +. ((1.0 -. t.beta2) *. gi *. gi);
          let mhat = m.(i) /. bc1 and vhat = v.(i) /. bc2 in
          p.data.(i) <- p.data.(i) -. (t.lr *. mhat /. (sqrt vhat +. t.eps))
        done)
      (List.combine (params t) grads)

  (* One MSE gradient step over a batch, sample by sample. [x] is
     n x d_in, [target] n x d_out; returns the mean squared error. *)
  let train_step t ~x ~target =
    let n = x.rows and d_out = t.w2.cols in
    let denom = float_of_int (n * d_out) in
    let gw1 = zeros t.w1.rows t.w1.cols and gb1 = zeros 1 t.b1.cols in
    let gw2 = zeros t.w2.rows t.w2.cols and gb2 = zeros 1 t.b2.cols in
    let sse = ref 0.0 in
    for s = 0 to n - 1 do
      let xi = of_array ~rows:1 ~cols:x.cols (row x s) in
      let ti = of_array ~rows:1 ~cols:target.cols (row target s) in
      let z1 = add (matmul xi t.w1) t.b1 in
      let h1 = map relu z1 in
      let y = add (matmul h1 t.w2) t.b2 in
      let diff = sub y ti in
      for j = 0 to d_out - 1 do
        sse := !sse +. (diff.data.(j) *. diff.data.(j))
      done;
      let dy = scale (2.0 /. denom) diff in
      add_into ~dst:gw2 (matmul_tn h1 dy);
      add_into ~dst:gb2 dy;
      let dh1 = matmul_nt dy t.w2 in
      let dz1 = mul dh1 (map relu' z1) in
      add_into ~dst:gw1 (matmul_tn xi dz1);
      add_into ~dst:gb1 dz1
    done;
    adam t [ gw1; gb1; gw2; gb2 ];
    !sse /. denom

  let predict t ~x =
    let z1 = add (matmul x t.w1) t.b1 in
    add (matmul (map relu z1) t.w2) t.b2
end
