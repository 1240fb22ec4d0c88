(* Batched, workspace-free MLP fast path: every activation, gradient and
   optimizer slot is preallocated once (in [create]/[plan]), and a
   steady-state train step runs entirely through in-place Bigarray
   kernels — ~0 minor words per step. This is the striped execution
   model of DESIGN.md §13 in its purest form: one matrix op per batch
   instead of per-sample loops, and optional sharding of a batch's rows
   into contiguous stripes evaluated on Sp_util.Pool domains with a
   deterministic stripe-order gradient reduction.

   The math (MSE over a 2-layer ReLU MLP, Adam) deliberately matches
   Oracle.Ml_reference.Mlp operation for operation: the batched matmul kernels
   accumulate in the same ascending-row order as the per-sample loops,
   so test_ml_diff can pin the two end to end. *)

module Pool = Sp_util.Pool

(* Buffers here are sized once in [create]/[plan] and [grad_stripe]
   checks row counts at entry, so the fused loops index unchecked. *)
module A1 = Bigarray.Array1

type grads = { gw1 : Tensor.t; gb1 : Tensor.t; gw2 : Tensor.t; gb2 : Tensor.t }

type t = {
  w1 : Tensor.t;
  b1 : Tensor.t;
  w2 : Tensor.t;
  b2 : Tensor.t;
  g : grads;  (* reduction target of the striped path *)
  m : float array array;
  v : float array array;
  beta1 : float;
  beta2 : float;
  eps : float;
  lr : float;
  mutable step_count : int;
}

type plan = {
  rows : int;
  z1 : Tensor.t;  (* rows x hidden, pre-activation *)
  h1 : Tensor.t;  (* rows x hidden *)
  y : Tensor.t;  (* rows x d_out *)
  dy : Tensor.t;
  dz1 : Tensor.t;  (* rows x hidden *)
  pg : grads;  (* this stripe's gradient accumulator *)
}

let alloc_grads ~d_in ~hidden ~d_out =
  {
    gw1 = Tensor.create d_in hidden;
    gb1 = Tensor.create 1 hidden;
    gw2 = Tensor.create hidden d_out;
    gb2 = Tensor.create 1 d_out;
  }

let create rng ~d_in ~hidden ~d_out ~lr =
  let w1 = Tensor.glorot rng d_in hidden in
  let b1 = Tensor.create 1 hidden in
  let w2 = Tensor.glorot rng hidden d_out in
  let b2 = Tensor.create 1 d_out in
  {
    w1; b1; w2; b2;
    g = alloc_grads ~d_in ~hidden ~d_out;
    m = Array.map (fun (p : Tensor.t) -> Array.make (Tensor.numel p) 0.0)
          [| w1; b1; w2; b2 |];
    v = Array.map (fun (p : Tensor.t) -> Array.make (Tensor.numel p) 0.0)
          [| w1; b1; w2; b2 |];
    beta1 = 0.9; beta2 = 0.999; eps = 1e-8; lr;
    step_count = 0;
  }

let params t = [ t.w1; t.b1; t.w2; t.b2 ]

let plan t ~rows =
  let hidden = t.w1.Tensor.cols and d_out = t.w2.Tensor.cols in
  {
    rows;
    z1 = Tensor.create rows hidden;
    h1 = Tensor.create rows hidden;
    y = Tensor.create rows d_out;
    dy = Tensor.create rows d_out;
    dz1 = Tensor.create rows hidden;
    pg = alloc_grads ~d_in:t.w1.Tensor.rows ~hidden ~d_out;
  }

(* Contiguous row stripes, sizes within one of each other; stripe [s]
   covers rows [rows*s/jobs, rows*(s+1)/jobs). *)
let stripe_plans t ~rows ~jobs =
  Array.init jobs (fun s ->
      plan t ~rows:((rows * (s + 1) / jobs) - (rows * s / jobs)))

let zero_grads g =
  Tensor.fill g.gw1 0.0;
  Tensor.fill g.gb1 0.0;
  Tensor.fill g.gw2 0.0;
  Tensor.fill g.gb2 0.0

let relu_into ~dst (src : Tensor.t) =
  (* Inlined (not map_into): a polymorphic [float -> float] call would
     box every element. *)
  let s = src.Tensor.data and d = dst.Tensor.data in
  for i = 0 to Tensor.numel src - 1 do
    A1.unsafe_set d i (Float.max 0.0 (A1.unsafe_get s i))
  done

(* Forward + backward for one stripe: overwrites [p]'s activations and
   gradient accumulator, returns the stripe's summed squared error.
   [denom] is the whole batch's n * d_out (stripes of one batch share the
   global loss normalization). *)
let grad_stripe t p ~x ~target ~denom =
  if x.Tensor.rows <> p.rows || target.Tensor.rows <> p.rows then
    invalid_arg "Dense.grad_stripe: row mismatch";
  let d_out = t.w2.Tensor.cols in
  (* forward *)
  Tensor.fill p.z1 0.0;
  Tensor.matmul_into ~dst:p.z1 x t.w1;
  Tensor.add_into ~dst:p.z1 t.b1;
  relu_into ~dst:p.h1 p.z1;
  Tensor.fill p.y 0.0;
  Tensor.matmul_into ~dst:p.y p.h1 t.w2;
  Tensor.add_into ~dst:p.y t.b2;
  (* loss + dy in one fused pass: dy = (2/denom) * (y - target) *)
  let sse = ref 0.0 in
  let scale = 2.0 /. denom in
  let yd = p.y.Tensor.data
  and td = target.Tensor.data
  and dyd = p.dy.Tensor.data in
  for i = 0 to (p.rows * d_out) - 1 do
    let diff = A1.unsafe_get yd i -. A1.unsafe_get td i in
    sse := !sse +. (diff *. diff);
    A1.unsafe_set dyd i (scale *. diff)
  done;
  (* backward *)
  zero_grads p.pg;
  Tensor.matmul_tn_into ~dst:p.pg.gw2 p.h1 p.dy;
  Tensor.colsum_into ~dst:p.pg.gb2 p.dy;
  (* dz1 = (dy W2^T) .* relu'(z1), fused over the dh1 buffer *)
  Tensor.matmul_nt_into ~dst:p.dz1 p.dy t.w2;
  let z1d = p.z1.Tensor.data and dz1d = p.dz1.Tensor.data in
  for i = 0 to Tensor.numel p.dz1 - 1 do
    A1.unsafe_set dz1d i (A1.unsafe_get dz1d i *. (if A1.unsafe_get z1d i > 0.0 then 1.0 else 0.0))
  done;
  Tensor.matmul_tn_into ~dst:p.pg.gw1 x p.dz1;
  Tensor.colsum_into ~dst:p.pg.gb1 p.dz1;
  !sse

let adam_one t pi (p : Tensor.t) (g : Tensor.t) ~bc1 ~bc2 =
  let m = t.m.(pi) and v = t.v.(pi) in
  let pd = p.Tensor.data and gd = g.Tensor.data in
  for i = 0 to Tensor.numel p - 1 do
    let gi = A1.unsafe_get gd i in
    m.(i) <- (t.beta1 *. m.(i)) +. ((1.0 -. t.beta1) *. gi);
    v.(i) <- (t.beta2 *. v.(i)) +. ((1.0 -. t.beta2) *. gi *. gi);
    let mhat = m.(i) /. bc1 and vhat = v.(i) /. bc2 in
    A1.unsafe_set pd i (A1.unsafe_get pd i -. (t.lr *. mhat /. (sqrt vhat +. t.eps)))
  done

let adam t g =
  t.step_count <- t.step_count + 1;
  let bc1 = 1.0 -. (t.beta1 ** float_of_int t.step_count) in
  let bc2 = 1.0 -. (t.beta2 ** float_of_int t.step_count) in
  adam_one t 0 t.w1 g.gw1 ~bc1 ~bc2;
  adam_one t 1 t.b1 g.gb1 ~bc1 ~bc2;
  adam_one t 2 t.w2 g.gw2 ~bc1 ~bc2;
  adam_one t 3 t.b2 g.gb2 ~bc1 ~bc2

let train_step t p ~x ~target =
  let denom = float_of_int (p.rows * t.w2.Tensor.cols) in
  let sse = grad_stripe t p ~x ~target ~denom in
  adam t p.pg;
  sse /. denom

let reduce_into dst src =
  Tensor.add_into ~dst:dst.gw1 src.gw1;
  Tensor.add_into ~dst:dst.gb1 src.gb1;
  Tensor.add_into ~dst:dst.gw2 src.gw2;
  Tensor.add_into ~dst:dst.gb2 src.gb2

let train_step_striped t pool plans ~x ~target =
  let jobs = Array.length plans in
  let n = x.Tensor.rows in
  let denom = float_of_int (n * t.w2.Tensor.cols) in
  let tasks =
    List.init jobs (fun s ->
        let start = n * s / jobs in
        let len = (n * (s + 1) / jobs) - start in
        fun () ->
          grad_stripe t plans.(s)
            ~x:(Tensor.rows_view x start len)
            ~target:(Tensor.rows_view target start len)
            ~denom)
  in
  let results = Pool.run_all pool tasks in
  (* Deterministic reduction: stripe order == submission order. *)
  zero_grads t.g;
  let sse =
    List.fold_left2
      (fun acc r (p : plan) ->
        match r with
        | Ok s ->
          reduce_into t.g p.pg;
          acc +. s
        | Error e -> raise e)
      0.0 results (Array.to_list plans)
  in
  adam t t.g;
  sse /. denom

let predict_into t p ~x =
  Tensor.fill p.z1 0.0;
  Tensor.matmul_into ~dst:p.z1 x t.w1;
  Tensor.add_into ~dst:p.z1 t.b1;
  relu_into ~dst:p.h1 p.z1;
  Tensor.fill p.y 0.0;
  Tensor.matmul_into ~dst:p.y p.h1 t.w2;
  Tensor.add_into ~dst:p.y t.b2;
  p.y
