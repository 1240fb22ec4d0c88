(* Gradients are shaped like their parameters by construction (Ad.accum
   checks on first touch), so the update loops index unchecked. *)
module A1 = Bigarray.Array1

type algo =
  | Adam of {
      beta1 : float;
      beta2 : float;
      eps : float;
      weight_decay : float;
      m : float array array;
      v : float array array;
      mutable step_count : int;
    }
  | Sgd of { momentum : float; vel : float array array }

type t = { params : Ad.t array; mutable lr : float; algo : algo }

let slot_arrays params =
  Array.map (fun p -> Array.make (Tensor.numel (Ad.value p)) 0.0) params

let adam ?(lr = 1e-3) ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8)
    ?(weight_decay = 0.0) params =
  let params = Array.of_list params in
  {
    params;
    lr;
    algo =
      Adam
        { beta1; beta2; eps; weight_decay; m = slot_arrays params;
          v = slot_arrays params; step_count = 0 };
  }

let sgd ?(lr = 1e-2) ?(momentum = 0.0) params =
  let params = Array.of_list params in
  { params; lr; algo = Sgd { momentum; vel = slot_arrays params } }

let step t =
  match t.algo with
  | Adam a ->
    a.step_count <- a.step_count + 1;
    let bc1 = 1.0 -. (a.beta1 ** float_of_int a.step_count) in
    let bc2 = 1.0 -. (a.beta2 ** float_of_int a.step_count) in
    Array.iteri
      (fun pi p ->
        match Ad.grad_opt p with
        | None -> ()
        | Some g ->
          let data = (Ad.value p).Tensor.data and gd = g.Tensor.data in
          let m = a.m.(pi) and v = a.v.(pi) in
          for i = 0 to Bigarray.Array1.dim data - 1 do
            let gi = A1.unsafe_get gd i +. (a.weight_decay *. A1.unsafe_get data i) in
            m.(i) <- (a.beta1 *. m.(i)) +. ((1.0 -. a.beta1) *. gi);
            v.(i) <- (a.beta2 *. v.(i)) +. ((1.0 -. a.beta2) *. gi *. gi);
            let mhat = m.(i) /. bc1 and vhat = v.(i) /. bc2 in
            A1.unsafe_set data i (A1.unsafe_get data i -. (t.lr *. mhat /. (sqrt vhat +. a.eps)))
          done)
      t.params
  | Sgd s ->
    Array.iteri
      (fun pi p ->
        match Ad.grad_opt p with
        | None -> ()
        | Some g ->
          let data = (Ad.value p).Tensor.data and gd = g.Tensor.data in
          let vel = s.vel.(pi) in
          for i = 0 to Bigarray.Array1.dim data - 1 do
            vel.(i) <- (s.momentum *. vel.(i)) +. A1.unsafe_get gd i;
            A1.unsafe_set data i (A1.unsafe_get data i -. (t.lr *. vel.(i)))
          done)
      t.params

let zero_grad t = Array.iter Ad.zero_grad t.params

let lr t = t.lr
