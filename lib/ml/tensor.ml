(* Dense row-major float64 matrices on Bigarray.Array1 storage.

   Two properties are load-bearing:

   - Float semantics are frozen: every op performs the same IEEE
     operations in the same order as the original float-array core
     (kept as the test oracle Oracle.Ml_reference), including the
     [av <> 0.0] skip in matmul and ascending-index RNG draws in the
     initializers, so models,
     serialized weights and campaign results are byte-identical across
     the storage swap. test/test_ml_diff pins this.

   - Storage is off the OCaml heap and recyclable: the allocator draws
     from the domain's ambient {!Workspace} when one is active, so a
     steady-state train/inference step reuses warm buffers instead of
     churning the minor heap. Initializers ([glorot]/[randn]) always
     heap-allocate — parameters outlive any workspace generation. *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : buffer }

(* The hot kernels below validate shapes once at entry and then index
   with [unsafe_get]/[unsafe_set]: every index is derived from the
   validated [rows]/[cols], so the per-element bound check would only
   re-prove what the entry check established — and it is what separates
   these loops from the boxed-array core's throughput. *)
module A1 = Bigarray.Array1

let heap_buffer n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* Workspace buffers carry stale contents; every caller initializes. *)
let alloc rows cols =
  let n = rows * cols in
  match Workspace.ambient () with
  | Some ws -> { rows; cols; data = Workspace.acquire ws n }
  | None -> { rows; cols; data = heap_buffer n }

let create rows cols =
  let t = alloc rows cols in
  Bigarray.Array1.fill t.data 0.0;
  t

let make rows cols v =
  let t = alloc rows cols in
  Bigarray.Array1.fill t.data v;
  t

let of_array ~rows ~cols data =
  if Array.length data <> rows * cols then
    invalid_arg "Tensor.of_array: size mismatch";
  let t = alloc rows cols in
  for i = 0 to (rows * cols) - 1 do
    t.data.{i} <- data.(i)
  done;
  t

let of_row data = of_array ~rows:1 ~cols:(Array.length data) data

let copy t =
  let r = alloc t.rows t.cols in
  Bigarray.Array1.blit t.data r.data;
  r

let copy_into ~dst src =
  if dst.rows <> src.rows || dst.cols <> src.cols then
    invalid_arg "Tensor.copy_into: shape mismatch";
  Bigarray.Array1.blit src.data dst.data

let get t i j = t.data.{(i * t.cols) + j}

let set t i j v = t.data.{(i * t.cols) + j} <- v

let dims t = (t.rows, t.cols)

let numel t = t.rows * t.cols

let fill t v = Bigarray.Array1.fill t.data v

let to_array t =
  Array.init (numel t) (fun i -> t.data.{i})

let glorot rng rows cols =
  let bound = sqrt (6.0 /. float_of_int (rows + cols)) in
  let t = { rows; cols; data = heap_buffer (rows * cols) } in
  for i = 0 to (rows * cols) - 1 do
    t.data.{i} <- Sp_util.Rng.float rng (2.0 *. bound) -. bound
  done;
  t

let randn rng std rows cols =
  let t = { rows; cols; data = heap_buffer (rows * cols) } in
  for i = 0 to (rows * cols) - 1 do
    t.data.{i} <- std *. Sp_util.Rng.gaussian rng
  done;
  t

let same_shape a b = a.rows = b.rows && a.cols = b.cols

let add_into ~dst src =
  if same_shape dst src then
    for i = 0 to numel dst - 1 do
      A1.unsafe_set dst.data i (A1.unsafe_get dst.data i +. A1.unsafe_get src.data i)
    done
  else if src.rows = 1 && src.cols = dst.cols then
    for i = 0 to dst.rows - 1 do
      let base = i * dst.cols in
      for j = 0 to dst.cols - 1 do
        A1.unsafe_set dst.data (base + j) (A1.unsafe_get dst.data (base + j) +. A1.unsafe_get src.data j)
      done
    done
  else invalid_arg "Tensor.add_into: shape mismatch"

let add a b =
  let r = copy a in
  add_into ~dst:r b;
  r

let sub a b =
  if not (same_shape a b) then invalid_arg "Tensor.sub: shape mismatch";
  let r = alloc a.rows a.cols in
  for i = 0 to numel a - 1 do
    A1.unsafe_set r.data i (A1.unsafe_get a.data i -. A1.unsafe_get b.data i)
  done;
  r

let sub_into ~dst a b =
  if not (same_shape a b && same_shape dst a) then
    invalid_arg "Tensor.sub_into: shape mismatch";
  for i = 0 to numel a - 1 do
    A1.unsafe_set dst.data i (A1.unsafe_get a.data i -. A1.unsafe_get b.data i)
  done

let mul a b =
  if not (same_shape a b) then invalid_arg "Tensor.mul: shape mismatch";
  let r = alloc a.rows a.cols in
  for i = 0 to numel a - 1 do
    A1.unsafe_set r.data i (A1.unsafe_get a.data i *. A1.unsafe_get b.data i)
  done;
  r

let mul_into ~dst a b =
  if not (same_shape a b && same_shape dst a) then
    invalid_arg "Tensor.mul_into: shape mismatch";
  for i = 0 to numel a - 1 do
    A1.unsafe_set dst.data i (A1.unsafe_get a.data i *. A1.unsafe_get b.data i)
  done

let scale s t =
  let r = alloc t.rows t.cols in
  for i = 0 to numel t - 1 do
    A1.unsafe_set r.data i (s *. A1.unsafe_get t.data i)
  done;
  r

let scale_into ~dst s src =
  if not (same_shape dst src) then
    invalid_arg "Tensor.scale_into: shape mismatch";
  for i = 0 to numel src - 1 do
    A1.unsafe_set dst.data i (s *. A1.unsafe_get src.data i)
  done

let axpy ~alpha x y =
  if not (same_shape x y) then invalid_arg "Tensor.axpy: shape mismatch";
  for i = 0 to numel x - 1 do
    A1.unsafe_set y.data i (A1.unsafe_get y.data i +. (alpha *. A1.unsafe_get x.data i))
  done

let colsum_into ~dst src =
  if dst.rows <> 1 || dst.cols <> src.cols then
    invalid_arg "Tensor.colsum_into: shape mismatch";
  for i = 0 to src.rows - 1 do
    let base = i * src.cols in
    for j = 0 to src.cols - 1 do
      A1.unsafe_set dst.data j (A1.unsafe_get dst.data j +. A1.unsafe_get src.data (base + j))
    done
  done

let map f t =
  let r = alloc t.rows t.cols in
  for i = 0 to numel t - 1 do
    A1.unsafe_set r.data i (f (A1.unsafe_get t.data i))
  done;
  r

let map_into ~dst f src =
  if not (same_shape dst src) then
    invalid_arg "Tensor.map_into: shape mismatch";
  for i = 0 to numel src - 1 do
    A1.unsafe_set dst.data i (f (A1.unsafe_get src.data i))
  done

let matmul_into ~dst a b =
  if a.cols <> b.rows || dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Tensor.matmul_into: shape mismatch";
  let n = a.rows and k = a.cols and m = b.cols in
  let ad = a.data and bd = b.data and dd = dst.data in
  for i = 0 to n - 1 do
    let abase = i * k and dbase = i * m in
    for l = 0 to k - 1 do
      let av = A1.unsafe_get ad (abase + l) in
      if av <> 0.0 then begin
        let bbase = l * m in
        for j = 0 to m - 1 do
          A1.unsafe_set dd (dbase + j) (A1.unsafe_get dd (dbase + j) +. (av *. A1.unsafe_get bd (bbase + j)))
        done
      end
    done
  done

let matmul a b =
  let dst = create a.rows b.cols in
  matmul_into ~dst a b;
  dst

let matmul_tn_into ~dst a b =
  (* dst += (a^T b): a is k x n, b is k x m, dst n x m. The l-outer loop
     walks both inputs row-major (cache-friendly) and, like matmul,
     accumulates contributions in ascending-row order — the same order a
     per-sample gradient accumulation would use. *)
  if a.rows <> b.rows || dst.rows <> a.cols || dst.cols <> b.cols then
    invalid_arg "Tensor.matmul_tn_into: shape mismatch";
  let k = a.rows and n = a.cols and m = b.cols in
  let ad = a.data and bd = b.data and dd = dst.data in
  for l = 0 to k - 1 do
    let abase = l * n and bbase = l * m in
    for i = 0 to n - 1 do
      let av = A1.unsafe_get ad (abase + i) in
      if av <> 0.0 then begin
        let dbase = i * m in
        for j = 0 to m - 1 do
          A1.unsafe_set dd (dbase + j) (A1.unsafe_get dd (dbase + j) +. (av *. A1.unsafe_get bd (bbase + j)))
        done
      end
    done
  done

let matmul_tn a b =
  if a.rows <> b.rows then invalid_arg "Tensor.matmul_tn: shape mismatch";
  let dst = create a.cols b.cols in
  matmul_tn_into ~dst a b;
  dst

let matmul_nt_into ~dst a b =
  (* dst <- (a b^T): a is n x k, b is m x k, dst n x m (overwrites). *)
  if a.cols <> b.cols || dst.rows <> a.rows || dst.cols <> b.rows then
    invalid_arg "Tensor.matmul_nt_into: shape mismatch";
  let n = a.rows and k = a.cols and m = b.rows in
  let ad = a.data and bd = b.data and dd = dst.data in
  (* Hoisted accumulator: a [ref] inside the loop nest would allocate a
     boxed cell per output element. *)
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let abase = i * k in
    for j = 0 to m - 1 do
      let bbase = j * k in
      acc := 0.0;
      for l = 0 to k - 1 do
        acc := !acc +. (A1.unsafe_get ad (abase + l) *. A1.unsafe_get bd (bbase + l))
      done;
      A1.unsafe_set dd ((i * m) + j) !acc
    done
  done

let matmul_nt a b =
  if a.cols <> b.cols then invalid_arg "Tensor.matmul_nt: shape mismatch";
  let dst = alloc a.rows b.rows in
  matmul_nt_into ~dst a b;
  dst

let transpose t =
  let r = alloc t.cols t.rows in
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      r.data.{(j * t.rows) + i} <- t.data.{(i * t.cols) + j}
    done
  done;
  r

let row t i = { rows = 1; cols = t.cols; data = Bigarray.Array1.sub t.data (i * t.cols) t.cols }

let rows_view t start nrows =
  if start < 0 || nrows < 0 || start + nrows > t.rows then
    invalid_arg "Tensor.rows_view: out of range";
  { rows = nrows;
    cols = t.cols;
    data = Bigarray.Array1.sub t.data (start * t.cols) (nrows * t.cols) }

let sum t =
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. t.data.{i}
  done;
  !acc

let frobenius t =
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. (t.data.{i} *. t.data.{i})
  done;
  sqrt !acc

let equal a b =
  same_shape a b
  &&
  let rec go i = i >= numel a || (a.data.{i} = b.data.{i} && go (i + 1)) in
  go 0
