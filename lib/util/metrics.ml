(* Counters are plain ints in a table. Histograms keep exact streaming
   moments (count/sum/min/max) plus a bounded reservoir sample for
   percentiles, so a histogram's footprint is constant no matter how many
   observations a multi-day campaign records. The reservoir RNG is
   deterministic (seeded from the metric name), keeping campaigns
   replayable. Merges keep the moments exact too; only the reservoir is
   a sample of a sample once a merged histogram overflowed it. *)

let reservoir_size = 1024

type hist = {
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
  mutable offered : int;  (* values offered to the reservoir *)
  samples : float array;  (* reservoir; first [min offered size] slots live *)
  rng : Rng.t;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; hists = Hashtbl.create 32 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let incr ?(by = 1) t name =
  let r = counter_ref t name in
  r := !r + by

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort compare

let hist_for t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h =
      {
        count = 0;
        sum = 0.0;
        minv = infinity;
        maxv = neg_infinity;
        offered = 0;
        samples = Array.make reservoir_size 0.0;
        rng = Rng.split_named (Rng.create 0x6e7) name;
      }
    in
    Hashtbl.add t.hists name h;
    h

let offer h v =
  h.offered <- h.offered + 1;
  if h.offered <= reservoir_size then h.samples.(h.offered - 1) <- v
  else begin
    (* Vitter's algorithm R: slot i is replaced with probability
       size/offered, keeping the reservoir a uniform sample of everything
       offered. *)
    let j = Rng.int h.rng h.offered in
    if j < reservoir_size then h.samples.(j) <- v
  end

let add_moments h ~count ~sum ~minv ~maxv =
  h.count <- h.count + count;
  h.sum <- h.sum +. sum;
  if minv < h.minv then h.minv <- minv;
  if maxv > h.maxv then h.maxv <- maxv

let observe t name v =
  let h = hist_for t name in
  add_moments h ~count:1 ~sum:v ~minv:v ~maxv:v;
  offer h v

let time_wall t name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe t name (Unix.gettimeofday () -. t0)) f

type summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summary_of_hist h =
  let live = Array.to_list (Array.sub h.samples 0 (min h.offered reservoir_size)) in
  {
    count = h.count;
    sum = h.sum;
    mean = h.sum /. float_of_int h.count;
    min = h.minv;
    max = h.maxv;
    p50 = Stats.percentile live 50.0;
    p90 = Stats.percentile live 90.0;
    p99 = Stats.percentile live 99.0;
  }

let summary t name =
  match Hashtbl.find_opt t.hists name with
  | Some h when h.count > 0 -> Some (summary_of_hist h)
  | Some _ | None -> None

let summaries t =
  Hashtbl.fold
    (fun k (h : hist) acc -> if h.count > 0 then (k, summary_of_hist h) :: acc else acc)
    t.hists []
  |> List.sort compare

(* A source whose reservoir still holds every observation is replayed
   in order, which is exactly observing them directly (to the last bit
   of the sum). A larger one adds its exact moments and offers only its
   reservoir, so the quantiles alone are sampled. *)
let merge_into ~dst src =
  List.iter (fun (name, v) -> incr ~by:v dst name) (counters src);
  Hashtbl.iter
    (fun name (h : hist) ->
      let live = min h.offered reservoir_size in
      if h.count = live then
        for i = 0 to live - 1 do
          observe dst name h.samples.(i)
        done
      else begin
        let d = hist_for dst name in
        add_moments d ~count:h.count ~sum:h.sum ~minv:h.minv ~maxv:h.maxv;
        for i = 0 to live - 1 do
          offer d h.samples.(i)
        done
      end)
    src.hists

let render t =
  let buf = Buffer.create 256 in
  let cs = counters t in
  if cs <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" k v)) cs
  end;
  let hs = summaries t in
  if hs <> [] then begin
    Buffer.add_string buf "timers/histograms:\n";
    List.iter
      (fun (k, s) ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %-40s n=%d sum=%.4g mean=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g\n"
             k s.count s.sum s.mean s.min s.p50 s.p90 s.p99 s.max))
      hs
  end;
  if cs = [] && hs = [] then Buffer.add_string buf "(no metrics recorded)\n";
  Buffer.contents buf

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.hists
