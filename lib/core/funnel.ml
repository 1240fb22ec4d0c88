module Prog = Sp_syzlang.Prog
module Fqueue = Sp_util.Fqueue
module Faults = Sp_util.Faults
module Tracer = Sp_obs.Tracer
module Json = Sp_obs.Json

type degrade = {
  dg_timeout : float;
  dg_retries : int;
  dg_breaker : Breaker.config;
}

let default_degrade =
  { dg_timeout = 30.0; dg_retries = 2; dg_breaker = Breaker.default_config }

(* A request the lane owes the service another attempt for, waiting out
   its backoff. [rt_due] is an absolute per-tenant flush ordinal: dues
   are always created relative to the current ordinal, so the base never
   matters — only the distance. *)
type retry = {
  rt_prog : Prog.t;
  rt_targets : int list;
  rt_attempt : int;  (* sends already performed *)
  rt_due : int;  (* flush ordinal at/after which to resend *)
}

type lane = {
  ln_breaker : Breaker.t;
  (* Breaker state name as of the last transition event, so flushes can
     emit an event exactly when the state changes. *)
  mutable ln_last_state : string;
  (* Per-lane send ordinal — the fault index for the inference.request@N
     / inference.timeout@N sites. Process-local bookkeeping, not
     persisted: a resumed run restarts its fault ordinals. *)
  mutable ln_reqs : int;
  (* (fingerprint, sends) for in-flight requests on their 2nd+ attempt;
     first attempts are implicit. *)
  mutable ln_attempts : (Prog.fingerprint * int) list;
  mutable ln_retries : retry list;
  mutable ln_shed : int;  (* fresh requests refused while not Closed *)
  mutable ln_errors : int;  (* timeouts + injected request failures *)
  mutable ln_degraded : bool;
      (* breaker not Closed as of the last flush; read (without a lock)
         by shard domains between barriers — safe because it is only
         written at barriers, when epochs are quiesced *)
}

type lane_stats = {
  ls_state : Breaker.state;
  ls_trips : int;
  ls_errors : int;
  ls_shed : int;
  ls_retries_pending : int;
}

(* Tenant [i]'s shard slots are the contiguous range
   [offsets.(i) .. offsets.(i) + counts.(i) - 1] of the flattened
   arrays. *)
type t = {
  service : Inference.t;
  tracer : Tracer.t;
  max_outbox : int;
  offsets : int array;
  counts : int array;
  outboxes : (Prog.t * int list) Fqueue.t array;
  inboxes : (Prog.fingerprint * Prog.path list) Fqueue.t array;
  (* Written by shard domains during an epoch, read at the barrier; the
     epochs-are-quiesced contract (flush only at barriers) is the
     synchronization, not a lock. Counters are per-shard slots for the
     same reason — two domains never write the same word. *)
  deferred : int array;
  dropped : int array;
  faults : Faults.t;
  degrade : degrade option;
  lanes : lane array;  (* one per tenant when [degrade] is armed; [||] else *)
  flush_seq : int array;  (* per-tenant flush ordinal *)
  events : Sp_obs.Events.t;
}

let fresh_lane dg =
  {
    ln_breaker = Breaker.create ~config:dg.dg_breaker ();
    ln_last_state = "closed";
    ln_reqs = 0;
    ln_attempts = [];
    ln_retries = [];
    ln_shed = 0;
    ln_errors = 0;
    ln_degraded = false;
  }

let create_multi ?(max_outbox = 64) ?(tracer = Tracer.null) ?degrade
    ?(faults = Faults.disabled) ?(events = Sp_obs.Events.null) ~tenant_shards
    service =
  let tenants = Array.length tenant_shards in
  if tenants < 1 then
    invalid_arg "Funnel.create_multi: at least one tenant required";
  Array.iter
    (fun s ->
      if s < 1 then invalid_arg "Funnel.create_multi: shards must be >= 1")
    tenant_shards;
  let offsets = Array.make tenants 0 in
  for i = 1 to tenants - 1 do
    offsets.(i) <- offsets.(i - 1) + tenant_shards.(i - 1)
  done;
  let total = offsets.(tenants - 1) + tenant_shards.(tenants - 1) in
  {
    service;
    tracer;
    max_outbox;
    offsets;
    counts = Array.copy tenant_shards;
    outboxes = Array.init total (fun _ -> Fqueue.create ());
    inboxes = Array.init total (fun _ -> Fqueue.create ());
    deferred = Array.make total 0;
    dropped = Array.make total 0;
    faults;
    degrade;
    lanes =
      (match degrade with
      | None -> [||]
      | Some dg -> Array.init tenants (fun _ -> fresh_lane dg));
    flush_seq = Array.make tenants 0;
    events;
  }

let check_tenant name t tenant =
  if tenant < 0 || tenant >= Array.length t.counts then
    invalid_arg (name ^ ": tenant out of range")

let slot name t ~tenant ~shard =
  check_tenant name t tenant;
  if shard < 0 || shard >= t.counts.(tenant) then
    invalid_arg (name ^ ": shard out of range");
  t.offsets.(tenant) + shard

let lane_degraded t ~tenant =
  check_tenant "Funnel.lane_degraded" t tenant;
  Array.length t.lanes > 0 && t.lanes.(tenant).ln_degraded

let endpoint_for t ~tenant ~shard =
  let s = slot "Funnel.endpoint_for" t ~tenant ~shard in
  let outbox = t.outboxes.(s) and inbox = t.inboxes.(s) in
  {
    Inference.ep_request =
      (fun ~now:_ prog ~targets ->
        (* A tripped breaker refuses at the edge, so nothing piles up in
           the outbox while the lane sheds anyway; counted as dropped —
           the slot's refusal counter — like an overflowing outbox. *)
        if
          (Array.length t.lanes > 0 && t.lanes.(tenant).ln_degraded)
          || Fqueue.length outbox >= t.max_outbox
        then begin
          t.dropped.(s) <- t.dropped.(s) + 1;
          false
        end
        else begin
          t.deferred.(s) <- t.deferred.(s) + 1;
          Fqueue.push outbox (prog, targets);
          true
        end);
    ep_poll = (fun ~now:_ -> Fqueue.drain inbox);
  }

(* Attempt bookkeeping, keyed by the request's fingerprint. *)
let attempts_take ln fp =
  let rec go acc = function
    | [] -> (1, ln.ln_attempts)
    | (fp', n) :: rest when fp' = fp -> (n, List.rev_append acc rest)
    | e :: rest -> go (e :: acc) rest
  in
  let n, remaining = go [] ln.ln_attempts in
  ln.ln_attempts <- remaining;
  n

let attempts_put ln fp n =
  ignore (attempts_take ln fp);
  ln.ln_attempts <- ln.ln_attempts @ [ (fp, n) ]

(* Emit a [breaker.transition] event when the lane's state changed since
   the last one — recovery back to closed is Info, leaving closed is
   Warn. *)
let note_breaker_state t ~tenant ln ~now =
  let name = Breaker.state_name (Breaker.state ln.ln_breaker ~now) in
  if not (String.equal name ln.ln_last_state) then begin
    let level =
      if String.equal name "closed" then Sp_obs.Events.Info
      else Sp_obs.Events.Warn
    in
    Sp_obs.Events.log t.events ~level ~kind:"breaker.transition"
      [ ("tenant", Json.Num (float_of_int tenant));
        ("from", Json.Str ln.ln_last_state);
        ("to", Json.Str name);
        ("trips", Json.Num (float_of_int (Breaker.trips ln.ln_breaker)));
        ("now", Json.Num now)
      ];
    ln.ln_last_state <- name
  end

(* The degraded flush: reclaim stalled requests, drive the breaker, send
   (or shed) by its state, then deliver. Send-before-poll order matches
   the plain path, so an armed lane that never sees a fault produces the
   same prediction stream as an unarmed one. *)
let flush_degraded t ~tenant ~now dg fresh =
  let ln = t.lanes.(tenant) in
  let ord = t.flush_seq.(tenant) in
  let armed = Faults.enabled t.faults in
  let backoff attempt = ord + (1 lsl (attempt - 1)) in
  let overdue =
    Inference.cancel_overdue t.service ~tag:tenant ~now
      ~older_than:dg.dg_timeout ()
  in
  List.iter
    (fun (prog, targets) ->
      ln.ln_errors <- ln.ln_errors + 1;
      Breaker.record_error ln.ln_breaker ~now;
      let attempt = attempts_take ln (Prog.fingerprint prog) in
      if attempt <= dg.dg_retries && targets <> [] then
        ln.ln_retries <-
          ln.ln_retries
          @ [ { rt_prog = prog; rt_targets = targets; rt_attempt = attempt;
                rt_due = backoff attempt } ])
    overdue;
  if overdue <> [] then
    Sp_obs.Events.log t.events ~level:Sp_obs.Events.Warn ~kind:"funnel.reclaim"
      [ ("tenant", Json.Num (float_of_int tenant));
        ("count", Json.Num (float_of_int (List.length overdue)));
        ("now", Json.Num now)
      ];
  note_breaker_state t ~tenant ln ~now;
  let bstate = Breaker.state ln.ln_breaker ~now in
  Tracer.counter t.tracer "breaker.state"
    (float_of_int (Breaker.state_code bstate));
  let send prog targets attempt =
    let k = ln.ln_reqs + 1 in
    ln.ln_reqs <- k;
    if
      armed
      && Faults.should_fail t.faults
           (Printf.sprintf "inference.request@%d" tenant)
           ~k
    then begin
      (* The request itself failed: an error the caller sees immediately,
         unlike a timeout. Same retry/backoff path. *)
      ln.ln_errors <- ln.ln_errors + 1;
      Breaker.record_error ln.ln_breaker ~now;
      if attempt <= dg.dg_retries then
        ln.ln_retries <-
          ln.ln_retries
          @ [ { rt_prog = prog; rt_targets = targets; rt_attempt = attempt;
                rt_due = backoff attempt } ]
    end
    else begin
      let extra =
        if
          armed
          && Faults.should_fail t.faults
               (Printf.sprintf "inference.timeout@%d" tenant)
               ~k
        then dg.dg_timeout +. 1e6 (* guaranteed past the deadline *)
        else 0.0
      in
      let ok =
        Inference.request t.service ~tag:tenant ~extra_latency:extra
          ~record_targets:armed ~now prog ~targets
      in
      if ok && attempt > 1 then attempts_put ln (Prog.fingerprint prog) attempt
    end
  in
  let due, later = List.partition (fun r -> r.rt_due <= ord) ln.ln_retries in
  ln.ln_retries <- later;
  let postpone rs = List.map (fun r -> { r with rt_due = ord + 1 }) rs in
  (match bstate with
  | Breaker.Closed ->
      List.iter (fun r -> send r.rt_prog r.rt_targets (r.rt_attempt + 1)) due;
      List.iter (fun (p, tg) -> send p tg 1) fresh
  | Breaker.Open ->
      ln.ln_shed <- ln.ln_shed + List.length fresh;
      ln.ln_retries <- ln.ln_retries @ postpone due
  | Breaker.Half_open -> (
      match (due, fresh) with
      | r :: rest, _ ->
          Breaker.note_probe ln.ln_breaker;
          send r.rt_prog r.rt_targets (r.rt_attempt + 1);
          ln.ln_retries <- ln.ln_retries @ postpone rest;
          ln.ln_shed <- ln.ln_shed + List.length fresh
      | [], (p, tg) :: rest ->
          Breaker.note_probe ln.ln_breaker;
          send p tg 1;
          ln.ln_shed <- ln.ln_shed + List.length rest
      | [], [] -> ()));
  let completed =
    List.map
      (fun (prog, paths, latency) -> (Prog.fingerprint prog, paths, latency))
      (Inference.poll_detailed t.service ~tag:tenant ~now ())
  in
  List.iter
    (fun (fp, _paths, latency) ->
      Breaker.record_success ln.ln_breaker ~now ~latency;
      ignore (attempts_take ln fp))
    completed;
  ln.ln_degraded <- Breaker.state ln.ln_breaker ~now <> Breaker.Closed;
  note_breaker_state t ~tenant ln ~now;
  List.map (fun (fp, paths, _) -> (fp, paths)) completed

let flush_tenant t ~tenant ~now =
  check_tenant "Funnel.flush_tenant" t tenant;
  (* Runs at the tenant's barrier on the scheduling domain — the
     tracer's only writer. *)
  Tracer.span t.tracer "funnel.flush" (fun () ->
      t.flush_seq.(tenant) <- t.flush_seq.(tenant) + 1;
      if Faults.enabled t.faults then
        Faults.fire t.faults
          (Printf.sprintf "funnel.flush@%d" tenant)
          ~k:t.flush_seq.(tenant);
      let off = t.offsets.(tenant) and n = t.counts.(tenant) in
      let batch =
        List.concat (List.init n (fun i -> Fqueue.drain t.outboxes.(off + i)))
      in
      Tracer.counter t.tracer "funnel.batch_size"
        (float_of_int (List.length batch));
      let completed =
        match t.degrade with
        | Some dg -> flush_degraded t ~tenant ~now dg batch
        | None ->
            if batch <> [] then
              ignore (Inference.request_batch t.service ~tag:tenant ~now batch);
            (* Poll only this tenant's completions: another tenant's
               barrier must not be able to steal (or even observe) them,
               or a tenant's prediction stream would depend on the
               schedule. *)
            List.map
              (fun (prog, paths) -> (Prog.fingerprint prog, paths))
              (Inference.poll t.service ~tag:tenant ~now ())
      in
      for s = off to off + n - 1 do
        List.iter (fun p -> Fqueue.push t.inboxes.(s) p) completed
      done;
      List.length completed)

(* [f s] summed over the tenant's shard slots. *)
let tenant_sum name t ~tenant f =
  check_tenant name t tenant;
  let acc = ref 0 in
  for s = t.offsets.(tenant) to t.offsets.(tenant) + t.counts.(tenant) - 1 do
    acc := !acc + f s
  done;
  !acc

let tenant_queue_depth t ~tenant =
  let queued =
    tenant_sum "Funnel.tenant_queue_depth" t ~tenant (fun s ->
        Fqueue.length t.outboxes.(s) + Fqueue.length t.inboxes.(s))
  in
  queued
  + if Array.length t.lanes > 0 then List.length t.lanes.(tenant).ln_retries else 0

let tenant_deferred t ~tenant =
  tenant_sum "Funnel.tenant_deferred" t ~tenant (Array.get t.deferred)

let tenant_dropped t ~tenant =
  tenant_sum "Funnel.tenant_dropped" t ~tenant (Array.get t.dropped)

let requests_deferred t = Array.fold_left ( + ) 0 t.deferred

let dropped t = Array.fold_left ( + ) 0 t.dropped

let lane_stats t ~tenant ~now =
  check_tenant "Funnel.lane_stats" t tenant;
  if Array.length t.lanes = 0 then None
  else
    let ln = t.lanes.(tenant) in
    Some
      {
        ls_state = Breaker.peek ln.ln_breaker ~now;
        ls_trips = Breaker.trips ln.ln_breaker;
        ls_errors = ln.ln_errors;
        ls_shed = ln.ln_shed;
        ls_retries_pending = List.length ln.ln_retries;
      }

(* ------------------------------------------------------------------ *)
(* Snapshot codec                                                       *)
(* ------------------------------------------------------------------ *)

let out_to_json (prog, targets) =
  Json.Obj
    [ ("prog", Codec.prog_to_json prog);
      ("targets", Codec.int_list_to_json targets)
    ]

let out_of_json ~parse j =
  ( Codec.prog_of_json ~parse "outbox prog" (Json.Decode.field "prog" j),
    Codec.int_list_of_json "outbox targets" (Json.Decode.field "targets" j) )

let in_to_json (fp, paths) =
  Json.Obj
    [ ("fp", Codec.fingerprint_to_json fp); ("paths", Codec.paths_to_json paths) ]

let in_of_json j =
  ( Codec.fingerprint_of_json "inbox fp" (Json.Decode.field "fp" j),
    Codec.paths_of_json (Json.Decode.field "paths" j) )

let slot_arrays_json t =
  let per to_json q = Json.Arr (List.map to_json (Fqueue.to_list q)) in
  Json.Obj
    [ ( "outboxes",
        Json.Arr (Array.to_list (Array.map (per out_to_json) t.outboxes)) );
      ( "inboxes",
        Json.Arr (Array.to_list (Array.map (per in_to_json) t.inboxes)) );
      ( "deferred",
        Codec.int_list_to_json (Array.to_list t.deferred) );
      ("dropped", Codec.int_list_to_json (Array.to_list t.dropped))
    ]

let retry_to_json r =
  Json.Obj
    [ ("prog", Codec.prog_to_json r.rt_prog);
      ("targets", Codec.int_list_to_json r.rt_targets);
      ("attempt", Json.Num (float_of_int r.rt_attempt));
      ("due", Json.Num (float_of_int r.rt_due))
    ]

let retry_of_json ~parse j =
  let open Json.Decode in
  {
    rt_prog = Codec.prog_of_json ~parse "retry prog" (field "prog" j);
    rt_targets = Codec.int_list_of_json "retry targets" (field "targets" j);
    rt_attempt = int_field "attempt" j;
    rt_due = int_field "due" j;
  }

let lane_is_default ln =
  Breaker.is_default ln.ln_breaker
  && ln.ln_attempts = [] && ln.ln_retries = [] && ln.ln_shed = 0
  && ln.ln_errors = 0
  && not ln.ln_degraded

let lane_json t i ln =
  Json.Obj
    [ ("flushes", Json.Num (float_of_int t.flush_seq.(i)));
      ("breaker", Breaker.state_json ln.ln_breaker);
      ( "attempts",
        Json.Arr
          (List.map
             (fun (fp, n) ->
               Json.Obj
                 [ ("fp", Codec.fingerprint_to_json fp);
                   ("attempt", Json.Num (float_of_int n))
                 ])
             ln.ln_attempts) );
      ("retries", Json.Arr (List.map retry_to_json ln.ln_retries));
      ("shed", Json.Num (float_of_int ln.ln_shed));
      ("errors", Json.Num (float_of_int ln.ln_errors));
      ("degraded", Json.Bool ln.ln_degraded)
    ]

let lane_restore ~parse ln j =
  let open Json.Decode in
  Breaker.restore_state ln.ln_breaker (field "breaker" j);
  ln.ln_attempts <-
    List.map
      (fun aj ->
        ( Codec.fingerprint_of_json "attempt fp" (field "fp" aj),
          int_field "attempt" aj ))
      (arr_field "attempts" j);
  ln.ln_retries <- List.map (retry_of_json ~parse) (arr_field "retries" j);
  ln.ln_shed <- int_field "shed" j;
  ln.ln_errors <- int_field "errors" j;
  ln.ln_degraded <- bool_field "degraded" j

let state_json t =
  match slot_arrays_json t with
  | Json.Obj fields ->
      (* The lanes field appears only once some lane has left its default
         state — so snapshots of armed-but-never-faulted runs stay
         byte-identical to unarmed (pre-degradation) snapshots, and once
         a lane has degraded, resumed and uninterrupted runs agree. *)
      if
        Array.length t.lanes > 0
        && Array.exists (fun ln -> not (lane_is_default ln)) t.lanes
      then
        Json.Obj
          (fields
          @ [ ( "lanes",
                Json.Arr
                  (Array.to_list (Array.mapi (fun i ln -> lane_json t i ln) t.lanes))
              )
            ])
      else Json.Obj fields
  | j -> j

let restore_state t ~parse j =
  let open Json.Decode in
  let total = Array.length t.outboxes in
  let slots name of_json dst =
    match field name j with
    | Json.Arr qs ->
      if List.length qs <> total then
        error "Funnel.restore_state: %s has %d slots, funnel has %d" name
          (List.length qs) total;
      List.iteri
        (fun s qj ->
          match qj with
          | Json.Arr items ->
            Fqueue.clear dst.(s);
            List.iter (fun it -> Fqueue.push dst.(s) (of_json it)) items
          | _ -> error "Funnel.restore_state: %s slot: expected array" name)
        qs
    | _ -> error "Funnel.restore_state: %s: expected array" name
  in
  slots "outboxes" (out_of_json ~parse) t.outboxes;
  slots "inboxes" in_of_json t.inboxes;
  let ints name dst =
    let xs = Codec.int_list_of_json name (field name j) in
    if List.length xs <> total then
      error "Funnel.restore_state: %s has %d slots, funnel has %d" name
        (List.length xs) total;
    List.iteri (fun s v -> dst.(s) <- v) xs
  in
  ints "deferred" t.deferred;
  ints "dropped" t.dropped;
  (* Lanes: absent means every lane was still default when the snapshot
     was taken (or the writer pre-dated degradation). *)
  (match t.degrade with
  | Some dg ->
      Array.iteri (fun i _ -> t.lanes.(i) <- fresh_lane dg) t.lanes;
      Array.fill t.flush_seq 0 (Array.length t.flush_seq) 0;
      (match Json.member "lanes" j with
      | None -> ()
      | Some (Json.Arr ls) ->
          if List.length ls <> Array.length t.lanes then
            error "Funnel.restore_state: lanes has %d entries, funnel has %d"
              (List.length ls) (Array.length t.lanes);
          List.iteri
            (fun i lj ->
              t.flush_seq.(i) <- int_field "flushes" lj;
              lane_restore ~parse t.lanes.(i) lj)
            ls
      | Some _ -> error "Funnel.restore_state: lanes: expected array")
  | None ->
      if Json.member "lanes" j <> None then
        error
          "Funnel.restore_state: snapshot carries degraded-lane state but \
           degradation is not armed — pass the same fault plan when resuming")
