module Rng = Sp_util.Rng
module Metrics = Sp_util.Metrics
module Pool = Sp_util.Pool
module Faults = Sp_util.Faults
module Trace = Sp_obs.Trace
module Tracer = Sp_obs.Tracer
module Timeseries = Sp_obs.Timeseries
module Json = Sp_obs.Json
module Events = Sp_obs.Events
module Exporter = Sp_obs.Exporter
module Exposition = Sp_obs.Exposition

type tenant = {
  t_name : string;
  t_weight : float;
  t_exec_budget : int option;
  t_jobs : int;
  t_config : Campaign.config;
  t_vm_for : int -> Vm.t;
  t_strategy_for : int -> Strategy.t;
  t_on_barrier : (now:float -> unit) option;
  t_snapshot_dir : string option;
  t_restore : Json.t option;
  t_aux : Campaign.aux option;
}

let tenant ?(weight = 1.0) ?exec_budget ?on_barrier ?snapshot_dir ?restore
    ?aux ~name ~jobs ~vm_for ~strategy_for config =
  if name = "" then invalid_arg "Scheduler.tenant: name must be non-empty";
  if not (Float.is_finite weight && weight > 0.0) then
    invalid_arg "Scheduler.tenant: weight must be finite and positive";
  (match exec_budget with
  | Some b when b < 0 -> invalid_arg "Scheduler.tenant: exec_budget must be >= 0"
  | Some _ | None -> ());
  if jobs < 1 then invalid_arg "Scheduler.tenant: jobs must be >= 1";
  {
    t_name = name;
    t_weight = weight;
    t_exec_budget = exec_budget;
    t_jobs = jobs;
    t_config = config;
    t_vm_for = vm_for;
    t_strategy_for = strategy_for;
    t_on_barrier = on_barrier;
    t_snapshot_dir = snapshot_dir;
    t_restore = restore;
    t_aux = aux;
  }

type failure = {
  fl_slice : int;  (* global slice ordinal of the failed slice *)
  fl_barrier : int;  (* tenant barrier in flight when it raised *)
  fl_generation : int;  (* 0 = first run, n = n-th retry *)
  fl_exn : string;
  fl_backtrace : string;
}

type tenant_report = {
  tr_name : string;
  tr_weight : float;
  tr_slices : int;
  tr_executions : int;  (* executions performed under this scheduler run *)
  tr_budget_exhausted : bool;
  tr_completed : bool;
  tr_quarantined : bool;
  tr_retries : int;
  tr_failures : failure list;  (* chronological *)
  tr_report : Campaign.report;
}

type report = {
  sr_tenants : tenant_report list;
  sr_slices : int;
  sr_schedule : string list;
  sr_workers : int;
  sr_metrics : Metrics.t;
}

(* One tenant's row in the live [/tenants] document — a pure projection
   of seat state, so the JSON shape can be golden-tested without a
   scheduler run. *)
type tenant_status = {
  ts_name : string;
  ts_weight : float;
  ts_state : string;
  ts_pass : float;
  ts_barrier : int;
  ts_slices : int;
  ts_executions : int;
  ts_budget_remaining : int option;
  ts_retries : int;
}

let tenant_status_json ts =
  Json.Obj
    [ ("name", Json.Str ts.ts_name);
      ("weight", Json.Num ts.ts_weight);
      ("state", Json.Str ts.ts_state);
      ("pass", Json.Num ts.ts_pass);
      ("barrier", Json.Num (float_of_int ts.ts_barrier));
      ("slices", Json.Num (float_of_int ts.ts_slices));
      ("executions", Json.Num (float_of_int ts.ts_executions));
      ( "budget_remaining",
        match ts.ts_budget_remaining with
        | None -> Json.Null
        | Some b -> Json.Num (float_of_int b) );
      ("retries", Json.Num (float_of_int ts.ts_retries))
    ]

let summary_json ~faults_injected r =
  let n x = Json.Num (float_of_int x) in
  let tenant tr =
    Json.Obj
      [ ("name", Json.Str tr.tr_name); ("weight", Json.Num tr.tr_weight);
        ("slices", n tr.tr_slices); ("executions", n tr.tr_executions);
        ("crashes", n (List.length tr.tr_report.Campaign.crashes));
        ("corpus_size", n tr.tr_report.Campaign.corpus_size);
        ("completed", Json.Bool tr.tr_completed);
        ("quarantined", Json.Bool tr.tr_quarantined);
        ("budget_exhausted", Json.Bool tr.tr_budget_exhausted);
        ("retries", n tr.tr_retries); ("failures", n (List.length tr.tr_failures)) ]
  in
  Json.Obj
    [ ("slices", n r.sr_slices); ("workers", n r.sr_workers);
      ("faults_injected", n faults_injected);
      ("tenants", Json.Arr (List.map tenant r.sr_tenants)) ]

(* State name -> gauge code for the snowplow_tenant_state series. *)
let state_code = function
  | "healthy" -> 0.0
  | "backoff" -> 1.0
  | "quarantined" -> 2.0
  | "completed" -> 3.0
  | "exhausted" -> 4.0
  | _ -> -1.0

type telemetry = {
  tm_exporter : Exporter.t;
  tm_extra : unit -> Exposition.metric list;
}

let telemetry ?(extra = fun () -> []) exporter =
  { tm_exporter = exporter; tm_extra = extra }

(* A failed tenant's lifecycle: Healthy -> (slice raises) -> Backoff,
   waiting [2^(retries-1)] scheduling rounds, -> rebuilt from its last
   good snapshot under a retry-salted label -> Healthy again; after
   [max_tenant_retries] failed generations it is evicted to the terminal
   Quarantined state and the roster keeps running without it. *)
type seat_state = Healthy | Backoff of int  (* round the retry is due *) | Quarantined

(* Per-tenant live state while the loop runs. [st_inst] is replaced on
   every retry generation; [st_done] banks the executions the discarded
   generations performed, so budgets keep charging real work. *)
type seat = {
  st_tenant : tenant;
  st_index : int;
  mutable st_inst : Campaign.instance;
  mutable st_exec0 : int;  (* instance executions at admission (restore included) *)
  mutable st_slices : int;
  mutable st_exhausted : bool;
  mutable st_state : seat_state;
  mutable st_retries : int;
  mutable st_done : int;  (* executions banked from failed generations *)
  mutable st_failures_rev : failure list;
}

let seat_executions st =
  st.st_done + Campaign.instance_executions st.st_inst - st.st_exec0

let seat_remaining st =
  match st.st_tenant.t_exec_budget with
  | None -> max_int
  | Some b -> b - seat_executions st

let seat_runnable st =
  st.st_state = Healthy
  && (not (Campaign.instance_stopped st.st_inst))
  && not st.st_exhausted

(* Stride scheduling: a tenant's pass is its next barrier's virtual time
   divided by its weight; the lowest pass runs next (ties to the lowest
   tenant index). The pass is derived entirely from the tenant's barrier
   count — no accumulated credit — so a killed-and-resumed schedule
   continues exactly where the uninterrupted one was. *)
let pass st = Campaign.instance_next_time st.st_inst /. st.st_tenant.t_weight

let by_pass a b =
  match Float.compare (pass a) (pass b) with
  | 0 -> Int.compare a.st_index b.st_index
  | c -> c

let seat_status st =
  let state =
    match st.st_state with
    | Quarantined -> "quarantined"
    | Backoff _ -> "backoff"
    | Healthy ->
      if st.st_exhausted then "exhausted"
      else if Campaign.instance_stopped st.st_inst then "completed"
      else "healthy"
  in
  {
    ts_name = st.st_tenant.t_name;
    ts_weight = st.st_tenant.t_weight;
    ts_state = state;
    ts_pass = pass st;
    ts_barrier = Campaign.instance_barrier st.st_inst;
    ts_slices = st.st_slices;
    ts_executions = seat_executions st;
    ts_budget_remaining =
      Option.map (fun _ -> seat_remaining st) st.st_tenant.t_exec_budget;
    ts_retries = st.st_retries;
  }

(* Registry counters/summaries as exposition series, prefixed and
   sanitized. Per-tenant [scheduler.tenant.*] counters are skipped —
   they are served as labelled [snowplow_tenant_*] series instead. *)
let registry_metrics m =
  let tenant_prefix = "scheduler.tenant." in
  let is_tenant name =
    String.length name >= String.length tenant_prefix
    && String.sub name 0 (String.length tenant_prefix) = tenant_prefix
  in
  let counters =
    List.filter_map
      (fun (name, v) ->
        if is_tenant name then None
        else
          Some
            (Exposition.metric Exposition.Counter
               (Exposition.sanitize_name ("snowplow_" ^ name))
               (float_of_int v)))
      (Metrics.counters m)
  in
  let summaries =
    List.concat_map
      (fun (name, (s : Metrics.summary)) ->
        let base = Exposition.sanitize_name ("snowplow_" ^ name) in
        [ Exposition.metric Exposition.Counter (base ^ "_count")
            (float_of_int s.Metrics.count);
          Exposition.metric Exposition.Gauge (base ^ "_mean") s.Metrics.mean;
          Exposition.metric Exposition.Gauge (base ^ "_max") s.Metrics.max
        ])
      (Metrics.summaries m)
  in
  counters @ summaries

let tenant_series statuses =
  List.concat_map
    (fun ts ->
      let labels = [ ("tenant", ts.ts_name) ] in
      let g ?help name v = Exposition.metric ?help ~labels Exposition.Gauge name v in
      let c name v = Exposition.metric ~labels Exposition.Counter name v in
      [ g ~help:"stride pass (next barrier virtual time / weight)"
          "snowplow_tenant_pass" ts.ts_pass;
        g
          ~help:
            "seat state: 0 healthy, 1 backoff, 2 quarantined, 3 completed, \
             4 exhausted"
          "snowplow_tenant_state" (state_code ts.ts_state);
        g "snowplow_tenant_barrier" (float_of_int ts.ts_barrier);
        c "snowplow_tenant_slices" (float_of_int ts.ts_slices);
        c "snowplow_tenant_executions" (float_of_int ts.ts_executions);
        g ~help:"retry generations started"
          "snowplow_tenant_retry_generation" (float_of_int ts.ts_retries)
      ]
      @
      match ts.ts_budget_remaining with
      | None -> []
      | Some b ->
        [ g ~help:"exec budget remaining" "snowplow_tenant_budget_remaining"
            (float_of_int b)
        ])
    statuses

let health_json ~running ~workers ~slices statuses =
  let count state =
    List.length (List.filter (fun ts -> ts.ts_state = state) statuses)
  in
  let quarantined = count "quarantined" in
  let status =
    if quarantined = List.length statuses then "failed"
    else if quarantined > 0 || count "backoff" > 0 then "degraded"
    else "ok"
  in
  Json.Obj
    [ ("status", Json.Str status);
      ("running", Json.Bool running);
      ("workers", Json.Num (float_of_int workers));
      ("slices", Json.Num (float_of_int slices));
      ( "tenants",
        Json.Obj
          (List.map
             (fun s -> (s, Json.Num (float_of_int (count s))))
             [ "healthy"; "backoff"; "quarantined"; "completed"; "exhausted" ])
      )
    ]

(* Trace pids: the scheduler lane is 0, tenant [i] owns the [1 + jobs]
   pids from [bases.(i)] on (its campaign-main lane, then one per shard),
   and the shared pool workers follow the last tenant's range. No two
   lanes share a pid whatever the roster's jobs — [Trace.tracer]
   memoizes by pid, so a shared pid would hand one ring to two domains.
   Returns [(bases, first pool-worker pid)]. *)
let pid_layout tenants =
  let bases = Array.make (List.length tenants) 0 in
  let _, workers_base =
    List.fold_left
      (fun (i, next) t ->
        bases.(i) <- next;
        (i + 1, next + 1 + t.t_jobs))
      (0, 1) tenants
  in
  (bases, workers_base)

let run ?workers ?(trace = Trace.disabled) ?timeseries ?max_slices
    ?(faults = Faults.disabled) ?(max_tenant_retries = 3)
    ?(events = Events.null) ?telemetry:tele tenants =
  Json.Decode.run (fun () ->
      if max_tenant_retries < 0 then
        invalid_arg "Scheduler.run: max_tenant_retries must be >= 0";
      if tenants = [] then
        invalid_arg "Scheduler.run: at least one tenant required";
      let names = Hashtbl.create 8 in
      List.iter
        (fun t ->
          if Hashtbl.mem names t.t_name then
            invalid_arg
              (Printf.sprintf "Scheduler.run: duplicate tenant name %S"
                 t.t_name);
          Hashtbl.add names t.t_name ())
        tenants;
      let workers =
        match workers with
        | Some w ->
          if w < 1 then invalid_arg "Scheduler.run: workers must be >= 1";
          w
        | None -> List.fold_left (fun acc t -> max acc t.t_jobs) 1 tenants
      in
      let metrics = Metrics.create () in
      let sched_tracer = Trace.tracer trace ~pid:0 ~name:"scheduler" in
      let pid_bases, worker_pid_base = pid_layout tenants in
      (* All instances are built (and restore snapshots validated) before
         any slice runs, so a bad tenant fails the whole launch instead
         of dying mid-schedule. *)
      let build_instance ~label t i restore =
        Campaign.create_instance ?snapshot_dir:t.t_snapshot_dir ?restore
          ?on_barrier:t.t_on_barrier ~trace ?aux:t.t_aux
          ~pid_base:pid_bases.(i) ~label ~faults ~events ~jobs:t.t_jobs
          ~vm_for:t.t_vm_for ~strategy_for:t.t_strategy_for t.t_config
      in
      let seats =
        List.mapi
          (fun i t ->
            let inst = build_instance ~label:t.t_name t i t.t_restore in
            {
              st_tenant = t;
              st_index = i;
              st_inst = inst;
              st_exec0 = Campaign.instance_executions inst;
              st_slices = 0;
              st_exhausted = false;
              st_state = Healthy;
              st_retries = 0;
              st_done = 0;
              st_failures_rev = [];
            })
          tenants
      in
      (* Rebuild a failed tenant from its newest valid on-disk snapshot
         (falling back to its original restore document, then to a fresh
         start). The retry generation salts the instance label, which
         prefixes its fault sites — so a scheduled fault that killed
         generation 0 does not automatically re-kill generation 1 unless
         the plan addresses [name#1/...] too. *)
      let rebuild st =
        let t = st.st_tenant in
        let label =
          if st.st_retries = 0 then t.t_name
          else Printf.sprintf "%s#%d" t.t_name st.st_retries
        in
        let restore =
          match t.t_snapshot_dir with
          | Some dir -> (
            match Snapshot.latest_valid ~events ~dir () with
            | Some (_, _, doc) -> Some doc
            | None -> t.t_restore)
          | None -> t.t_restore
        in
        (* Bank the dead generation's work before discarding it, so
           [seat_executions] (and with it the budget) never rolls back.
           Re-baseline [st_exec0] immediately: if [build_instance] raises
           (corrupt snapshot), the seat still points at the old instance
           and must not double-charge its work. *)
        st.st_done <-
          st.st_done + Campaign.instance_executions st.st_inst - st.st_exec0;
        st.st_exec0 <- Campaign.instance_executions st.st_inst;
        let inst = build_instance ~label t st.st_index restore in
        st.st_inst <- inst;
        st.st_exec0 <- Campaign.instance_executions inst
      in
      let refresh_exhausted st =
        if (not st.st_exhausted) && seat_remaining st <= 0 then begin
          st.st_exhausted <- true;
          Events.log events ~kind:"scheduler.budget_exhausted"
            [ ("tenant", Json.Str st.st_tenant.t_name);
              ("executions", Json.Num (float_of_int (seat_executions st)))
            ]
        end
      in
      List.iter refresh_exhausted seats;
      let total_slices = ref 0 in
      let total_execs = ref 0 in
      let schedule_rev = ref [] in
      let pool_metrics = Metrics.create () in
      (* Telemetry publication: project seat state into an immutable,
         prerendered payload and swap it into the exporter. Runs on this
         (the scheduling) domain only, at barrier granularity — reads
         nothing a worker writes and writes nothing a slice reads, so an
         armed exporter cannot perturb the schedule or any campaign. *)
      let publish ~running () =
        match tele with
        | None -> ()
        | Some tm ->
          let statuses = List.map seat_status seats in
          Exporter.publish tm.tm_exporter
            {
              Exporter.p_metrics =
                registry_metrics metrics @ tenant_series statuses
                @ tm.tm_extra ();
              p_health =
                health_json ~running ~workers ~slices:!total_slices statuses;
              p_tenants = Json.Arr (List.map tenant_status_json statuses);
            }
      in
      Events.log events ~kind:"scheduler.start"
        [ ("tenants", Json.Num (float_of_int (List.length tenants)));
          ("workers", Json.Num (float_of_int workers))
        ];
      publish ~running:true ();
      Pool.with_pool ~metrics:pool_metrics
        ~tracer_for:(fun w ->
          Trace.tracer trace ~pid:(worker_pid_base + w)
            ~name:(Printf.sprintf "pool-worker-%d" w))
        ~workers
        (fun pool ->
          let slices_left () =
            match max_slices with
            | None -> max_int
            | Some m -> m - !total_slices
          in
          let round = ref 0 in
          (* A raising slice (or rebuild) lands here: capture the
             forensics, then either schedule a retry after an
             exponential backoff (1, 2, 4... rounds) or — once the
             retry budget is spent — evict the tenant to the terminal
             Quarantined state. The roster keeps running either way. *)
          let handle_failure st ~slice_no e bt =
            Tracer.span sched_tracer "scheduler.quarantine" (fun () ->
                let barrier = Campaign.instance_barrier st.st_inst in
                let fl =
                  {
                    fl_slice = slice_no;
                    fl_barrier = barrier;
                    fl_generation = st.st_retries;
                    fl_exn = Printexc.to_string e;
                    fl_backtrace = Printexc.raw_backtrace_to_string bt;
                  }
                in
                st.st_failures_rev <- fl :: st.st_failures_rev;
                Metrics.incr metrics "scheduler.failures";
                Metrics.incr metrics
                  (Printf.sprintf "scheduler.tenant.%s.failures"
                     st.st_tenant.t_name);
                (* Forensic record beside the snapshots; best-effort —
                   diagnostics must never take the roster down. *)
                (match st.st_tenant.t_snapshot_dir with
                | Some dir -> (
                  try
                    ignore
                      (Snapshot.write_failure ~dir ~barrier
                         ~generation:st.st_retries
                         (Json.Obj
                            [ ("format", Json.Str "snowplow-tenant-failure");
                              ("tenant", Json.Str st.st_tenant.t_name);
                              ("barrier", Json.Num (float_of_int barrier));
                              ("slice", Json.Num (float_of_int slice_no));
                              ( "generation",
                                Json.Num (float_of_int st.st_retries) );
                              ("exn", Json.Str fl.fl_exn);
                              ("backtrace", Json.Str fl.fl_backtrace)
                            ]))
                  with _ -> ())
                | None -> ());
                Events.log events ~level:Events.Error ~kind:"scheduler.failure"
                  [ ("tenant", Json.Str st.st_tenant.t_name);
                    ("slice", Json.Num (float_of_int slice_no));
                    ("barrier", Json.Num (float_of_int barrier));
                    ("generation", Json.Num (float_of_int st.st_retries));
                    ("exn", Json.Str fl.fl_exn)
                  ];
                if st.st_retries >= max_tenant_retries then begin
                  st.st_state <- Quarantined;
                  Metrics.incr metrics "scheduler.quarantined";
                  Events.log events ~level:Events.Error
                    ~kind:"scheduler.quarantine"
                    [ ("tenant", Json.Str st.st_tenant.t_name);
                      ("generations", Json.Num (float_of_int (st.st_retries + 1)))
                    ]
                end
                else begin
                  st.st_retries <- st.st_retries + 1;
                  st.st_state <- Backoff (!round + (1 lsl (st.st_retries - 1)));
                  Events.log events ~level:Events.Warn ~kind:"scheduler.backoff"
                    [ ("tenant", Json.Str st.st_tenant.t_name);
                      ("generation", Json.Num (float_of_int st.st_retries));
                      ( "due_round",
                        Json.Num
                          (float_of_int (!round + (1 lsl (st.st_retries - 1)))) )
                    ]
                end;
                if Faults.enabled faults then
                  Tracer.counter sched_tracer "faults.injected"
                    (float_of_int (Faults.injected faults)))
          in
          let continue = ref true in
          while !continue do
            incr round;
            (* Promote due backoff seats: rebuild from the last good
               snapshot. A rebuild that itself raises counts as another
               failure of the same tenant. *)
            List.iter
              (fun st ->
                match st.st_state with
                | Backoff due when !round >= due -> (
                  match rebuild st with
                  | () ->
                    st.st_state <- Healthy;
                    Events.log events ~kind:"scheduler.retry"
                      [ ("tenant", Json.Str st.st_tenant.t_name);
                        ("generation", Json.Num (float_of_int st.st_retries));
                        ( "barrier",
                          Json.Num
                            (float_of_int
                               (Campaign.instance_barrier st.st_inst)) )
                      ]
                  | exception e ->
                    let bt = Printexc.get_raw_backtrace () in
                    handle_failure st ~slice_no:!total_slices e bt)
                | Backoff _ | Healthy | Quarantined -> ())
              seats;
            let runnable = List.filter seat_runnable seats in
            let waiting =
              List.exists
                (fun st ->
                  match st.st_state with Backoff _ -> true | _ -> false)
                seats
            in
            if (runnable = [] && not waiting) || slices_left () <= 0 then
              continue := false
            else if runnable = [] then
              (* Everyone alive is waiting out a backoff: skip the round.
                 Rounds are pure bookkeeping, so this converges to the
                 earliest due round immediately. *)
              ()
            else begin
              (* Admission batch: walk the stride order, admitting while
                 the batch's summed jobs fit the pool. The head of the
                 order is always admitted — even a tenant with
                 jobs > workers makes progress (its shards just queue) —
                 so the scheduler is work-conserving by construction.
                 The batch is computed from tenant state alone, never
                 from how many pool tasks are still running (which races
                 with completing workers), keeping the schedule itself
                 deterministic. *)
              let order = List.stable_sort by_pass runnable in
              let admitted = ref [] in
              let batch_jobs = ref 0 in
              List.iteri
                (fun k st ->
                  if
                    slices_left () > 0
                    && (k = 0 || !batch_jobs + st.st_tenant.t_jobs <= workers)
                  then begin
                    batch_jobs := !batch_jobs + st.st_tenant.t_jobs;
                    let max_execs =
                      match st.st_tenant.t_exec_budget with
                      | None -> None
                      | Some _ -> Some (seat_remaining st)
                    in
                    (* Baseline before any of this slice's work is
                       submitted: workers run concurrently with this
                       domain, so reading it any later would race with
                       the slice's own executions. *)
                    let exec_before = seat_executions st in
                    let slice =
                      Campaign.begin_slice st.st_inst ~pool ?max_execs ()
                    in
                    schedule_rev := st.st_tenant.t_name :: !schedule_rev;
                    incr total_slices;
                    admitted := (st, exec_before, !total_slices, slice) :: !admitted
                  end)
                order;
              (* Completions fold on this domain, in admission order:
                 tenants are independent, so the order only affects
                 wall-clock overlap, never any tenant's state. *)
              (* Every admitted slice completes even when one raises:
                 [complete_slice] quiesces its own shards before the
                 exception escapes, the handler below contains it, and
                 the iteration moves on to the next tenant. *)
              List.iter
                (fun (st, exec_before, slice_no, slice) ->
                  Tracer.span sched_tracer "scheduler.slice" (fun () ->
                      match Campaign.complete_slice st.st_inst slice with
                      | exception e ->
                        let bt = Printexc.get_raw_backtrace () in
                        let delta = seat_executions st - exec_before in
                        total_execs := !total_execs + delta;
                        Metrics.incr ~by:delta metrics "scheduler.execs_total";
                        Metrics.incr ~by:delta metrics
                          (Printf.sprintf "scheduler.tenant.%s.execs"
                             st.st_tenant.t_name);
                        handle_failure st ~slice_no e bt;
                        publish ~running:true ()
                      | () ->
                        let delta = seat_executions st - exec_before in
                        st.st_slices <- st.st_slices + 1;
                        total_execs := !total_execs + delta;
                        refresh_exhausted st;
                        Metrics.incr metrics "scheduler.slices";
                        Metrics.incr ~by:delta metrics "scheduler.execs_total";
                        Metrics.incr metrics
                          (Printf.sprintf "scheduler.tenant.%s.slices"
                             st.st_tenant.t_name);
                        Metrics.incr ~by:delta metrics
                          (Printf.sprintf "scheduler.tenant.%s.execs"
                             st.st_tenant.t_name);
                        Tracer.counter sched_tracer "execs_total"
                          (float_of_int !total_execs);
                        if Faults.enabled faults then
                          Tracer.counter sched_tracer "faults.injected"
                            (float_of_int (Faults.injected faults));
                        (match timeseries with
                        | None -> ()
                        | Some ts ->
                          (* The slice ordinal is the time axis: strictly
                             monotone and schedule-deterministic. *)
                          Timeseries.sample ts
                            ~time:(float_of_int !total_slices)
                            [
                              ("tenant", float_of_int st.st_index);
                              ( "tenant_barrier",
                                float_of_int
                                  (Campaign.instance_barrier st.st_inst) );
                              ( "tenant_execs",
                                float_of_int (seat_executions st) );
                              ("execs_total", float_of_int !total_execs);
                            ]);
                        Events.log events ~level:Events.Debug
                          ~kind:"scheduler.slice"
                          [ ("tenant", Json.Str st.st_tenant.t_name);
                            ("slice", Json.Num (float_of_int slice_no));
                            ( "barrier",
                              Json.Num
                                (float_of_int
                                   (Campaign.instance_barrier st.st_inst)) );
                            ("execs", Json.Num (float_of_int delta));
                            ( "execs_total",
                              Json.Num (float_of_int !total_execs) )
                          ];
                        publish ~running:true ()))
                (List.rev !admitted)
            end
          done);
      Metrics.merge_into ~dst:metrics pool_metrics;
      (* Final payload after the pool merge, so the last scrape also
         carries the pool.tasks counter. *)
      publish ~running:false ();
      Events.log events ~kind:"scheduler.finish"
        [ ("slices", Json.Num (float_of_int !total_slices));
          ("execs_total", Json.Num (float_of_int !total_execs))
        ];
      let sr_tenants =
        List.map
          (fun st ->
            {
              tr_name = st.st_tenant.t_name;
              tr_weight = st.st_tenant.t_weight;
              tr_slices = st.st_slices;
              tr_executions = seat_executions st;
              tr_budget_exhausted = st.st_exhausted;
              tr_completed =
                st.st_state = Healthy
                && Campaign.instance_stopped st.st_inst;
              tr_quarantined = st.st_state = Quarantined;
              tr_retries = st.st_retries;
              tr_failures = List.rev st.st_failures_rev;
              tr_report = Campaign.finish_instance st.st_inst;
            })
          seats
      in
      {
        sr_tenants;
        sr_slices = !total_slices;
        sr_schedule = List.rev !schedule_rev;
        sr_workers = workers;
        sr_metrics = metrics;
      })
