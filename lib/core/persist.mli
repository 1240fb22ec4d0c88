(** Snapshot persistence for the snowplow strategy's out-of-campaign
    state.

    A campaign snapshot ([Sp_fuzz.Snapshot]) captures corpus, coverage
    and RNG state — everything a {e syzkaller} campaign needs to resume
    bit-for-bit. A {e snowplow} campaign additionally keeps live state in
    the inference service (pending queue, virtual clock, prediction
    caches), the funnel lanes and each shard strategy's prediction memo;
    {!aux} bundles those three into the snapshot's [aux] field
    ({!Sp_fuzz.Campaign.aux}) so a killed-and-resumed snowplow campaign
    also matches its uninterrupted run exactly.

    Caches, memos, inboxes and attempt counts are keyed by program
    fingerprint; program text is kept only where a program runs again
    (the service's pending queue, the funnel's outboxes and retries).
    Snapshot format versions 2 and 3 kept a program text beside every
    entry; their [aux] is converted on restore by parsing and
    fingerprinting each stored program. *)

val aux :
  parse:(string -> (Sp_syzlang.Prog.t, string) result) ->
  inference:Inference.t ->
  funnel:Funnel.t ->
  predictions:Hybrid.predictions array ->
  Sp_fuzz.Campaign.aux
(** [predictions.(s)] is shard [s]'s memo (the one passed to
    {!Hybrid.strategy_with}); for a scheduler tenant, the slice of memos
    for that tenant's shards. Restore raises [Sp_obs.Json.Decode.Error]
    on malformed input or a memo-count mismatch. *)
