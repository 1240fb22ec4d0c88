module Json = Sp_obs.Json
module Prog = Sp_syzlang.Prog

(* Versions 2 and 3 share one [aux] layout, which kept a program text
   beside every cache, memo, inbox and attempt entry to confirm its int
   hash key. Converting it is fingerprinting each stored program, as the
   service, the funnel and the strategies would have. The entries that
   run again (the pending queue, the outboxes, the retries) keep their
   text in every version. *)
let upgrade ~parse aux =
  let open Json.Decode in
  let fp name j =
    Codec.fingerprint_to_json (Prog.fingerprint (Codec.prog_of_json ~parse name j))
  in
  let arr f = function
    | Json.Arr xs -> Json.Arr (List.map f xs)
    | _ -> error "Persist.aux: expected array"
  in
  let obj f = function
    | Json.Obj kvs -> Json.Obj (List.map f kvs)
    | _ -> error "Persist.aux: expected object"
  in
  (* Rewrite the named fields of an object; absent ones stay absent. *)
  let fields rewrites =
    obj (fun (k, v) ->
        (k, match List.assoc_opt k rewrites with Some f -> f v | None -> v))
  in
  (* An inbox entry or attempt: its "prog" becomes an "fp". *)
  let refp name = obj (function "prog", v -> ("fp", fp name v) | kv -> kv) in
  (* An LRU dump, re-keyed by what each entry's value held. *)
  let lru rekey =
    arr (fun e ->
        let key, value = rekey (field "value" e) in
        Json.Obj [ ("key", key); ("written_at", field "written_at" e); ("value", value) ])
  in
  let cached v = fp "cached prog" (field "src_prog" v) in
  fields
    [ ( "inference",
        fields
          [ ( "cache",
              lru (fun v ->
                  ( Json.Obj [ ("fp", cached v); ("targets", field "src_targets" v) ],
                    field "answer" v )) );
            ("by_prog", lru (fun v -> (cached v, field "answer" v))) ] );
      ( "funnel",
        fields
          [ ("inboxes", arr (arr (refp "inbox prog")));
            ("lanes", arr (fields [ ("attempts", arr (refp "attempt prog")) ])) ] );
      ( "predictions",
        arr (lru (fun v -> (fp "prediction prog" (field "prog" v), field "paths" v))) ) ]
    aux

(* The snowplow strategy's live state outside the campaign proper:
   the inference service (queue, clock, caches), the funnel lanes
   (outboxes/inboxes in flight at the barrier) and each shard's
   delivered-prediction memo. Bundled as the campaign snapshot's [aux]
   field so a resumed snowplow campaign is bit-for-bit the
   uninterrupted one. *)
let aux ~parse ~inference ~funnel ~predictions =
  let aux_json () =
    Json.Obj
      [ ("inference", Inference.state_json inference);
        ("funnel", Funnel.state_json funnel);
        ( "predictions",
          Json.Arr
            (Array.to_list (Array.map Hybrid.predictions_json predictions)) )
      ]
  in
  let aux_restore ~version j =
    let open Json.Decode in
    let j = if version < 4 then upgrade ~parse j else j in
    Inference.restore_state inference ~parse (field "inference" j);
    Funnel.restore_state funnel ~parse (field "funnel" j);
    match field "predictions" j with
    | Json.Arr ps ->
      if List.length ps <> Array.length predictions then
        error "Persist.aux: snapshot has %d prediction memos, campaign has %d"
          (List.length ps) (Array.length predictions);
      List.iteri (fun i pj -> Hybrid.restore_predictions predictions.(i) pj) ps
    | _ -> error "Persist.aux: predictions: expected array"
  in
  { Sp_fuzz.Campaign.aux_json; aux_restore }
