(* End-to-end glue of the secure plugin management system (Figure 4):
   builds the [prover] a PQUIC peer uses to answer PLUGIN_VALIDATE with a
   PLUGIN_PROOF, and the [verifier] the receiving peer runs against the
   STRs of the validators it trusts, under its pinned requirement formula
   (e.g. PV1&(PV2|PV3)). *)

type t = {
  repo : Repository.t;
  validators : (string * Validator.t) list;
  depth : int;
}

let create ?(depth = 16) ~repo ~validators () = { repo; validators; depth }

let validator t id = List.assoc_opt id t.validators

(* One item of a PLUGIN_PROOF: the STR and the authentication path from one
   validator. *)
type proof_item = {
  pv_id : string;
  str : Validator.str;
  path : Merkle.proof;
}

let write_str16 buf s =
  Buffer.add_uint16_be buf (String.length s);
  Buffer.add_string buf s

let write_str32 buf s =
  Buffer.add_int32_be buf (Int32.of_int (String.length s));
  Buffer.add_string buf s

let serialize_bundle items =
  let buf = Buffer.create 2048 in
  Buffer.add_uint16_be buf (List.length items);
  List.iter
    (fun it ->
      write_str16 buf it.pv_id;
      Buffer.add_int32_be buf (Int32.of_int it.str.Validator.epoch);
      write_str16 buf it.str.Validator.root;
      write_str16 buf it.str.Validator.signature;
      write_str32 buf (Merkle.serialize_proof it.path))
    items;
  Buffer.contents buf

exception Malformed_bundle

let deserialize_bundle s =
  try
    let n = String.get_uint16_be s 0 in
    let pos = ref 2 in
    let str16 () =
      let len = String.get_uint16_be s !pos in
      let v = String.sub s (!pos + 2) len in
      pos := !pos + 2 + len;
      v
    in
    let str32 () =
      let len = Int32.to_int (String.get_int32_be s !pos) in
      let v = String.sub s (!pos + 4) len in
      pos := !pos + 4 + len;
      v
    in
    List.init n (fun _ ->
        let pv_id = str16 () in
        let epoch = Int32.to_int (String.get_int32_be s !pos) in
        pos := !pos + 4;
        let root = str16 () in
        let signature = str16 () in
        let path = Merkle.deserialize_proof (str32 ()) in
        { pv_id; str = { Validator.pv_id; epoch; root; signature }; path })
  with Invalid_argument _ | Failure _ | Merkle.Malformed_proof ->
    raise Malformed_bundle

(* The prover side: gather authentication paths from the validators named
   in the peer's formula until it is satisfiable with the proofs we hold.
   Returns None when the requirement cannot be met. *)
let prover t ~name ~formula =
  match Policy.parse formula with
  | exception Policy.Parse_error _ -> None
  | f ->
    let items =
      List.filter_map
        (fun pv_id ->
          match validator t pv_id with
          | None -> None
          | Some v -> (
            match Validator.prove v name with
            | None -> None
            | Some path ->
              Some { pv_id; str = Validator.current_str v; path }))
        (Policy.validators f)
    in
    let have id = List.exists (fun it -> it.pv_id = id) items in
    if Policy.satisfied f ~valid:have then Some (serialize_bundle items)
    else None

(* The verifier side, bound to a receiving peer: trusts the STRs it can
   authenticate with the PR-registered keys, checks each authentication
   path against its STR root, and accepts if its own pinned [formula] is
   satisfied by the set of validators with valid proofs. *)
let verifier t ~formula =
  let f = Policy.parse formula in
  fun ~name ~bytes ~proof ->
    match deserialize_bundle proof with
    | exception Malformed_bundle -> false
    | items ->
      let valid_items =
        List.filter
          (fun it ->
            match Repository.pv_key t.repo it.pv_id with
            | None -> false
            | Some key ->
              Validator.check_str ~key it.str
              && (* the STR must match the (non-equivocating) log at the PR *)
              (match Repository.str_at_epoch t.repo it.pv_id it.str.Validator.epoch with
               | Some logged -> logged.Validator.root = it.str.Validator.root
               | None -> false)
              && Merkle.verify_present ~root:it.str.Validator.root
                   ~depth:t.depth ~name ~code:bytes it.path)
          items
      in
      let valid id = List.exists (fun it -> it.pv_id = id) valid_items in
      Policy.satisfied f ~valid

(* Convenience: run the full developer → PR → PV pipeline for a plugin. *)
let publish_and_validate t ~developer (plugin : Pluginop.Plugin.t) =
  Repository.publish t.repo ~developer plugin;
  List.map
    (fun (id, v) ->
      let r = Validator.submit v plugin in
      (id, r))
    t.validators

(* Close the epoch at every validator and record the STRs at the PR. *)
let publish_epoch t =
  List.iter
    (fun (_, v) ->
      let str = Validator.publish v in
      match Repository.record_str t.repo str with
      | Ok () -> ()
      | Error e -> Repository.report_alert t.repo e)
    t.validators
