(* The Plugin Repository (PR): central identities, distributed validation.
   It hosts plugins published by developers, registers validator
   verification keys, and stores each PV's STRs in an append-only
   hash-chained log (Appendix B.1) so equivocation — presenting different
   STRs for the same epoch to different peers — is detectable. *)

type str_entry = { str : Validator.str; prev_hash : string; entry_hash : string }

type t = {
  plugins : (string, string) Hashtbl.t;          (* name -> serialized bytes *)
  developers : (string, string) Hashtbl.t;       (* plugin name -> developer id *)
  pv_keys : (string, string) Hashtbl.t;          (* pv id -> verification key *)
  str_logs : (string, str_entry list) Hashtbl.t; (* pv id -> newest first *)
  mutable alerts : string list;                  (* developer/auditor reports *)
}

let create () =
  {
    plugins = Hashtbl.create 16;
    developers = Hashtbl.create 16;
    pv_keys = Hashtbl.create 8;
    str_logs = Hashtbl.create 8;
    alerts = [];
  }

exception Rejected of string

(* A developer publishes a plugin; the name is globally unique, so a second
   publish under the same name must come from the same developer. *)
let publish t ~developer (plugin : Pluginop.Plugin.t) =
  let name = plugin.Pluginop.Plugin.name in
  (match Hashtbl.find_opt t.developers name with
  | Some owner when owner <> developer ->
    raise (Rejected (Printf.sprintf "name %s is owned by %s" name owner))
  | _ -> ());
  Hashtbl.replace t.developers name developer;
  Hashtbl.replace t.plugins name (Pluginop.Plugin.serialize plugin)

let fetch t name = Hashtbl.find_opt t.plugins name

let plugin_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.plugins [] |> List.sort String.compare

let register_pv t ~id ~key = Hashtbl.replace t.pv_keys id key

let pv_key t id = Hashtbl.find_opt t.pv_keys id

let hash_entry (s : Validator.str) prev_hash =
  Sha256.digest
    (Printf.sprintf "%s|%d|" s.Validator.pv_id s.Validator.epoch
     ^ s.Validator.root ^ s.Validator.signature ^ prev_hash)

(* Record an STR. The log is append-only: a second, different STR for an
   epoch that already has one is equivocation and raises an alert instead
   of being stored. *)
let record_str t (s : Validator.str) =
  match pv_key t s.Validator.pv_id with
  | None -> Error "unknown validator"
  | Some key ->
    if not (Validator.check_str ~key s) then Error "bad STR signature"
    else begin
      let log = Option.value ~default:[] (Hashtbl.find_opt t.str_logs s.Validator.pv_id) in
      match
        List.find_opt (fun e -> e.str.Validator.epoch = s.Validator.epoch) log
      with
      | Some e when e.str.Validator.root <> s.Validator.root ->
        let alert =
          Printf.sprintf "EQUIVOCATION: %s presented two roots for epoch %d"
            s.Validator.pv_id s.Validator.epoch
        in
        t.alerts <- alert :: t.alerts;
        Error alert
      | Some _ -> Ok () (* same STR re-announced *)
      | None ->
        let prev_hash =
          match log with [] -> String.make 32 '\000' | e :: _ -> e.entry_hash
        in
        let entry = { str = s; prev_hash; entry_hash = hash_entry s prev_hash } in
        Hashtbl.replace t.str_logs s.Validator.pv_id (entry :: log);
        Ok ()
    end

let str_at_epoch t pv_id epoch =
  match Hashtbl.find_opt t.str_logs pv_id with
  | None -> None
  | Some log ->
    Option.map (fun e -> e.str)
      (List.find_opt (fun e -> e.str.Validator.epoch = epoch) log)

(* Audit the hash chain of a PV's log: any tampering breaks the chain. *)
let audit_log t pv_id =
  match Hashtbl.find_opt t.str_logs pv_id with
  | None -> true
  | Some log ->
    let rec check = function
      | [] -> true
      | [ e ] ->
        e.prev_hash = String.make 32 '\000'
        && e.entry_hash = hash_entry e.str e.prev_hash
      | e :: (older :: _ as rest) ->
        e.prev_hash = older.entry_hash
        && e.entry_hash = hash_entry e.str e.prev_hash
        && check rest
    in
    check log

let report_alert t msg = t.alerts <- msg :: t.alerts

let alerts t = t.alerts

