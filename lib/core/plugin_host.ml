(* Plugin lifecycle on a PQUIC connection, and the over-the-connection
   plugin exchange of Section 3.4 (PLUGIN_VALIDATE / PLUGIN_PROOF / PLUGIN
   chunk transfer) together with the both-sides plugin negotiation.

   The lifecycle itself — building instances (PREs verified and compiled),
   attaching them to the protoop registry, sanctioning misbehaving plugins
   — is transport-neutral and lives in [Pluginop.Plugin_host]; this module
   pairs it with the connection's plugin state [c.po]. The exchange and
   negotiation are QUIC wire-format business and stay here. *)

module F = Quic.Frame
module TP = Quic.Transport_params
module PH = Pluginop.Plugin_host
open Conn_types

(* Remove a plugin's pluglets from the registry and scheduler. The paper's
   sanction for a misbehaving pluglet is the removal of its plugin and the
   termination of the connection. *)
let remove_plugin c name = PH.remove_plugin c.po c name
let kill_plugin c name reason = PH.kill_plugin c.po c name reason

(* ------------------------------------------------------------------ *)
(* Plugin injection                                                    *)
(* ------------------------------------------------------------------ *)

exception Injection_failed = PH.Injection_failed

let plugin_heap_size = PH.plugin_heap_size
let build_instance = PH.build_instance
let attach_instance c inst = PH.attach_instance c.po c inst
let inject_plugin c plugin = PH.inject_plugin c.po c plugin
let has_plugin c name = PH.has_plugin c.po name

(* ------------------------------------------------------------------ *)
(* Plugin negotiation                                                  *)
(* ------------------------------------------------------------------ *)

let request_plugin_transfer c name =
  Log.info (fun m -> m "requesting plugin %s from peer" name);
  Queue.push
    (F.Plugin_validate { plugin = name; formula = c.cfg.trust_formula })
    c.ctrl

let negotiate_plugins c =
  (* requires both the handshake completion and the peer's transport
     parameters; runs exactly once per connection *)
  match c.peer_params with
  | None -> ()
  | Some _ when c.state <> Established || c.negotiated -> ()
  | Some peer ->
    c.negotiated <- true;
    let wanted =
      let mine = c.local_params.TP.plugins_to_inject in
      let theirs = peer.TP.plugins_to_inject in
      List.fold_left
        (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
        [] (mine @ theirs)
    in
    List.iter
      (fun name ->
        (* a plugin is activated on the connection only when both peers
           hold it (Section 3.4, outcome (a)); otherwise it is transferred
           for use on subsequent connections (outcome (b)) *)
        let peer_has = List.mem name peer.TP.supported_plugins in
        if has_plugin c name then begin
          if not peer_has then begin
            Log.info (fun m ->
                m "rolling back plugin %s: peer does not hold it" name);
            remove_plugin c name
          end
        end
        else if peer_has then
          match c.acquire_instance name with
          | Some inst -> (
            match attach_instance c inst with
            | _ -> Log.info (fun m -> m "injected local plugin %s" name)
            | exception Injection_failed e ->
              Log.warn (fun m -> m "failed to inject %s: %s" name e))
          | None ->
            (* not cached locally: ask the peer to provide it *)
            request_plugin_transfer c name)
      wanted;
    ignore (Dispatch.run_op c Protoop.plugin_negotiated [||])

(* Inject the locally available plugins this host wants on the connection
   (its own plugins_to_inject): local plugins are active from the start so
   e.g. the monitoring plugin records handshake PIs (Section 4.1). Peer
   requests are handled at negotiation time. *)
let inject_local_plugins c =
  List.iter
    (fun name ->
      if not (has_plugin c name) then
        match c.acquire_instance name with
        | Some inst -> (
          try ignore (attach_instance c inst)
          with Injection_failed e ->
            Log.warn (fun m -> m "failed to inject %s: %s" name e))
        | None -> ())
    c.local_params.TP.plugins_to_inject

(* ------------------------------------------------------------------ *)
(* Plugin exchange over the connection (Section 3.4)                    *)
(* ------------------------------------------------------------------ *)

let handle_plugin_validate c ~name ~formula =
  match c.provide_plugin name ~formula with
  | Some (compressed, proof) ->
    Log.info (fun m ->
        m "providing plugin %s (%d bytes compressed, %d bytes of proofs)" name
          (String.length compressed) (String.length proof));
    (* authentication paths are longer than an MTU, so the proof bundle
       travels on the plugin stream ahead of the bytecode: a small
       PLUGIN_PROOF frame announces it *)
    Queue.push
      (F.Plugin_proof { plugin = name; proof = "stream" })
      c.ctrl;
    let sb = Quic.Sendbuf.create () in
    let framed = Buffer.create (String.length proof + String.length compressed + 4) in
    Buffer.add_int32_be framed (Int32.of_int (String.length proof));
    Buffer.add_string framed proof;
    Buffer.add_string framed compressed;
    Quic.Sendbuf.write sb (Buffer.contents framed);
    Quic.Sendbuf.finish sb;
    Hashtbl.replace c.plugin_out name sb;
    wake c
  | None ->
    Queue.push (F.Plugin_proof { plugin = name; proof = "" }) c.ctrl;
    wake c

let handle_plugin_chunk c ~name ~offset ~fin ~data =
  let rb, acc =
    match Hashtbl.find_opt c.plugin_in name with
    | Some t -> t
    | None ->
      let t = (Quic.Recvbuf.create (), Buffer.create 4096) in
      Hashtbl.replace c.plugin_in name t;
      t
  in
  Quic.Recvbuf.insert rb ~offset:(Int64.to_int offset) ~fin data;
  Buffer.add_string acc (Quic.Recvbuf.read rb);
  if Quic.Recvbuf.is_finished rb then begin
    Hashtbl.remove c.plugin_in name;
    let blob = Buffer.contents acc in
    let proof, compressed =
      if String.length blob >= 4 then begin
        let plen = Int32.to_int (String.get_int32_be blob 0) in
        if plen >= 0 && 4 + plen <= String.length blob then
          ( String.sub blob 4 plen,
            String.sub blob (4 + plen) (String.length blob - 4 - plen) )
        else ("", blob)
      end
      else ("", blob)
    in
    match Compress.Lzss.decompress compressed with
    | exception Compress.Lzss.Corrupt ->
      Log.warn (fun m -> m "plugin %s: corrupt transfer" name)
    | bytes -> (
      match Plugin.deserialize bytes with
      | exception Plugin.Malformed msg ->
        Log.warn (fun m -> m "plugin %s: malformed (%s)" name msg)
      | plugin ->
        if plugin.Plugin.name <> name then
          Log.warn (fun m -> m "plugin name mismatch in transfer")
        else if c.verify_plugin ~name ~bytes ~proof then begin
          Log.info (fun m ->
              m "plugin %s verified and stored in the local cache" name);
          (* Remote plugins are not activated on the current connection but
             offered to subsequent ones (Section 3.4). *)
          c.on_plugin_received plugin
        end
        else Log.warn (fun m -> m "plugin %s failed proof verification" name))
  end
