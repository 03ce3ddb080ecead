(* The over-the-connection plugin exchange of Section 3.4
   (PLUGIN_VALIDATE / PLUGIN_PROOF / PLUGIN chunk transfer) together with
   the both-sides plugin negotiation — QUIC wire-format business. The
   lifecycle itself — building instances (PREs verified and compiled),
   attaching them to the protoop registry, sanctioning misbehaving plugins
   — is transport-neutral and lives in [Pluginop.Plugin_host]. *)

module F = Quic.Frame
module TP = Quic.Transport_params
module PH = Pluginop.Plugin_host
open Conn_types

(* ------------------------------------------------------------------ *)
(* Plugin negotiation                                                  *)
(* ------------------------------------------------------------------ *)

(* The transfer's reassembly state exists from the request on: PLUGIN
   chunks for any other name are dropped ([handle_plugin_chunk]). *)
let request_plugin_transfer c name =
  Log.info (fun m -> m "requesting plugin %s from peer" name);
  if not (Hashtbl.mem c.plugin_in name) then
    Hashtbl.replace c.plugin_in name (Quic.Recvbuf.create (), Buffer.create 4096);
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
        if PH.has_plugin c.po name then begin
          if not peer_has then begin
            Log.info (fun m ->
                m "rolling back plugin %s: peer does not hold it" name);
            Pluginop.Dispatch.remove_plugin c.po c name
          end
        end
        else if peer_has then
          match c.acquire_instance name with
          | Some inst -> (
            match PH.attach_instance c.po c inst with
            | _ -> Log.info (fun m -> m "injected local plugin %s" name)
            | exception PH.Injection_failed e ->
              Log.warn (fun m -> m "failed to inject %s: %s" name e))
          | None ->
            (* not cached locally: ask the peer to provide it *)
            request_plugin_transfer c name)
      wanted;
    ignore
      (Pluginop.Dispatch.run_op c.po c Pluginop.Protoop.plugin_negotiated [||])

(* Inject the locally available plugins this host wants on the connection
   (its own plugins_to_inject): local plugins are active from the start so
   e.g. the monitoring plugin records handshake PIs (Section 4.1). Peer
   requests are handled at negotiation time. *)
let inject_local_plugins c =
  List.iter
    (fun name ->
      if not (PH.has_plugin c.po name) then
        match c.acquire_instance name with
        | Some inst -> (
          try ignore (PH.attach_instance c.po c inst)
          with PH.Injection_failed e ->
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
  match Hashtbl.find_opt c.plugin_in name with
  | None ->
    (* not requested, or already complete: a peer cannot make this side
       hold a transfer it did not ask for *)
    Log.debug (fun m -> m "dropping PLUGIN chunk for unrequested %s" name)
  | Some (rb, acc) ->
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
        match Pluginop.Plugin.deserialize bytes with
        | exception Pluginop.Plugin.Malformed msg ->
          Log.warn (fun m -> m "plugin %s: malformed (%s)" name msg)
        | plugin ->
          if plugin.Pluginop.Plugin.name <> name then
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
