(** Plugin negotiation and the over-the-connection plugin exchange of
    Section 3.4. The transport-neutral lifecycle (instance construction,
    attachment, sanctions) is {!Pluginop.Plugin_host}, bound on
    [Connection]. *)

open Conn_types

val inject_local_plugins : t -> unit
(** Inject the locally available plugins this host wants on the connection
    (its own plugins_to_inject). *)

val negotiate_plugins : t -> unit
(** Once per connection, after handshake + peer transport parameters:
    activate plugins both peers hold, roll back one-sided ones, request
    transfer of the missing ones (Section 3.4). *)

val request_plugin_transfer : t -> string -> unit
(** Ask the peer for a plugin and open its reassembly state: the only way
    {!handle_plugin_chunk} accepts chunks for a name. *)

val handle_plugin_validate : t -> name:string -> formula:string -> unit
(** Peer asked for a plugin with a validation formula: serve the compressed
    bytecode + proof bundle on the plugin stream, or answer with an empty
    PLUGIN_PROOF. *)

val handle_plugin_chunk :
  t -> name:string -> offset:int64 -> fin:bool -> data:string -> unit
(** Reassemble an incoming plugin transfer; on completion decompress,
    deserialize, verify the proof and hand the plugin to the local cache.
    Chunks for a name this side did not request, or whose transfer has
    completed, are dropped. *)
