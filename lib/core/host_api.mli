(** The PRE↔host boundary (Section 2.3), PQUIC half: field accessors over
    the QUIC connection, the QUIC-owned extra helpers, and the HOST record
    handed to the transport-neutral machinery in {!Pluginop}. *)

open Conn_types

val get_field : t -> int -> int -> int64
(** [get_field c field index] — read a connection field ({!Api} ids); path
    fields take the path id as index.
    @raise Ebpf.Vm.Helper_failure on an unknown field. *)

val set_field : t -> int -> int -> int64 -> unit
(** Write one of {!Pluginop.Api.writable_fields}; any other field is a policy
    violation. @raise Ebpf.Vm.Helper_failure on a read-only field. *)

val host :
  process_recovered:(t -> string -> unit) ->
  t Pluginop.Types.host
(** PQUIC as a pluginop host: the closures the transport-neutral plugin
    machinery dispatches through (fields, clock, message channel,
    sanction/stats hooks, QUIC-specific helpers). The recover_packet
    helper hands a copy of a FEC-recovered packet image
    [pn(4) || payload] to [process_recovered]. *)
