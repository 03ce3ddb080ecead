(** Stateful in-path middleboxes packaged as {!Net.node} chains: an
    address-translating NAT with binding expiry, a QUIC-aware stateful
    flow tracker (the QASM enterprise-firewall failure mode: short-header
    datagrams whose DCID never appeared in a client-initiated long header
    on that 4-tuple are dropped), and a token-bucket rate policer.

    All state advances only from the [~now] the network passes in, so
    runs replay bit-identically. *)

(** {2 NAT} *)

type nat

val nat :
  inside:Net.addr ->
  public_base:Net.addr ->
  idle_timeout:Sim.time ->
  ?max_lifetime:Sim.time ->
  unit ->
  nat
(** One inside host, one binding at a time. Public addresses are
    allocated sequentially from [public_base]. A binding expires when the
    inside host stayed silent for [idle_timeout], or unconditionally
    [max_lifetime] after allocation (carrier-grade churn); the next
    outbound packet then silently rebinds to a fresh public address. *)

val nat_up : nat -> Net.node
(** Outbound node: rewrites [src = inside] to the current public address,
    rebinding first if the old binding expired. Never drops. *)

val nat_down : nat -> Net.node
(** Inbound node: rewrites the live public address back to [inside];
    drops traffic to expired ([expired_binding]) or never-allocated
    ([no_binding]) public addresses. Inbound traffic does not refresh the
    idle clock. *)

val nat_rebindings : nat -> int
(** Times an expired binding was replaced by a fresh public address. *)


val nat_force_expire : nat -> unit
(** Age the current binding into the past so the next outbound packet
    rebinds — a deterministic stand-in for waiting out the idle timer. *)

(** {2 Stateful flow tracker} *)

type tracker

val flow_tracker : wire_of:(Net.payload -> string option) -> unit -> tracker
(** [wire_of] extracts the QUIC wire image from a payload ([None] passes
    the datagram unexamined) — supplied by the harness so netsim stays
    free of protocol dependencies. *)

val tracker_up : tracker -> Net.node
(** Client-side direction: long headers open/extend the flow's CID
    pinhole (both DCID and SCID); short headers must match a learned CID
    ([unknown_flow] / [unknown_cid] otherwise). *)

val tracker_down : tracker -> Net.node
(** Server-side direction: long headers pass but never create state;
    short headers are checked like {!tracker_up}. *)

val tracker_flows : tracker -> int
(** Number of tracked 4-tuple flows. *)

(** {2 Token-bucket policer} *)

type policer

val policer : rate_mbps:float -> burst:int -> unit -> policer
(** Token bucket: [burst] bytes of depth refilled at [rate_mbps]. *)

val policer_node : policer -> Net.node
(** Drops ([policed]) datagrams that exceed the bucket. *)

val policer_dropped : policer -> int
