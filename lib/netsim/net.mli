(** Datagram network: addresses, static routes (lists of links) and
    delivery to per-address handlers — a best-effort IP/UDP service.
    Payloads are an extensible variant so each protocol stacks its own
    packet type on the simulator.

    Routes may carry chains of stateful in-path {!node}s (see
    [Middlebox]); every send-time drop is accounted with a cause in
    {!stats}. *)

type addr = int

type payload = ..
type payload += Raw of string

type payload += Ce of payload
(** Wraps the payload of a datagram that crossed a router whose queue was
    past the ECN marking threshold. *)

type payload += Corrupt of payload * int64
(** Wraps the payload of a datagram damaged in flight by a link's
    corruption fault; the descriptor deterministically selects the damage
    (see {!corrupt_string}). *)

val corrupt_string : int64 -> string -> string
(** [corrupt_string descr wire] applies the damage encoded by [descr] to
    a wire image: flips 1–3 bytes at descriptor-derived offsets. Pure —
    a replay from the same seed damages the same bits. *)

type datagram = { src : addr; dst : addr; size : int; payload : payload }

type node = {
  node_name : string;
  process : now:Sim.time -> datagram -> (datagram, string) result;
}
(** An in-path middlebox hop, run at send time before the route's links.
    [Ok dg] forwards (the node may have rewritten addresses); [Error
    reason] drops the datagram, accounted as ["mbox:<name>:<reason>"]. *)

type stats = {
  mutable sent : int;       (** datagrams submitted to {!send} *)
  mutable delivered : int;  (** handler invocations (duplicates count) *)
  drops : (string, int) Hashtbl.t;
      (** send-time drop cause -> count: [no_route:src->dst],
          [no_handler:dst], [mbox:<node>:<reason>] *)
}

type t

val create : Sim.t -> t
val sim : t -> Sim.t

val add_route : t -> src:addr -> dst:addr -> Link.t list -> unit
(** Datagrams from [src] to [dst] traverse exactly these links, in order. *)

val route : t -> src:addr -> dst:addr -> Link.t list option
(** The links registered for an exact (src, dst) pair, if any. *)

val add_fallback_route : t -> src:addr -> Link.t list -> unit
(** Links used for any datagram from [src] whose destination has no exact
    route — e.g. a server replying to the shifting public addresses a NAT
    allocates. *)

val interpose : t -> src:addr -> dst:addr -> node list -> unit
(** Install a middlebox chain on the exact (src, dst) route. *)

val interpose_fallback : t -> src:addr -> node list -> unit
(** Install a middlebox chain on the fallback route of [src]. *)

val attach : t -> addr -> (datagram -> unit) -> unit

val send : t -> datagram -> unit
(** Runs the route's middlebox chain, then the links. Send-time drops
    (no route, no handler, middlebox verdicts) are accounted in {!stats};
    losses inside a link stay in that link's own counters. *)

val stats : t -> stats

val drop_summary : t -> string
(** One-line deterministic rendering of {!stats} plus the aggregated
    fault counters of every distinct link on any route — suitable for
    folding into a replay fingerprint. *)
