(** Sharded run queues with batched dispatch.

    Work items are enqueued onto one of N shards; each shard drains in
    simulator-time batches via a single delay-0 event per busy shard,
    so a burst of M datagrams costs O(M / batch) simulator events
    instead of M. Processing order within a shard is FIFO. *)

type 'a t

val create : Netsim.Sim.t -> shards:int -> (int -> 'a -> unit) -> 'a t
(** [create sim ~shards process]: [process shard item] is called for
    each drained item, at most 64 per simulator event; a shard left
    non-empty reschedules itself at delay 0. *)

val shards : 'a t -> int
val enqueue : 'a t -> int -> 'a -> unit
(** [enqueue t i item] queues on shard [i mod shards]. *)

val queued : 'a t -> int
(** Items currently waiting across all shards. *)

val dispatched : 'a t -> int
val batches : 'a t -> int
