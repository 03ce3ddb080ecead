(** Plugin memory allocator (Section 2.3): a fixed-size area split into
    constant-size blocks with Θ(1) allocation and release while limiting
    fragmentation (after Kenwright's fixed-size pools). Offsets are
    relative to the area start; the PRE maps the area as a VM region so
    offsets translate directly to bytecode addresses.

    The allocator spans the full [size]: offsets and exhaustion are those of
    a full-size pool. The backing buffer is sized by use instead: it starts
    at 4 KiB (or [size], if smaller) and doubles, up to [size], whenever an
    allocation ends beyond it. *)

type t

val create : ?block_size:int -> size:int -> unit -> t
(** [block_size] defaults to 64 bytes. Allocations larger than one block
    take contiguous blocks. *)

val area : t -> Bytes.t
(** The current backing: it covers every live allocation, and is replaced
    (contents kept) when an allocation grows it, so read it after
    {!alloc}. *)

val size : t -> int
(** The capacity the allocator spans; the backing never exceeds it. *)

val alloc : t -> int -> int option
(** Byte offset of a fresh allocation, or [None] when the pool is
    exhausted — which only hurts the plugin itself. *)

val free : t -> int -> bool
(** [false] when the offset is not the head of a live allocation (double
    free, interior pointer): the caller treats it as an API violation. *)

val reset : t -> unit
(** Wipe contents and allocation state — used when a cached plugin is
    reused on a new connection so nothing leaks between connections
    (Section 2.5). The backing drops back to its initial size. *)

val allocated_bytes : t -> int
