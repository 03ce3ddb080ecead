(** Receiver-side record of received packet numbers, kept as disjoint
    inclusive ranges sorted largest-first — the shape ACK frames need.
    Losses leave permanent holes (retransmissions take fresh packet
    numbers), so the set is bounded to [max_ranges], dropping the oldest
    ranges.

    The ranges are stored flat in a native [int array] that grows on
    demand, and read back by index: range [0] is the newest, range
    [count - 1] the oldest. *)

type t

val create : ?max_ranges:int -> unit -> t
(** [max_ranges] defaults to 256.
    @raise Invalid_argument when it is below 1. *)

val add : t -> int64 -> unit
(** Insert a packet number, merging adjacent ranges. *)

val contains : t -> int64 -> bool
val largest : t -> int64 option
val is_empty : t -> bool

val count : t -> int
(** Number of ranges held. *)

val first : t -> int -> int
val last : t -> int -> int
(** [first t i] and [last t i] bound range [i] (inclusive; [0] is the
    newest). Strictly descending: [last t (i + 1) + 1 < first t i].
    @raise Invalid_argument unless [0 <= i < count t]. *)

val cardinal : t -> int
(** Packet numbers covered. *)

val check_coherent : t -> (unit, string) result
(** Structural invariant: ranges well-formed ([first <= last]), strictly
    descending, non-adjacent (merged). For chaos/invariant harnesses. *)
