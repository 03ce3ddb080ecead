(** Discrete-event simulation core: a virtual clock in nanoseconds and a
    binary-heap event queue. Ties break by insertion order, so runs are
    fully deterministic. The clock is a native [int] inside; the public
    {!time} is [int64]. *)

type time = int64
(** Nanoseconds of virtual time. *)

val ns : time
val us : time
val ms : time
val sec : time

val of_ms : float -> time
val of_sec : float -> time
val to_ms : time -> float
val to_sec : time -> float

type event
type t

val create : unit -> t
val now : t -> time

val now_ns : t -> int
(** {!now} as a native int, without boxing. *)

val schedule : t -> delay:time -> (unit -> unit) -> event
(** Run a callback [delay] ns from now. The returned handle can be passed
    to {!cancel}; cancelled events stay in the heap but are skipped. *)

val schedule_at : t -> at:time -> (unit -> unit) -> event
(** Run a callback at absolute time [at]; a past [at] means now. *)

val schedule_ns : t -> at:int -> (unit -> unit) -> event
(** {!schedule_at} on the native-int clock. *)

val cancel : event -> unit

val seq : event -> int
(** The event's insertion rank, which breaks ties between events due at
    the same instant. *)

val passed : t -> at:int -> seq:int -> bool
(** Whether the simulator has gone past the position of an event due at
    [at] with rank [seq]: the last executed event is at or after it. After
    a stop at [until] every event due by the horizon counts as passed. *)

val run : ?until:time -> ?max_events:int -> t -> int
(** Execute events until the queue empties, the clock passes [until], or
    [max_events] have run; returns the number executed. When stopped by
    [until], the clock is left exactly there (or where it was, if [until]
    lies in the past: the clock never goes back) and later events stay
    queued. *)

val pending : t -> int
