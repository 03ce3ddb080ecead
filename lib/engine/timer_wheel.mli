(** Alarm heap driven by a {!Netsim.Sim} clock.

    Alarms sit in an indexed binary min-heap ordered by (deadline, arm
    sequence), and each alarm knows its own heap position: arming,
    re-arming and cancelling are O(log n) sift operations with no
    allocation. The heap keeps at most a handful of simulator events
    ("drivers") pending — always at an exact alarm deadline — instead
    of one event per armed alarm, so a node with a million idle
    connections costs a million heap slots but O(1) simulator events.
    The module keeps the name [Timer_wheel] because the perfbench
    harness names it.

    Determinism contract (relied on by the pquic fingerprint tests):
    drivers only ever fire at exact armed deadlines, and alarms sharing
    a deadline fire in arm order, so replacing per-alarm [Sim.event]s
    with a shared heap does not perturb event interleaving. Alarms armed
    for one instant share the first driver scheduled for it. *)

type t
type alarm

val create : Netsim.Sim.t -> t

val shared : Netsim.Sim.t -> t
(** One wheel per simulator, created on the first call and kept in the
    simulator's {!Netsim.Sim.slot}: all endpoints on a simulator share
    it, and it is collected with the simulator. *)

val alarm : (unit -> unit) -> alarm
(** Allocate an alarm node with the given fire callback. The node is
    reusable forever: arm/cancel/re-arm at will. *)

val set_fire : alarm -> (unit -> unit) -> unit
(** Replace the fire callback (for late binding during record
    construction). *)

val arm : t -> alarm -> at:Netsim.Sim.time -> unit
(** Arm (or re-arm) the alarm to fire at absolute simulated time [at].
    Deadlines in the past clamp to now, matching [Sim.schedule_at].
    Allocation-free once the heap has room for every armed alarm,
    unless the new deadline precedes every pending driver, in which
    case one simulator event is scheduled. *)

val arm_delay : t -> alarm -> delay:Netsim.Sim.time -> unit
(** [arm] at now + delay. *)

val cancel : t -> alarm -> unit
(** Disarm. O(log n), allocation-free, idempotent. A cancelled alarm
    never fires, even if cancellation happens from another alarm's
    callback in the same fire batch. *)

val is_armed : alarm -> bool

val deadline : alarm -> Netsim.Sim.time
(** Deadline of an armed alarm (meaningless when disarmed). *)

type counters = {
  arms : int;
  cancels : int;
  fires : int;
  cascades : int;
      (** always 0: the heap never relinks; kept for readers outside [lib/] *)
  drivers : int;  (** simulator events scheduled on behalf of the wheel *)
}

val counters : t -> counters
