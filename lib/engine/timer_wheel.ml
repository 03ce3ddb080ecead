(* Indexed binary min-heap of alarms over a Netsim.Sim clock.

   Internals work on the simulator's native-int clock ([Sim.now_ns],
   [Sim.schedule_ns]) so that arm/cancel touch no boxed values. Alarms
   are ordered by (deadline, arm sequence) and each keeps its position
   in [heap] (-1 when disarmed), so re-arm and cancel sift in place.
   Slots past [size] hold the wheel's own sentinel: a stale alarm there
   would keep a closed connection reachable.

   Simulator integration ("drivers"): the wheel maintains the invariant
   that whenever any alarm is armed, a pending simulator event exists at
   a time <= the earliest deadline — and every driver sits at an *exact*
   alarm deadline (present or past), never at a quantised tick. Drivers
   are never cancelled individually (cancelling would still leave the
   dead event in the simulator heap); instead a driver that fires while
   a sooner one already handled the work finds nothing due and only
   reschedules. When the wheel empties completely, all pending drivers
   are cancelled so the simulator heap drains exactly as it would have
   with per-alarm events. *)

type alarm = {
  mutable at : int;  (* deadline, ns; valid while armed or queued *)
  mutable aseq : int;  (* arm sequence, breaks same-deadline ties *)
  mutable idx : int;  (* position in the heap; -1 when disarmed *)
  mutable queued : bool;  (* sitting in an in-progress fire batch *)
  mutable fire : unit -> unit;
}

type counters = {
  arms : int;
  cancels : int;
  fires : int;
  cascades : int;
  drivers : int;
}

type t = {
  sim : Netsim.Sim.t;
  sentinel : alarm;  (* fills every vacated heap and batch slot *)
  mutable heap : alarm array;  (* [0, size) is a min-heap *)
  mutable size : int;
  mutable next_aseq : int;
  (* Pending driver events, strictly ascending by time. New drivers are
     only ever scheduled sooner than the current head, so insertion is a
     cons. *)
  mutable pending_drivers : (int * Netsim.Sim.event) list;
  mutable batch : alarm array;  (* scratch for due alarms, reused *)
  mutable c_arms : int;
  mutable c_cancels : int;
  mutable c_fires : int;
  mutable c_drivers : int;
}

let alarm fire = { at = 0; aseq = 0; idx = -1; queued = false; fire }
let set_fire a fire = a.fire <- fire
let is_armed a = a.idx >= 0
let deadline a = Int64.of_int a.at

let counters t =
  { arms = t.c_arms; cancels = t.c_cancels; fires = t.c_fires;
    cascades = 0; drivers = t.c_drivers }

let create sim =
  {
    sim;
    sentinel = alarm ignore;
    heap = [||];
    size = 0;
    next_aseq = 0;
    pending_drivers = [];
    batch = [||];
    c_arms = 0;
    c_cancels = 0;
    c_fires = 0;
    c_drivers = 0;
  }

let before a b = a.at < b.at || (a.at = b.at && a.aseq < b.aseq)

let place t i a =
  t.heap.(i) <- a;
  a.idx <- i

(* Move [a] up from hole [i] until its parent precedes it. *)
let rec sift_up t i a =
  let p = (i - 1) / 2 in
  if i > 0 && before a t.heap.(p) then begin
    place t i t.heap.(p);
    sift_up t p a
  end
  else place t i a

(* Move [a] down from hole [i] until both children follow it. *)
let rec sift_down t i a =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i a
  else
    let c =
      if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l
    in
    if before t.heap.(c) a then begin
      place t i t.heap.(c);
      sift_down t c a
    end
    else place t i a

(* Re-seat [a] at hole [i] after its key changed either way. *)
let resift t i a =
  if i > 0 && before a t.heap.((i - 1) / 2) then sift_up t i a
  else sift_down t i a

(* [a] copied into an array twice as long, padded with the sentinel. *)
let grow t a =
  let bigger = Array.make (max 16 (2 * Array.length a)) t.sentinel in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let push t a =
  if t.size = Array.length t.heap then t.heap <- grow t t.heap;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) a

(* Take [a] out of the heap: the last alarm fills its hole. *)
let remove t a =
  let i = a.idx in
  a.idx <- -1;
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- t.sentinel;
  if last != a then resift t i last

let cancel_drivers t =
  List.iter (fun (_, ev) -> Netsim.Sim.cancel ev) t.pending_drivers;
  t.pending_drivers <- []

(* Every due alarm carries the driver's own deadline: a driver runs at
   every armed deadline and past deadlines clamp to now. Popping them in
   heap order is therefore arm order. Returns the batch size. *)
let collect_due t ~tnow =
  let n = ref 0 in
  while t.size > 0 && t.heap.(0).at <= tnow do
    let a = t.heap.(0) in
    remove t a;
    a.queued <- true;
    if !n = Array.length t.batch then t.batch <- grow t t.batch;
    t.batch.(!n) <- a;
    incr n
  done;
  !n

let rec schedule_driver t at =
  let ev = Netsim.Sim.schedule_ns t.sim ~at (fun () -> driver_fired t at) in
  t.c_drivers <- t.c_drivers + 1;
  t.pending_drivers <- (at, ev) :: t.pending_drivers

and driver_fired t at =
  (match t.pending_drivers with
  | (d, _) :: rest when d = at -> t.pending_drivers <- rest
  | _ -> ());
  if t.size > 0 then begin
    let n = collect_due t ~tnow:(Netsim.Sim.now_ns t.sim) in
    (* Restore the driver invariant for whatever remains armed before
       running callbacks (callbacks may re-arm; [arm] handles sooner
       deadlines itself). *)
    if t.size > 0 then begin
      let e = t.heap.(0).at in
      match t.pending_drivers with
      | (d, _) :: _ when d <= e -> ()
      | _ -> schedule_driver t e
    end;
    let b = t.batch in
    for i = 0 to n - 1 do
      let a = b.(i) in
      b.(i) <- t.sentinel;
      if a.queued then begin
        a.queued <- false;
        t.c_fires <- t.c_fires + 1;
        a.fire ()
      end
    done;
    (* If the batch left the wheel empty, drop stale drivers so the
       simulator heap drains as with per-alarm events (a stale driver
       executing would advance the clock where a cancelled alarm event
       would merely be skipped). *)
    if t.size = 0 then cancel_drivers t
  end

let arm_ns t a ~at =
  let tnow = Netsim.Sim.now_ns t.sim in
  let at = if at < tnow then tnow else at in
  a.queued <- false;
  a.at <- at;
  a.aseq <- t.next_aseq;
  t.next_aseq <- t.next_aseq + 1;
  if a.idx >= 0 then resift t a.idx a else push t a;
  t.c_arms <- t.c_arms + 1;
  match t.pending_drivers with
  | (d, _) :: _ when d <= at -> ()
  | _ -> schedule_driver t at

let arm t a ~at = arm_ns t a ~at:(Int64.to_int at)

let arm_delay t a ~delay =
  arm_ns t a ~at:(Netsim.Sim.now_ns t.sim + Int64.to_int delay)

let cancel t a =
  a.queued <- false;
  if a.idx >= 0 then begin
    remove t a;
    t.c_cancels <- t.c_cancels + 1;
    (* Nothing armed: let the simulator heap drain as if the wheel never
       existed (stale drivers would otherwise advance the clock where
       per-alarm events would merely be skipped). *)
    if t.size = 0 then cancel_drivers t
  end

(* One wheel per simulator, shared by every endpoint on it and kept in
   the simulator's slot, so it goes when the simulator does. *)
type Netsim.Sim.slot += Wheel of t

let shared sim =
  match Netsim.Sim.slot sim with
  | Wheel w -> w
  | _ ->
    let w = create sim in
    Netsim.Sim.set_slot sim (Wheel w);
    w
