(* Hierarchical timer wheel over a Netsim.Sim clock.

   Internals work on the simulator's native-int clock ([Sim.now_ns],
   [Sim.schedule_ns]) so that arm/cancel touch no boxed values. Each
   level-k slot covers a window of 2^(16 + 8k) ns; an alarm is parked at
   the deepest level whose window is wider than its remaining delta, in
   the slot its absolute deadline falls in. Within a slot, nodes form an
   intrusive circular doubly-linked list anchored on a sentinel, appended
   at the tail so slot order is arm order.

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
  mutable lvl : int;  (* wheel level while armed *)
  mutable slot : int;  (* wheel slot while armed *)
  mutable armed : bool;
  mutable queued : bool;  (* sitting in an in-progress fire batch *)
  mutable next : alarm;
  mutable prev : alarm;
  mutable fire : unit -> unit;
}

let tick_bits = 16
let slot_bits = 8
let slots_per_level = 1 lsl slot_bits
let slot_mask = slots_per_level - 1
let levels = 5
let max_span = 1 lsl (tick_bits + (slot_bits * levels))

type counters = {
  arms : int;
  cancels : int;
  fires : int;
  cascades : int;
  drivers : int;
}

let occ_words = slots_per_level / 32

type t = {
  sim : Netsim.Sim.t;
  slots : alarm array array;  (* [levels][slots_per_level] sentinels *)
  occ : int array array;  (* [levels][occ_words] slot-occupancy bitmaps,
                             32 slots per word: bit set iff ring non-empty *)
  mins : int array array;  (* [levels][slots] exact min deadline per ring
                              (max_int when empty): [earliest] never walks
                              a chain, so finding the next driver deadline
                              is O(levels) however long the rings grow *)
  counts : int array;  (* armed nodes per level *)
  mutable armed_total : int;
  mutable next_aseq : int;
  (* Pending driver events, strictly ascending by time. New drivers are
     only ever scheduled sooner than the current head, so insertion is a
     cons. *)
  mutable pending_drivers : (int * Netsim.Sim.event) list;
  mutable batch : alarm array;  (* scratch for due nodes, reused *)
  mutable c_arms : int;
  mutable c_cancels : int;
  mutable c_fires : int;
  mutable c_cascades : int;
  mutable c_drivers : int;
}

let mk_node fire =
  let rec a =
    { at = 0; aseq = 0; lvl = 0; slot = 0; armed = false; queued = false;
      next = a; prev = a; fire }
  in
  a

let alarm fire = mk_node fire
let set_fire a fire = a.fire <- fire
let is_armed a = a.armed
let deadline a = Int64.of_int a.at
let armed_count t = t.armed_total

let counters t =
  { arms = t.c_arms; cancels = t.c_cancels; fires = t.c_fires;
    cascades = t.c_cascades; drivers = t.c_drivers }

let create sim =
  {
    sim;
    slots =
      Array.init levels (fun _ ->
          Array.init slots_per_level (fun _ -> mk_node (fun () -> ())));
    occ = Array.init levels (fun _ -> Array.make occ_words 0);
    mins = Array.init levels (fun _ -> Array.make slots_per_level max_int);
    counts = Array.make levels 0;
    armed_total = 0;
    next_aseq = 0;
    pending_drivers = [];
    batch = Array.make 256 (mk_node (fun () -> ()));
    c_arms = 0;
    c_cancels = 0;
    c_fires = 0;
    c_cascades = 0;
    c_drivers = 0;
  }

let level_for delta =
  if delta < 1 lsl (tick_bits + slot_bits) then 0
  else if delta < 1 lsl (tick_bits + (2 * slot_bits)) then 1
  else if delta < 1 lsl (tick_bits + (3 * slot_bits)) then 2
  else if delta < 1 lsl (tick_bits + (4 * slot_bits)) then 3
  else 4

let slot_of lvl place = (place lsr (tick_bits + (slot_bits * lvl))) land slot_mask

let occ_set t lvl slot =
  let o = t.occ.(lvl) in
  o.(slot lsr 5) <- o.(slot lsr 5) lor (1 lsl (slot land 31))

let occ_clear t lvl slot =
  let o = t.occ.(lvl) in
  o.(slot lsr 5) <- o.(slot lsr 5) land lnot (1 lsl (slot land 31))

(* Detach [a] from its slot ring and update per-level accounting. The
   cached ring minimum stays exact: removing the minimum of a non-empty
   ring rescans that ring — the only chain walk outside cascades, and it
   takes removing the current minimum to trigger it. *)
let unlink t a =
  a.prev.next <- a.next;
  a.next.prev <- a.prev;
  a.next <- a;
  a.prev <- a;
  let lvl = a.lvl and slot = a.slot in
  t.counts.(lvl) <- t.counts.(lvl) - 1;
  t.armed_total <- t.armed_total - 1;
  let s = t.slots.(lvl).(slot) in
  if s.next == s then begin
    occ_clear t lvl slot;
    t.mins.(lvl).(slot) <- max_int
  end
  else if a.at <= t.mins.(lvl).(slot) then begin
    let m = ref max_int in
    let cur = ref s.next in
    while !cur != s do
      if !cur.at < !m then m := !cur.at;
      cur := !cur.next
    done;
    t.mins.(lvl).(slot) <- !m
  end

(* Park [a] (deadline already in [a.at]) in the ring for the current
   clock position [tnow]. Deadlines beyond the wheel horizon are parked
   in the farthest level-4 slot (cyclically just behind now) so the
   nearest-slot scan in [earliest] stays correct; they re-sort on
   cascade. *)
let link t a ~tnow =
  let place =
    if a.at - tnow >= max_span then tnow + max_span - 1 else a.at
  in
  let lvl = level_for (place - tnow) in
  let slot = slot_of lvl place in
  let s = t.slots.(lvl).(slot) in
  if s.next == s then occ_set t lvl slot;
  if a.at < t.mins.(lvl).(slot) then t.mins.(lvl).(slot) <- a.at;
  a.lvl <- lvl;
  a.slot <- slot;
  a.prev <- s.prev;
  a.next <- s;
  s.prev.next <- a;
  s.prev <- a;
  t.counts.(lvl) <- t.counts.(lvl) + 1;
  t.armed_total <- t.armed_total + 1

let rec ctz x = if x land 1 = 1 then 0 else 1 + ctz (x lsr 1)

(* First occupied slot at cyclic distance >= 1 from [base] on level
   [lvl], via the occupancy bitmap; -1 if none. On full wrap-around the
   remaining candidate bits in base's own word are all <= base's bit, so
   lowest-bit-first is cyclic order there too. *)
let next_occupied t lvl base =
  let o = t.occ.(lvl) in
  let w0 = base lsr 5 in
  let above = o.(w0) land lnot ((1 lsl ((base land 31) + 1)) - 1) in
  if above <> 0 then (w0 lsl 5) lor ctz above
  else begin
    let res = ref (-1) in
    let w = ref 1 in
    while !res < 0 && !w <= occ_words do
      let word = (w0 + !w) land (occ_words - 1) in
      if o.(word) <> 0 then res := (word lsl 5) lor ctz o.(word);
      incr w
    done;
    !res
  end

(* Smallest remaining deadline. Per level it suffices to consider the
   slot the clock is in plus the first occupied slot after it: placement
   times are monotone in cyclic slot order within a rotation. Cached ring
   minima make each level O(1). *)
let earliest t ~tnow =
  let best = ref max_int in
  for k = 0 to levels - 1 do
    if t.counts.(k) > 0 then begin
      let base = slot_of k tnow in
      if t.mins.(k).(base) < !best then best := t.mins.(k).(base);
      let i = next_occupied t k base in
      if i >= 0 && i <> base && t.mins.(k).(i) < !best then
        best := t.mins.(k).(i)
    end
  done;
  !best

let ensure_batch t n =
  if Array.length t.batch < n then begin
    let bigger = Array.make (2 * n) t.batch.(0) in
    Array.blit t.batch 0 bigger 0 (Array.length t.batch);
    t.batch <- bigger
  end

(* In-place heapsort of batch[0..n) by aseq: same-deadline alarms fire
   in arm order, and O(n log n) even for huge same-tick batches. *)
let sort_batch b n =
  let swap i j =
    let tmp = b.(i) in
    b.(i) <- b.(j);
    b.(j) <- tmp
  in
  let rec sift i limit =
    let l = (2 * i) + 1 in
    if l < limit then begin
      let m = if l + 1 < limit && b.(l + 1).aseq > b.(l).aseq then l + 1 else l in
      if b.(m).aseq > b.(i).aseq then begin
        swap i m;
        sift m limit
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for i = n - 1 downto 1 do
    swap 0 i;
    sift 0 i
  done

(* Splice out the slot the clock sits in at every level (top-down),
   collecting due nodes into the batch and relinking the rest by their
   fresh delta. Returns the batch size. *)
let collect_due t ~tnow =
  let n = ref 0 in
  for k = levels - 1 downto 0 do
    if t.counts.(k) > 0 then begin
      let slot = slot_of k tnow in
      let s = t.slots.(k).(slot) in
      if s.next != s then begin
        let cur = ref s.next in
        (* Reset the sentinel first: relinks into this same slot build a
           fresh ring while we walk the old chain via saved pointers. *)
        s.next <- s;
        s.prev <- s;
        occ_clear t k slot;
        t.mins.(k).(slot) <- max_int;
        while !cur != s do
          let a = !cur in
          let nxt = a.next in
          a.next <- a;
          a.prev <- a;
          t.counts.(k) <- t.counts.(k) - 1;
          t.armed_total <- t.armed_total - 1;
          if a.at <= tnow then begin
            a.armed <- false;
            a.queued <- true;
            ensure_batch t (!n + 1);
            t.batch.(!n) <- a;
            incr n
          end
          else begin
            t.c_cascades <- t.c_cascades + 1;
            link t a ~tnow
          end;
          cur := nxt
        done
      end
    end
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
  if t.armed_total > 0 then begin
    let tnow = Netsim.Sim.now_ns t.sim in
    let n = collect_due t ~tnow in
    (* Restore the driver invariant for whatever remains armed before
       running callbacks (callbacks may re-arm; [arm] handles sooner
       deadlines itself). *)
    if t.armed_total > 0 then begin
      let e = earliest t ~tnow in
      match t.pending_drivers with
      | (d, _) :: _ when d <= e -> ()
      | _ -> schedule_driver t e
    end;
    if n > 0 then begin
      let b = t.batch in
      sort_batch b n;
      for i = 0 to n - 1 do
        let a = b.(i) in
        if a.queued then begin
          a.queued <- false;
          t.c_fires <- t.c_fires + 1;
          a.fire ()
        end
      done
    end;
    (* If the batch left the wheel empty, drop stale drivers so the
       simulator heap drains as with per-alarm events (a stale driver
       executing would advance the clock where a cancelled alarm event
       would merely be skipped). *)
    if t.armed_total = 0 then begin
      List.iter (fun (_, ev) -> Netsim.Sim.cancel ev) t.pending_drivers;
      t.pending_drivers <- []
    end
  end

let arm_ns t a ~at =
  let tnow = Netsim.Sim.now_ns t.sim in
  let at = if at < tnow then tnow else at in
  a.queued <- false;
  if a.armed then unlink t a;
  a.at <- at;
  a.aseq <- t.next_aseq;
  t.next_aseq <- t.next_aseq + 1;
  a.armed <- true;
  link t a ~tnow;
  t.c_arms <- t.c_arms + 1;
  match t.pending_drivers with
  | (d, _) :: _ when d <= at -> ()
  | _ -> schedule_driver t at

let arm t a ~at = arm_ns t a ~at:(Int64.to_int at)

let arm_delay t a ~delay =
  arm_ns t a ~at:(Netsim.Sim.now_ns t.sim + Int64.to_int delay)

let cancel t a =
  a.queued <- false;
  if a.armed then begin
    unlink t a;
    a.armed <- false;
    t.c_cancels <- t.c_cancels + 1;
    if t.armed_total = 0 then begin
      (* Nothing armed: let the simulator heap drain as if the wheel
         never existed (stale drivers would otherwise advance the clock
         where per-alarm events would merely be skipped). *)
      List.iter (fun (_, ev) -> Netsim.Sim.cancel ev) t.pending_drivers;
      t.pending_drivers <- []
    end
  end

(* One wheel per simulator, shared by every endpoint on it. Physical
   equality keyed, small bounded registry (old sims simply fall off). *)
let registry : (Netsim.Sim.t * t) list ref = ref []
let registry_cap = 16

let shared sim =
  let rec find = function
    | [] -> None
    | (s, w) :: _ when s == sim -> Some w
    | _ :: rest -> find rest
  in
  match find !registry with
  | Some w -> w
  | None ->
      let w = create sim in
      let kept =
        if List.length !registry >= registry_cap then
          List.filteri (fun i _ -> i < registry_cap - 1) !registry
        else !registry
      in
      registry := (sim, w) :: kept;
      w
