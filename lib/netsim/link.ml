(* A unidirectional link fed by a drop-tail router queue, reproducing the
   paper's NetEm (delay, seeded random loss) + HTB (rate limit) setup.

   A packet entering the link is first subjected to the random loss draw
   (NetEm-style, before the queue). It then waits for the transmitter: the
   queue holds at most [buffer] bytes beyond the packet in service —
   arrivals that would overflow it are congestion losses, which the paper
   notes "can still be observed due to the limited bandwidth and router
   buffers" even on lossless links. Serialization takes size*8/rate and
   propagation adds the one-way delay.

   A link may additionally carry a [Fault.profile] — bursty loss,
   reordering, duplication, corruption, blackouts — injected between the
   legacy loss draw and the queue. The legacy draw keeps its original RNG
   and draw positions, and fault streams are derived without advancing it
   ([Rng.stream]), so a link with [Fault.none] behaves bit-identically to
   one built before faults existed.

   The backlog drains lazily: no simulator event fires when a packet
   finishes serialization. Each packet in service or queued is a
   [(tx_done, seq, size)] entry in a FIFO, [seq] being the rank of its
   arrival event, and [enqueue] first subtracts every entry the simulator
   has passed ([Sim.passed]). The drain thus lands exactly where a drain
   event scheduled just before the arrival would have run: an event at
   [tx_done] that was scheduled before the packet still sees it queued.
   When the link is idle, [queued_bytes] restarts at the new packet's
   size, and an entry due at that same instant but not yet passed is
   still subtracted later; that quirk of the event-driven queue is kept,
   as replayed runs depend on it. *)

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable random_losses : int;
  mutable queue_drops : int;
  mutable bytes_delivered : int;
  mutable ce_marked : int;
  mutable ge_losses : int;
  mutable blackout_drops : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable queue_hwm : int;
}

type t = {
  sim : Sim.t;
  delay : int;                    (* one-way propagation delay, ns *)
  rate_bps : float;               (* 0. means infinite *)
  loss : float;                   (* uniform loss probability *)
  buffer : int;                   (* queue capacity in bytes *)
  ecn_threshold : int;            (* mark CE above this backlog; 0 = off *)
  rng : Rng.t;
  fault : Fault.t option;
  mutable busy_until : int;       (* ns *)
  mutable queued_bytes : int;
  mutable backlog : int array;    (* ring of (tx_done, seq, size) triples *)
  mutable head : int;             (* first triple, in triples *)
  mutable pending : int;          (* triples not yet drained *)
  stats : stats;
}

let create ~sim ~delay_ms ~rate_mbps ~loss ~rng ?(buffer = 64 * 1024)
    ?(ecn_threshold = 0) ?(faults = Fault.none) () =
  {
    sim;
    delay = Int64.to_int (Sim.of_ms delay_ms);
    rate_bps = rate_mbps *. 1e6;
    loss;
    buffer;
    ecn_threshold;
    rng;
    fault = (if Fault.is_none faults then None else Some (Fault.create ~rng faults));
    busy_until = 0;
    queued_bytes = 0;
    backlog = Array.make (3 * 16) 0;
    head = 0;
    pending = 0;
    stats =
      { sent = 0; delivered = 0; random_losses = 0; queue_drops = 0;
        bytes_delivered = 0; ce_marked = 0; ge_losses = 0; blackout_drops = 0;
        duplicated = 0; reordered = 0; corrupted = 0; queue_hwm = 0 };
  }

let tx_time t size =
  if t.rate_bps <= 0. then 0
  else int_of_float (float_of_int (size * 8) /. t.rate_bps *. 1e9)

(* Subtract the entries whose serialization the simulator has passed. *)
let drain t =
  let b = t.backlog in
  let cap = Array.length b / 3 in
  let continue = ref true in
  while !continue && t.pending > 0 do
    let j = 3 * t.head in
    if Sim.passed t.sim ~at:b.(j) ~seq:b.(j + 1) then begin
      t.queued_bytes <- t.queued_bytes - b.(j + 2);
      t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
      t.pending <- t.pending - 1
    end
    else continue := false
  done

let push_backlog t ~tx_done ~seq ~size =
  let cap = Array.length t.backlog / 3 in
  if t.pending = cap then begin
    let b = Array.make (6 * cap) 0 in
    let first = cap - t.head in
    Array.blit t.backlog (3 * t.head) b 0 (3 * first);
    Array.blit t.backlog 0 b (3 * first) (3 * t.head);
    t.backlog <- b;
    t.head <- 0
  end;
  let cap = Array.length t.backlog / 3 in
  let k = t.head + t.pending in
  let j = 3 * (if k >= cap then k - cap else k) in
  t.backlog.(j) <- tx_done;
  t.backlog.(j + 1) <- seq;
  t.backlog.(j + 2) <- size;
  t.pending <- t.pending + 1

(* Queue one surviving copy: serialization behind the packet in service,
   then propagation (+ any reorder penalty). *)
let enqueue t ~size ~extra_delay ~corrupt deliver =
  drain t;
  let now = Sim.now_ns t.sim in
  let in_service = t.busy_until > now in
  let backlog = if in_service then t.queued_bytes else 0 in
  if in_service && backlog + size > t.buffer then
    t.stats.queue_drops <- t.stats.queue_drops + 1
  else begin
    let ce = t.ecn_threshold > 0 && backlog + size > t.ecn_threshold in
    if ce then t.stats.ce_marked <- t.stats.ce_marked + 1;
    let start = if in_service then t.busy_until else now in
    let tx_done = start + tx_time t size in
    t.queued_bytes <- backlog + size;
    if t.queued_bytes > t.stats.queue_hwm then
      t.stats.queue_hwm <- t.queued_bytes;
    t.busy_until <- tx_done;
    let arrival = tx_done + t.delay + extra_delay in
    let ev =
      Sim.schedule_ns t.sim ~at:arrival (fun () ->
          t.stats.delivered <- t.stats.delivered + 1;
          t.stats.bytes_delivered <- t.stats.bytes_delivered + size;
          deliver ~ce ~corrupt)
    in
    push_backlog t ~tx_done ~seq:(Sim.seq ev) ~size
  end

(* Submit a packet of [size] bytes; [deliver ~ce ~corrupt] runs at the far
   end for each surviving copy, with [ce] set when the router marked it
   Congestion Experienced and [corrupt] carrying a corruption descriptor
   when the fault layer damaged the payload in flight. *)
let send_full t ~size deliver =
  t.stats.sent <- t.stats.sent + 1;
  if t.loss > 0. && Rng.bool t.rng t.loss then
    t.stats.random_losses <- t.stats.random_losses + 1
  else
    match t.fault with
    | None -> enqueue t ~size ~extra_delay:0 ~corrupt:None deliver
    | Some f ->
      let v = Fault.judge f ~now:(Sim.now t.sim) in
      (match v.drop with
      | Some Fault.Ge_loss -> t.stats.ge_losses <- t.stats.ge_losses + 1
      | Some Fault.Blackout ->
        t.stats.blackout_drops <- t.stats.blackout_drops + 1
      | None ->
        if v.extra_delay > 0L then t.stats.reordered <- t.stats.reordered + 1;
        (match v.corrupt with
        | Some _ -> t.stats.corrupted <- t.stats.corrupted + 1
        | None -> ());
        enqueue t ~size ~extra_delay:(Int64.to_int v.extra_delay)
          ~corrupt:v.corrupt deliver;
        if v.duplicate then begin
          t.stats.duplicated <- t.stats.duplicated + 1;
          (* the copy rides the queue again, undamaged and undelayed *)
          enqueue t ~size ~extra_delay:0 ~corrupt:None deliver
        end)

let send_ecn t ~size deliver =
  send_full t ~size (fun ~ce ~corrupt:_ -> deliver ~ce)

let send t ~size deliver = send_full t ~size (fun ~ce:_ ~corrupt:_ -> deliver ())

let stats t = t.stats
