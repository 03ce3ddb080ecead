(* Reference model for [Netsim.Link]: the event-driven drop-tail queue the
   lazy backlog replaced. Every accepted packet schedules two events, a
   drain at [tx_done] that only gives its bytes back to the queue, then
   the arrival. The differential oracle in test_netsim.ml drives it and
   the real link with the same stimulus and compares what comes out.

   [drains] counts executed drain events, so a test can stop this model
   after the same number of non-drain events as the real one. [tx_dones]
   records every serialization end and [quirks] every idle restart while
   a drain due at that instant has not yet run, for coverage checks. *)

module Sim = Netsim.Sim
module Rng = Netsim.Rng
module Fault = Netsim.Fault
module Link = Netsim.Link

type t = {
  sim : Sim.t;
  delay : Sim.time;
  rate_bps : float;
  loss : float;
  buffer : int;
  ecn_threshold : int;
  rng : Rng.t;
  fault : Fault.t option;
  mutable busy_until : Sim.time;
  mutable queued_bytes : int;
  stats : Link.stats;
  mutable drains : int;
  mutable tx_dones : Sim.time list;
  mutable undrained : int;
  mutable quirks : int;
}

let create ~sim ~delay_ms ~rate_mbps ~loss ~rng ?(buffer = 64 * 1024)
    ?(ecn_threshold = 0) ?(faults = Fault.none) () =
  {
    sim;
    delay = Sim.of_ms delay_ms;
    rate_bps = rate_mbps *. 1e6;
    loss;
    buffer;
    ecn_threshold;
    rng;
    fault = (if Fault.is_none faults then None else Some (Fault.create ~rng faults));
    busy_until = 0L;
    queued_bytes = 0;
    stats =
      { Link.sent = 0; delivered = 0; random_losses = 0; queue_drops = 0;
        bytes_delivered = 0; ce_marked = 0; ge_losses = 0; blackout_drops = 0;
        duplicated = 0; reordered = 0; corrupted = 0; queue_hwm = 0 };
    drains = 0;
    tx_dones = [];
    undrained = 0;
    quirks = 0;
  }

let tx_time t size =
  if t.rate_bps <= 0. then 0L
  else Int64.of_float (float_of_int (size * 8) /. t.rate_bps *. 1e9)

let enqueue t ~size ~extra_delay ~corrupt deliver =
  let now = Sim.now t.sim in
  let in_service = t.busy_until > now in
  let backlog = if in_service then t.queued_bytes else 0 in
  if in_service && backlog + size > t.buffer then
    t.stats.queue_drops <- t.stats.queue_drops + 1
  else begin
    let ce = t.ecn_threshold > 0 && backlog + size > t.ecn_threshold in
    if ce then t.stats.ce_marked <- t.stats.ce_marked + 1;
    if (not in_service) && t.undrained > 0 then t.quirks <- t.quirks + 1;
    t.undrained <- t.undrained + 1;
    let start = if in_service then t.busy_until else now in
    let tx_done = Int64.add start (tx_time t size) in
    t.tx_dones <- tx_done :: t.tx_dones;
    t.queued_bytes <- (if in_service then t.queued_bytes else 0) + size;
    if t.queued_bytes > t.stats.queue_hwm then
      t.stats.queue_hwm <- t.queued_bytes;
    t.busy_until <- tx_done;
    let arrival = Int64.add (Int64.add tx_done t.delay) extra_delay in
    ignore
      (Sim.schedule t.sim ~delay:(Int64.sub tx_done now) (fun () ->
           t.drains <- t.drains + 1;
           t.undrained <- t.undrained - 1;
           t.queued_bytes <- t.queued_bytes - size));
    ignore
      (Sim.schedule t.sim ~delay:(Int64.sub arrival now) (fun () ->
           t.stats.delivered <- t.stats.delivered + 1;
           t.stats.bytes_delivered <- t.stats.bytes_delivered + size;
           deliver ~ce ~corrupt))
  end

let send_full t ~size deliver =
  t.stats.sent <- t.stats.sent + 1;
  if t.loss > 0. && Rng.bool t.rng t.loss then
    t.stats.random_losses <- t.stats.random_losses + 1
  else
    match t.fault with
    | None -> enqueue t ~size ~extra_delay:0L ~corrupt:None deliver
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
        enqueue t ~size ~extra_delay:v.extra_delay ~corrupt:v.corrupt deliver;
        if v.duplicate then begin
          t.stats.duplicated <- t.stats.duplicated + 1;
          enqueue t ~size ~extra_delay:0L ~corrupt:None deliver
        end)
