(* Simulator tests: event ordering, cancellation, link timing/loss/queue
   semantics and PRNG determinism. *)

module Sim = Netsim.Sim
module Link = Netsim.Link
module Rng = Netsim.Rng
module Net = Netsim.Net

let check = Alcotest.check

let test_event_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:30L (fun () -> log := 3 :: !log));
  ignore (Sim.schedule sim ~delay:10L (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~delay:20L (fun () -> log := 2 :: !log));
  ignore (Sim.run sim);
  check (Alcotest.list Alcotest.int) "chronological" [ 1; 2; 3 ] (List.rev !log)

let test_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for k = 1 to 5 do
    ignore (Sim.schedule sim ~delay:10L (fun () -> log := k :: !log))
  done;
  ignore (Sim.run sim);
  check (Alcotest.list Alcotest.int) "insertion order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.schedule sim ~delay:10L (fun () -> fired := true) in
  Sim.cancel ev;
  ignore (Sim.run sim);
  check Alcotest.bool "cancelled event skipped" false !fired

let test_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.schedule sim ~delay:10L (fun () -> incr fired));
  ignore (Sim.schedule sim ~delay:100L (fun () -> incr fired));
  ignore (Sim.run ~until:50L sim);
  check Alcotest.int "only events before the horizon" 1 !fired;
  check Alcotest.int64 "clock at horizon" 50L (Sim.now sim);
  ignore (Sim.run sim);
  check Alcotest.int "remaining event runs later" 2 !fired

let test_clock_advances () =
  let sim = Sim.create () in
  let at = ref 0L in
  ignore (Sim.schedule sim ~delay:12345L (fun () -> at := Sim.now sim));
  ignore (Sim.run sim);
  check Alcotest.int64 "now() inside handler" 12345L !at

(* A horizon in the past leaves the clock where it is: an event scheduled
   afterwards runs relative to the furthest time reached. *)
let test_until_never_rewinds () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~delay:100L ignore);
  ignore (Sim.schedule sim ~delay:1000L ignore);
  ignore (Sim.run ~until:500L sim);
  check Alcotest.int64 "at the first horizon" 500L (Sim.now sim);
  ignore (Sim.run ~until:200L sim);
  check Alcotest.int64 "an earlier horizon keeps the clock" 500L (Sim.now sim);
  let at = ref 0L in
  ignore (Sim.schedule sim ~delay:10L (fun () -> at := Sim.now sim));
  ignore (Sim.run sim);
  check Alcotest.int64 "later event relative to the furthest time" 510L !at

(* Random schedules interleaved with cancellations and [until] stops:
   every live event fires exactly once, at its time, in (time, insertion)
   order; no cancelled event fires; the clock never goes back. *)
let heap_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"events always fire in time order"
       QCheck2.Gen.(
         list_size (int_range 1 200)
           (triple (int_range 0 100000) (int_range 0 4) (int_range 0 4)))
       (fun ops ->
         let sim = Sim.create () in
         let fired = ref [] and expected = ref [] in
         let clock_ok = ref true and last = ref 0L in
         let observe () =
           if Sim.now sim < !last then clock_ok := false;
           last := Sim.now sim
         in
         List.iteri
           (fun k (d, cancel, stop) ->
             let at = Int64.add (Sim.now sim) (Int64.of_int d) in
             let ev =
               Sim.schedule sim ~delay:(Int64.of_int d) (fun () ->
                   observe ();
                   fired := (Sim.now sim, k) :: !fired)
             in
             if cancel = 0 then Sim.cancel ev else expected := (at, k) :: !expected;
             if stop = 0 then begin
               let until = Int64.add (Sim.now sim) (Int64.of_int (d / 3)) in
               ignore (Sim.run ~until sim);
               observe ()
             end)
           ops;
         ignore (Sim.run sim);
         observe ();
         let fired = List.rev !fired in
         !clock_ok && fired = List.sort compare !expected))

(* ------------------------------ rng ---------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  let seq r = List.init 50 (fun _ -> Rng.next_int64 r) in
  check Alcotest.bool "same seed, same stream" true (seq a = seq b)

let test_rng_split_independent () =
  let a = Rng.create 42L in
  let c = Rng.split a in
  check Alcotest.bool "split stream differs" true
    (Rng.next_int64 a <> Rng.next_int64 c)

let rng_float_range =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"rng floats in [0,1)"
       QCheck2.Gen.(map Int64.of_int (int_range min_int max_int))
       (fun seed ->
         let r = Rng.create seed in
         List.for_all
           (fun _ ->
             let f = Rng.float r in
             f >= 0. && f < 1.)
           (List.init 100 Fun.id)))

(* ------------------------------ link --------------------------------- *)

let mk_link ?(delay_ms = 10.) ?(rate_mbps = 8.) ?(loss = 0.) ?(buffer = 10_000) sim =
  Link.create ~sim ~delay_ms ~rate_mbps ~loss ~rng:(Rng.create 1L) ~buffer ()

let test_link_delay_and_serialization () =
  let sim = Sim.create () in
  (* 8 Mbps -> 1000 bytes take 1 ms serialization + 10 ms propagation *)
  let link = mk_link sim in
  let arrival = ref 0L in
  Link.send link ~size:1000 (fun () -> arrival := Sim.now sim);
  ignore (Sim.run sim);
  check Alcotest.int64 "1ms tx + 10ms prop" (Sim.of_ms 11.) !arrival

let test_link_queueing () =
  let sim = Sim.create () in
  let link = mk_link sim in
  let arrivals = ref [] in
  for _ = 1 to 3 do
    Link.send link ~size:1000 (fun () -> arrivals := Sim.now sim :: !arrivals)
  done;
  ignore (Sim.run sim);
  check
    (Alcotest.list Alcotest.int64)
    "back-to-back serialization"
    [ Sim.of_ms 11.; Sim.of_ms 12.; Sim.of_ms 13. ]
    (List.rev !arrivals)

let test_link_queue_drop () =
  let sim = Sim.create () in
  let link = mk_link ~buffer:2500 sim in
  let delivered = ref 0 in
  for _ = 1 to 5 do
    Link.send link ~size:1000 (fun () -> incr delivered)
  done;
  ignore (Sim.run sim);
  let stats = Link.stats link in
  check Alcotest.int "drop-tail kicked in" 3 stats.Link.queue_drops;
  check Alcotest.int "survivors delivered" 2 !delivered

let test_link_loss_deterministic () =
  let run () =
    let sim = Sim.create () in
    let link =
      Link.create ~sim ~delay_ms:1. ~rate_mbps:1000. ~loss:0.3
        ~rng:(Rng.create 7L) ()
    in
    let delivered = ref 0 in
    for _ = 1 to 100 do
      Link.send link ~size:100 (fun () -> incr delivered)
    done;
    ignore (Sim.run sim);
    !delivered
  in
  let a = run () and b = run () in
  check Alcotest.int "same seed, same losses" a b;
  check Alcotest.bool "some but not all lost" true (a > 0 && a < 100)

let test_net_routing () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let l = mk_link ~delay_ms:1. sim in
  Net.add_route net ~src:1 ~dst:2 [ l ];
  let got = ref None in
  Net.attach net 2 (fun dg -> got := Some dg.Net.payload);
  Net.send net { Net.src = 1; dst = 2; size = 100; payload = Net.Raw "hello" };
  (* no route in the other direction: silently dropped *)
  Net.send net { Net.src = 2; dst = 1; size = 100; payload = Net.Raw "nope" };
  ignore (Sim.run sim);
  (match !got with
  | Some (Net.Raw "hello") -> ()
  | _ -> Alcotest.fail "payload not delivered");
  check Alcotest.int "no pending events" 0 (Sim.pending sim)

let test_topology_fig7 () =
  let topo =
    Netsim.Topology.dual_path ~seed:1L
      { Netsim.Topology.d_ms = 10.; bw_mbps = 10.; loss = 0. }
      { Netsim.Topology.d_ms = 20.; bw_mbps = 5.; loss = 0. }
  in
  check Alcotest.int "two client addresses" 2
    (List.length topo.Netsim.Topology.client_addrs);
  check Alcotest.int "two mid-link pairs" 2
    (List.length topo.Netsim.Topology.mid_links);
  (* both paths reach the server *)
  let sim = topo.Netsim.Topology.sim in
  let net = topo.Netsim.Topology.net in
  let hits = ref 0 in
  Net.attach net topo.Netsim.Topology.server_addr (fun _ -> incr hits);
  List.iter
    (fun src ->
      Net.send net
        { Net.src; dst = topo.Netsim.Topology.server_addr; size = 100;
          payload = Net.Raw "x" })
    topo.Netsim.Topology.client_addrs;
  ignore (Sim.run sim);
  check Alcotest.int "both paths deliver" 2 !hits

(* ------------------------------ fault -------------------------------- *)

module Fault = Netsim.Fault

(* drain a fault's verdict sequence at a fixed packet cadence *)
let judge_seq ?(n = 500) ~seed profile =
  let f = Fault.create ~rng:(Rng.create seed) profile in
  List.init n (fun k -> Fault.judge f ~now:(Sim.of_ms (float_of_int k)))

let test_fault_deterministic () =
  let profile =
    {
      Fault.ge = Some (Fault.gilbert_elliott ());
      reorder = Some { Fault.prob = 0.2; max_extra = Sim.of_ms 25. };
      duplicate = 0.1;
      corrupt = 0.1;
      blackouts = [ (Sim.of_ms 100., Sim.of_ms 200.) ];
    }
  in
  check Alcotest.bool "same seed, same verdicts" true
    (judge_seq ~seed:42L profile = judge_seq ~seed:42L profile);
  check Alcotest.bool "different seed, different verdicts" true
    (judge_seq ~seed:42L profile <> judge_seq ~seed:43L profile)

(* each fault draws from its own stream: enabling one must not shift
   another's pattern for the same seed *)
let test_fault_stream_independence () =
  let ge_only = { Fault.none with Fault.ge = Some (Fault.gilbert_elliott ()) } in
  let everything =
    { ge_only with
      Fault.reorder = Some { Fault.prob = 0.3; max_extra = Sim.of_ms 25. };
      duplicate = 0.3;
      corrupt = 0.3 }
  in
  let drops p = List.map (fun v -> v.Fault.drop) (judge_seq ~seed:9L p) in
  check Alcotest.bool "ge pattern unmoved by other faults" true
    (drops ge_only = drops everything);
  (* a condemned packet masks the other verdict fields, so the duplicate
     pattern is only observable on packets the ge generator lets through *)
  let dup_only = { Fault.none with Fault.duplicate = 0.3 } in
  check Alcotest.bool "duplicate pattern unmoved by ge" true
    (List.for_all2
       (fun alone composed ->
         composed.Fault.drop <> None
         || alone.Fault.duplicate = composed.Fault.duplicate)
       (judge_seq ~seed:9L dup_only)
       (judge_seq ~seed:9L everything))

let test_fault_reorder_bounded () =
  let max_extra = Sim.of_ms 20. in
  let p =
    { Fault.none with Fault.reorder = Some { Fault.prob = 0.5; max_extra } }
  in
  let vs = judge_seq ~seed:3L p in
  check Alcotest.bool "some packets reordered" true
    (List.exists (fun v -> v.Fault.extra_delay > 0L) vs);
  check Alcotest.bool "extra delay within the bound" true
    (List.for_all
       (fun v -> v.Fault.extra_delay >= 0L && v.Fault.extra_delay < max_extra)
       vs)

let test_fault_blackout_window () =
  let p =
    { Fault.none with Fault.blackouts = [ (Sim.of_ms 10., Sim.of_ms 20.) ] }
  in
  let f = Fault.create ~rng:(Rng.create 1L) p in
  check Alcotest.bool "before" false (Fault.in_blackout f ~now:(Sim.of_ms 5.));
  check Alcotest.bool "inside" true (Fault.in_blackout f ~now:(Sim.of_ms 15.));
  check Alcotest.bool "after" false (Fault.in_blackout f ~now:(Sim.of_ms 25.));
  let drop now = (Fault.judge f ~now).Fault.drop in
  check Alcotest.bool "packet inside the window eaten" true
    (drop (Sim.of_ms 15.) = Some Fault.Blackout);
  check Alcotest.bool "packets outside pass" true
    (drop (Sim.of_ms 5.) = None && drop (Sim.of_ms 25.) = None)

let test_link_duplicate_delivers_twice () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~delay_ms:1. ~rate_mbps:8. ~loss:0.
      ~rng:(Rng.create 1L) ~faults:{ Fault.none with Fault.duplicate = 1.0 } ()
  in
  let delivered = ref 0 in
  Link.send link ~size:1000 (fun () -> incr delivered);
  ignore (Sim.run sim);
  let s = Link.stats link in
  check Alcotest.int "one copy injected" 1 s.Link.duplicated;
  check Alcotest.int "both copies arrive" 2 !delivered;
  check Alcotest.int "delivered counter agrees" 2 s.Link.delivered

let test_link_queue_hwm () =
  let sim = Sim.create () in
  let link = mk_link sim in
  check Alcotest.int "idle link: zero" 0 (Link.stats link).Link.queue_hwm;
  for _ = 1 to 5 do
    Link.send link ~size:1000 (fun () -> ())
  done;
  ignore (Sim.run sim);
  check Alcotest.int "burst backlog recorded" 5000
    (Link.stats link).Link.queue_hwm;
  (* drained: the high-water mark persists after the queue empties *)
  Link.send link ~size:1000 (fun () -> ());
  ignore (Sim.run sim);
  check Alcotest.int "mark persists" 5000 (Link.stats link).Link.queue_hwm

let test_corrupt_string_deterministic () =
  let s = String.make 64 'a' in
  let d = 0x1234_5678_9abcL in
  let c1 = Net.corrupt_string d s and c2 = Net.corrupt_string d s in
  check Alcotest.bool "deterministic" true (c1 = c2);
  check Alcotest.int "length preserved" (String.length s) (String.length c1);
  check Alcotest.bool "payload damaged" true (c1 <> s);
  check Alcotest.bool "descriptor selects the damage" true
    (Net.corrupt_string 0x9999L s <> c1)

(* ---------------------- lazy backlog oracle ------------------------- *)

(* The link drains its backlog lazily; [Link_ref] is the event-driven
   queue it replaced, with one drain event per packet. Both run the same
   seeded stimulus on their own simulator: sends pre-scheduled at times
   that land on serialization ends, sends between runs, re-sends from
   inside deliveries, and [until] and [max_events] stops. Deliveries
   [(id, time, ce, corrupt)], the full [Link.stats], the clock and the
   executed-event counts (less the reference's drains) must agree after
   every step. *)

type side = {
  sim : Sim.t;
  send : size:int -> (ce:bool -> corrupt:int64 option -> unit) -> unit;
  stats : unit -> Link.stats;
  drains : unit -> int;
  log : (int * int64 * bool * int64 option) list ref;
}

type step = Send of int | Until of int64 | Max of int

type trace = {
  delay_ms : float;
  rate_mbps : float;
  loss : float;
  buffer : int;
  ecn : int;
  faults : Fault.profile;
  timed : (int64 * int) list;  (* pre-scheduled sends: absolute time, size *)
  echo : int;  (* a delivery whose id divides by [echo] sends again *)
  steps : step list;
}

let gen_trace st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let rate_mbps = pick [| 0.; 8.; 8.; 1.6; 80. |] in
  let base = pick [| 125; 500; 1000 |] in
  let sizes = [| base; base; 2 * base; 3 * base |] in
  (* serialization time of [base]: the grid on which sends and delays are
     placed, so that they keep landing on serialization ends *)
  let unit_ns =
    if rate_mbps <= 0. then 1000
    else int_of_float (float_of_int (base * 8) /. (rate_mbps *. 1e6) *. 1e9)
  in
  let delay_ms =
    float_of_int (unit_ns * pick [| 0; 0; 1; 3 |]) /. 1e6
  in
  let faults =
    {
      Fault.none with
      Fault.duplicate = pick [| 0.; 0.; 0.2 |];
      reorder =
        pick
          [| None; None;
             Some { Fault.prob = 0.2; max_extra = Int64.of_int (2 * unit_ns) } |];
    }
  in
  let timed =
    List.init (Random.State.int st 30) (fun _ ->
        (Int64.of_int (unit_ns * Random.State.int st 40), pick sizes))
  in
  let steps =
    List.init (5 + Random.State.int st 30) (fun _ ->
        match Random.State.int st 3 with
        | 0 -> Send (pick sizes)
        | 1 -> Until (Int64.of_int (unit_ns * Random.State.int st 4))
        | _ -> Max (1 + Random.State.int st 4))
  in
  {
    delay_ms;
    rate_mbps;
    loss = pick [| 0.; 0.; 0.1 |];
    buffer = base * pick [| 2; 4; 64 |];
    ecn = base * pick [| 0; 1; 2 |];
    faults;
    timed;
    echo = pick [| 0; 2; 3 |];
    steps;
  }

let real_side tr ~seed =
  let sim = Sim.create () in
  let l =
    Link.create ~sim ~delay_ms:tr.delay_ms ~rate_mbps:tr.rate_mbps ~loss:tr.loss
      ~rng:(Rng.create seed) ~buffer:tr.buffer ~ecn_threshold:tr.ecn
      ~faults:tr.faults ()
  in
  { sim; send = Link.send_full l; stats = (fun () -> Link.stats l);
    drains = (fun () -> 0); log = ref [] }

let ref_side tr ~seed =
  let sim = Sim.create () in
  let l =
    Link_ref.create ~sim ~delay_ms:tr.delay_ms ~rate_mbps:tr.rate_mbps
      ~loss:tr.loss ~rng:(Rng.create seed) ~buffer:tr.buffer
      ~ecn_threshold:tr.ecn ~faults:tr.faults ()
  in
  ( { sim; send = Link_ref.send_full l; stats = (fun () -> l.Link_ref.stats);
      drains = (fun () -> l.Link_ref.drains); log = ref [] },
    l )

(* Wire a side's stimulus; returns the direct-send function. *)
let stimulate sd tr =
  let next_id = ref 0 in
  let rec send size =
    let id = !next_id in
    incr next_id;
    sd.send ~size (fun ~ce ~corrupt ->
        sd.log := (id, Sim.now sd.sim, ce, corrupt) :: !(sd.log);
        if tr.echo > 0 && id mod tr.echo = 0 && id < 400 then send size)
  in
  List.iter
    (fun (at, size) -> ignore (Sim.schedule_at sd.sim ~at (fun () -> send size)))
    tr.timed;
  send

(* Run one step; returns the executed events that are not drains. *)
let run_step sd send = function
  | Send size -> send size; 0
  | Until dt ->
    let d0 = sd.drains () in
    let n = Sim.run ~until:(Int64.add (Sim.now sd.sim) dt) sd.sim in
    n - (sd.drains () - d0)
  | Max k ->
    (* the reference's drains must not count toward the stop *)
    let n = ref 0 and go = ref true in
    while !go && !n < k do
      let d0 = sd.drains () in
      if Sim.run ~max_events:1 sd.sim = 0 then go := false
      else if sd.drains () = d0 then incr n
    done;
    !n

(* Coverage over all traces, so the oracle is known to reach the cases
   the tie rule is about. *)
type coverage = {
  mutable on_tx_done : int;  (* sends landing exactly on a serialization end *)
  mutable in_flight_stops : int;  (* stops between a tx_done and its arrival *)
  mutable zero_rate : int;
  mutable quirks : int;  (* idle restarts with a tied drain still pending *)
  mutable ce : int;
  mutable dup : int;
  mutable reord : int;
  mutable drops : int;
}

let oracle_trace cov seed =
  let st = Random.State.make [| seed |] in
  let tr = gen_trace st in
  let rseed = Int64.of_int (seed + 1) in
  let real = real_side tr ~seed:rseed in
  let rf, rl = ref_side tr ~seed:rseed in
  let send_real = stimulate real tr in
  let counted_send ~size k =
    if List.mem (Sim.now rf.sim) rl.Link_ref.tx_dones then
      cov.on_tx_done <- cov.on_tx_done + 1;
    rf.send ~size k
  in
  let send_ref = stimulate { rf with send = counted_send } tr in
  let compare_sides what n_real n_ref =
    if n_real <> n_ref then
      Alcotest.failf "seed %d, %s: %d events executed, reference %d" seed what
        n_real n_ref;
    if Sim.now real.sim <> Sim.now rf.sim then
      Alcotest.failf "seed %d, %s: clock %Ld, reference %Ld" seed what
        (Sim.now real.sim) (Sim.now rf.sim);
    if !(real.log) <> !(rf.log) then
      Alcotest.failf "seed %d, %s: deliveries differ (%d vs %d)" seed what
        (List.length !(real.log)) (List.length !(rf.log));
    if real.stats () <> rf.stats () then
      Alcotest.failf "seed %d, %s: link stats differ" seed what
  in
  List.iteri
    (fun i step ->
      let a = run_step real send_real step in
      let b = run_step rf send_ref step in
      (match step with
      | Send _ -> ()
      | Until _ | Max _ ->
        let now = Sim.now rf.sim in
        if List.exists (fun t -> t <= now && Int64.add t rl.Link_ref.delay > now)
             rl.Link_ref.tx_dones
        then cov.in_flight_stops <- cov.in_flight_stops + 1);
      compare_sides (Printf.sprintf "step %d" i) a b)
    tr.steps;
  let a = Sim.run real.sim in
  let d0 = rf.drains () in
  let b = Sim.run rf.sim in
  compare_sides "final run" a (b - (rf.drains () - d0));
  let s = rf.stats () in
  if tr.rate_mbps <= 0. then cov.zero_rate <- cov.zero_rate + 1;
  cov.quirks <- cov.quirks + rl.Link_ref.quirks;
  cov.ce <- cov.ce + s.Link.ce_marked;
  cov.dup <- cov.dup + s.Link.duplicated;
  cov.reord <- cov.reord + s.Link.reordered;
  cov.drops <- cov.drops + s.Link.queue_drops

let test_lazy_backlog_oracle () =
  let cov =
    { on_tx_done = 0; in_flight_stops = 0; zero_rate = 0; quirks = 0; ce = 0;
      dup = 0; reord = 0; drops = 0 }
  in
  for seed = 0 to 499 do
    oracle_trace cov seed
  done;
  let covered name n =
    if n = 0 then Alcotest.failf "oracle traces never reached: %s" name
  in
  covered "sends on a tx_done" cov.on_tx_done;
  covered "stops between tx_done and arrival" cov.in_flight_stops;
  covered "rate 0" cov.zero_rate;
  covered "idle restart with a tied drain pending" cov.quirks;
  covered "ECN marks" cov.ce;
  covered "duplication" cov.dup;
  covered "reordering" cov.reord;
  covered "queue drops" cov.drops

(* ------------------------- simulator cost ---------------------------- *)

module Topology = Netsim.Topology

(* A GET of [size] bytes over the single-path topology (100 Mbps, 5 ms, no
   loss); returns the events the simulator executed, from the handshake
   to the last byte, and the datagrams the network delivered. *)
let transfer_events ~size =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 5.; bw_mbps = 100.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server =
    Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr
      ~seed:0x5EedL ()
  in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs)
      ~seed:0xC11e47L ()
  in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            Pquic.Connection.write_stream c ~id ~fin:true (String.make size 'x')));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
  in
  let fin = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET /file");
  conn.Pquic.Connection.on_stream_data <- (fun _ _ ~fin:f -> if f then fin := true);
  let events = ref 0 in
  while (not !fin) && Sim.pending sim > 0 do
    events := !events + Sim.run ~max_events:1 sim
  done;
  if not !fin then Alcotest.fail "transfer did not complete";
  (!events, (Net.stats net).Net.delivered)

(* Event budget: per delivered datagram, one arrival per link of the
   3-link route plus the sender's delay-0 wake, about 4.0 (4.08 here,
   with the handshake and alarms). A drain event per link (7.18) would
   trip the gate. *)
let test_events_per_datagram () =
  let events, delivered = transfer_events ~size:(2 * 1024 * 1024) in
  let per = float_of_int events /. float_of_int (max 1 delivered) in
  if per > 4.1 then
    Alcotest.failf "%.2f events per delivered datagram (%d / %d), over 4.1" per
      events delivered

(* Running pre-scheduled events allocates only the boxed clock, once per
   distinct instant (3 words): popping returns no option, and the heap
   holds native ints. *)
let test_alloc_run_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  let fn () = incr count in
  let n = 10_000 and instants = 100 in
  for i = 0 to n - 1 do
    ignore (Sim.schedule sim ~delay:(Int64.of_int (1 + (i mod instants))) fn)
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let ran = Sim.run sim in
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "all ran" n ran;
  check Alcotest.int "all fired" n !count;
  if words > float_of_int (3 * instants) +. 16. then
    Alcotest.failf "running %d events over %d instants allocated %.0f minor \
                    words" n instants words

(* Minor words per datagram through a 3-link route: the arrival event and
   its closure per link, and the route walk in [Net.send]. Measured at
   103 words (190 with a drain event per link); the ceiling is twice the
   measured figure. *)
let test_alloc_per_packet () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let link d =
    Link.create ~sim ~delay_ms:d ~rate_mbps:100. ~loss:0. ~rng:(Rng.create 3L) ()
  in
  Net.add_route net ~src:1 ~dst:2 [ link 0.1; link 5.; link 0.1 ];
  let got = ref 0 in
  Net.attach net 2 (fun _ -> incr got);
  let dg = { Net.src = 1; dst = 2; size = 1252; payload = Net.Raw "x" } in
  let burst () =
    for _ = 1 to 20 do
      Net.send net dg
    done;
    ignore (Sim.run sim)
  in
  burst ();
  Gc.minor ();
  let got0 = !got in
  let w0 = Gc.minor_words () in
  for _ = 1 to 50 do
    burst ()
  done;
  let words = Gc.minor_words () -. w0 in
  let pkts = !got - got0 in
  check Alcotest.int "every datagram delivered" 1000 pkts;
  let per = words /. float_of_int pkts in
  if per > 206. then
    Alcotest.failf "%.1f minor words per datagram over a 3-link route" per

(* ------------------------- middleboxes ------------------------------- *)

module Mbox = Netsim.Middlebox

let ms = Sim.of_ms

let nat_dg ~src ~dst = { Net.src; dst; size = 100; payload = Net.Raw "x" }

let expect_pass name = function
  | Ok (d : Net.datagram) -> d
  | Error e -> Alcotest.failf "%s dropped: %s" name e

let expect_drop name cause = function
  | Ok (_ : Net.datagram) -> Alcotest.failf "%s passed the middlebox" name
  | Error e -> check Alcotest.string name cause e

let test_nat_rewrite_and_expiry () =
  let n = Mbox.nat ~inside:1 ~public_base:500 ~idle_timeout:(ms 50.) () in
  let up = Mbox.nat_up n and down = Mbox.nat_down n in
  let d = expect_pass "outbound" (up.Net.process ~now:0L (nat_dg ~src:1 ~dst:100)) in
  check Alcotest.int "rewritten to first public" 500 d.Net.src;
  let d =
    expect_pass "reply" (down.Net.process ~now:(ms 5.) (nat_dg ~src:100 ~dst:500))
  in
  check Alcotest.int "rewritten back inside" 1 d.Net.dst;
  (* inbound traffic does not refresh the idle clock, so the binding is
     dead 50ms after the last *outbound* packet *)
  expect_drop "reply after idle expiry" "expired_binding"
    (down.Net.process ~now:(ms 100.) (nat_dg ~src:100 ~dst:500));
  let d =
    expect_pass "outbound after expiry"
      (up.Net.process ~now:(ms 100.) (nat_dg ~src:1 ~dst:100))
  in
  check Alcotest.int "silent rebind to next public" 501 d.Net.src;
  check Alcotest.int "rebinding accounted" 1 (Mbox.nat_rebindings n);
  expect_drop "reply to stale public" "no_binding"
    (down.Net.process ~now:(ms 101.) (nat_dg ~src:100 ~dst:500));
  let d =
    expect_pass "reply to live public"
      (down.Net.process ~now:(ms 101.) (nat_dg ~src:100 ~dst:501))
  in
  check Alcotest.int "live binding delivers inside" 1 d.Net.dst

let test_nat_max_lifetime () =
  let n =
    Mbox.nat ~inside:1 ~public_base:500 ~idle_timeout:(ms 1000.)
      ~max_lifetime:(ms 20.) ()
  in
  let up = Mbox.nat_up n in
  let d = expect_pass "first" (up.Net.process ~now:0L (nat_dg ~src:1 ~dst:100)) in
  check Alcotest.int "first public" 500 d.Net.src;
  let d =
    expect_pass "within lifetime" (up.Net.process ~now:(ms 10.) (nat_dg ~src:1 ~dst:100))
  in
  check Alcotest.int "binding stable" 500 d.Net.src;
  (* activity at 10ms keeps the idle clock happy, but the hard lifetime
     cap rebinds anyway *)
  let d =
    expect_pass "past lifetime" (up.Net.process ~now:(ms 25.) (nat_dg ~src:1 ~dst:100))
  in
  check Alcotest.int "carrier-grade churn rebinds" 501 d.Net.src;
  Mbox.nat_force_expire n;
  let d =
    expect_pass "after force-expire"
      (up.Net.process ~now:(ms 26.) (nat_dg ~src:1 ~dst:100))
  in
  check Alcotest.int "force-expire rebinds" 502 d.Net.src;
  check Alcotest.int "two rebindings" 2 (Mbox.nat_rebindings n)

(* Wire layout of lib/quic/packet.ml: byte0 bit7 = long header, 8-byte
   big-endian DCID at offset 1, SCID at offset 9 on long headers. *)
let long_wire ~dcid ~scid =
  let b = Bytes.make 21 '\000' in
  Bytes.set b 0 (Char.chr 0xc0);
  Bytes.set_int64_be b 1 dcid;
  Bytes.set_int64_be b 9 scid;
  Bytes.to_string b

let short_wire ~dcid =
  let b = Bytes.make 13 '\000' in
  Bytes.set b 0 (Char.chr 0x40);
  Bytes.set_int64_be b 1 dcid;
  Bytes.to_string b

let test_tracker_pinholes () =
  let tr =
    Mbox.flow_tracker
      ~wire_of:(function Net.Raw s -> Some s | _ -> None)
      ()
  in
  let up = Mbox.tracker_up tr and down = Mbox.tracker_down tr in
  let dg ~src ~dst wire =
    { Net.src; dst; size = String.length wire; payload = Net.Raw wire }
  in
  expect_drop "short before any long" "unknown_flow"
    (up.Net.process ~now:0L (dg ~src:1 ~dst:100 (short_wire ~dcid:0xAAL)));
  ignore
    (expect_pass "client long"
       (up.Net.process ~now:0L (dg ~src:1 ~dst:100 (long_wire ~dcid:0xAAL ~scid:0xBBL))));
  check Alcotest.int "one flow tracked" 1 (Mbox.tracker_flows tr);
  ignore
    (expect_pass "client short, learned dcid"
       (up.Net.process ~now:0L (dg ~src:1 ~dst:100 (short_wire ~dcid:0xAAL))));
  expect_drop "client short, foreign dcid" "unknown_cid"
    (up.Net.process ~now:0L (dg ~src:1 ~dst:100 (short_wire ~dcid:0xCCL)));
  (* the reverse direction shares the flow's learned CID set *)
  ignore
    (expect_pass "server short, learned scid"
       (down.Net.process ~now:0L (dg ~src:100 ~dst:1 (short_wire ~dcid:0xBBL))));
  expect_drop "server short, foreign dcid" "unknown_cid"
    (down.Net.process ~now:0L (dg ~src:100 ~dst:1 (short_wire ~dcid:0xDDL)));
  (* server-side long headers pass but never open pinholes *)
  ignore
    (expect_pass "server long passes"
       (down.Net.process ~now:0L (dg ~src:100 ~dst:2 (long_wire ~dcid:0x11L ~scid:0x22L))));
  expect_drop "server long opened no pinhole" "unknown_flow"
    (down.Net.process ~now:0L (dg ~src:100 ~dst:2 (short_wire ~dcid:0x11L)));
  (* payloads the extractor declines pass unexamined *)
  ignore
    (expect_pass "opaque payload"
       (up.Net.process ~now:0L
          { Net.src = 3; dst = 100; size = 4; payload = Net.Ce (Net.Raw "") }))

let test_policer_token_bucket () =
  let p = Mbox.policer ~rate_mbps:0.8 ~burst:1000 () in
  let node = Mbox.policer_node p in
  let dg = { Net.src = 1; dst = 100; size = 500; payload = Net.Raw "x" } in
  let admitted now =
    match node.Net.process ~now dg with Ok _ -> true | Error _ -> false
  in
  check Alcotest.bool "burst admits first" true (admitted 0L);
  check Alcotest.bool "burst admits second" true (admitted 0L);
  check Alcotest.bool "bucket empty" false (admitted 0L);
  (* 0.8 Mbps = 100 bytes/ms: 6ms refills one more 500-byte datagram *)
  check Alcotest.bool "refill admits one" true (admitted (ms 6.));
  check Alcotest.bool "empty again" false (admitted (ms 6.));
  check Alcotest.int "drops accounted" 2 (Mbox.policer_dropped p)

let tests =
  [
    ("sim", [
      Alcotest.test_case "event order" `Quick test_event_order;
      Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
      Alcotest.test_case "cancel" `Quick test_cancel;
      Alcotest.test_case "run until" `Quick test_until;
      Alcotest.test_case "clock advances" `Quick test_clock_advances;
      Alcotest.test_case "until never rewinds" `Quick test_until_never_rewinds;
      heap_property;
    ]);
    ("rng", [
      Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "split" `Quick test_rng_split_independent;
      rng_float_range;
    ]);
    ("link", [
      Alcotest.test_case "delay+serialization" `Quick test_link_delay_and_serialization;
      Alcotest.test_case "queueing" `Quick test_link_queueing;
      Alcotest.test_case "queue drop" `Quick test_link_queue_drop;
      Alcotest.test_case "seeded loss" `Quick test_link_loss_deterministic;
      Alcotest.test_case "routing" `Quick test_net_routing;
      Alcotest.test_case "figure 7 topology" `Quick test_topology_fig7;
    ]);
    ("cost", [
      Alcotest.test_case "events per datagram" `Quick test_events_per_datagram;
    ]);
    ("alloc", [
      Alcotest.test_case "running scheduled events" `Quick test_alloc_run_events;
      Alcotest.test_case "words per datagram, 3 links" `Quick test_alloc_per_packet;
    ]);
    ("fault", [
      Alcotest.test_case "deterministic verdicts" `Quick test_fault_deterministic;
      Alcotest.test_case "stream independence" `Quick test_fault_stream_independence;
      Alcotest.test_case "reorder delay bounded" `Quick test_fault_reorder_bounded;
      Alcotest.test_case "blackout window" `Quick test_fault_blackout_window;
      Alcotest.test_case "duplication" `Quick test_link_duplicate_delivers_twice;
      Alcotest.test_case "queue high-water mark" `Quick test_link_queue_hwm;
      Alcotest.test_case "corruption deterministic" `Quick test_corrupt_string_deterministic;
      Alcotest.test_case "lazy backlog = drain events" `Quick test_lazy_backlog_oracle;
    ]);
    ("middlebox", [
      Alcotest.test_case "nat rewrite and expiry" `Quick test_nat_rewrite_and_expiry;
      Alcotest.test_case "nat max lifetime" `Quick test_nat_max_lifetime;
      Alcotest.test_case "tracker pinholes" `Quick test_tracker_pinholes;
      Alcotest.test_case "policer token bucket" `Quick test_policer_token_bucket;
    ]);
  ]
