(* Deterministic chaos harness: sweeps seeds across adversarial fault
   profiles (bursty loss, reordering, duplication, corruption, blackouts —
   also with the multipath + FEC plugins active) and asserts invariants on
   every run:

     I1 termination  — the transfer resolves: either the payload arrives
                       or the connection leaves the open states before the
                       simulated-time cap (no livelock);
     I2 integrity    — delivered bytes are exactly the requested payload,
                       or the connection closed with a stated reason;
     I3 ack ranges   — both endpoints' ACK ranges stay structurally
                       coherent (disjoint, descending, merged);
     I4 sanctions    — plugin sanction accounting balances: no pluglet is
                       sanctioned (and no builtin fallback fires) just
                       because the network misbehaved;
     I5 replay       — the whole run is bit-identical when replayed from
                       its seed (state, stats, link counters, end time).

   Any violation prints the single seed + profile that reproduces it:

     dune exec bin/chaos.exe -- repro --profile <name> --seed <n>

   `sweep --seeds N` scales the sweep; the Makefile smoke target keeps N
   small, CHAOS_SEEDS=n drives the full sweep. *)

module Sim = Netsim.Sim
module Fault = Netsim.Fault
module Link = Netsim.Link
module Net = Netsim.Net
module Mbox = Netsim.Middlebox
module Topology = Netsim.Topology
module TP = Quic.Transport_params

let pf = Printf.printf
let spf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Fault profiles                                                      *)
(* ------------------------------------------------------------------ *)

type scenario = Plain | Mp_fec (* multipath + FEC plugins active *)

type profile = {
  pname : string;
  scenario : scenario;
  faults : Fault.profile;
  idle_ms : int; (* idle_timeout transport parameter for both endpoints *)
}

let mild_ge = Fault.gilbert_elliott ~p_gb:0.01 ~p_bg:0.4 ~loss_bad:0.3 ()

let profiles =
  let n = Fault.none in
  [
    { pname = "bursty"; scenario = Plain; idle_ms = 3_000;
      faults = { n with ge = Some (Fault.gilbert_elliott ()) } };
    { pname = "reorder"; scenario = Plain; idle_ms = 3_000;
      faults =
        { n with reorder = Some { prob = 0.15; max_extra = Sim.of_ms 30. } } };
    { pname = "duplicate"; scenario = Plain; idle_ms = 3_000;
      faults = { n with duplicate = 0.08 } };
    { pname = "corrupt"; scenario = Plain; idle_ms = 3_000;
      faults = { n with corrupt = 0.05 } };
    { pname = "blackout"; scenario = Plain; idle_ms = 3_000;
      faults = { n with blackouts = [ (Sim.of_ms 100., Sim.of_ms 4_100.) ] } };
    { pname = "mayhem"; scenario = Plain; idle_ms = 3_000;
      faults =
        {
          ge = Some mild_ge;
          reorder = Some { prob = 0.05; max_extra = Sim.of_ms 20. };
          duplicate = 0.02;
          corrupt = 0.01;
          (* a short mid-transfer flap, below the idle timeout: the
             connection typically rides it out and finishes; when the
             other faults also eat the recovery probes it must still end
             in a clean stated close, never a livelock *)
          blackouts = [ (Sim.of_sec 0.2, Sim.of_sec 0.7) ];
        } };
    { pname = "mp-fec"; scenario = Mp_fec; idle_ms = 3_000;
      faults =
        { n with
          ge = Some (Fault.gilbert_elliott ());
          reorder = Some { prob = 0.05; max_extra = Sim.of_ms 20. } } };
  ]

let profile_named name = List.find_opt (fun p -> p.pname = name) profiles

(* A fault-free profile for the pool-0 control cells: the tracker
   failure mode must show without noise from link faults. Not part of
   the legacy sweep. *)
let clean_profile =
  { pname = "clean"; scenario = Plain; idle_ms = 3_000; faults = Fault.none }

(* ------------------------------------------------------------------ *)
(* Middleboxes (the PANTHER-style environment axis of the matrix)      *)
(* ------------------------------------------------------------------ *)

type mbox = No_mbox | Nat | Tracker | Policer | Nat_tracker

let mbox_name = function
  | No_mbox -> "none"
  | Nat -> "nat"
  | Tracker -> "tracker"
  | Policer -> "policer"
  | Nat_tracker -> "nat+tracker"

let mboxes = [ No_mbox; Nat; Tracker; Policer; Nat_tracker ]

(* Resolved middlebox parameters, fixed across the matrix. The NAT's
   max_lifetime is deliberately shorter than any transfer so every NAT
   cell forces genuine mid-transfer rebinding. *)
let nat_public_base = 500
let nat_idle = Sim.of_sec 2.
let nat_lifetime = Sim.of_ms 100.
(* under the ~220ms a clean 100KB transfer takes, so the binding always
   dies mid-transfer *)
let policer_rate_mbps = 2.5
let policer_burst = 18_750

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

let transfer_size = 100_000
let sim_cap = 120. (* seconds of simulated time before declaring livelock *)

type run = {
  completed : bool;           (* payload fully delivered (fin seen) *)
  intact : bool;              (* delivered bytes match the request *)
  received : int;
  client_state : string;
  client_reason : string;
  server_state : string;
  server_reason : string;
  client : Pquic.Connection.stats option;
  server : Pquic.Connection.stats option;
  acks_client : (unit, string) result;
  acks_server : (unit, string) result;
  end_time : Sim.time;
  still_open : bool;
  pending_left : int;
  link_fingerprint : string;
  fault_counts : int * int * int * int * int; (* ge, blackout, dup, reord, corrupt *)
  ext : string;
      (* fingerprint extension — middlebox drop accounting + migration
         stats; "" for legacy runs so their digests stay untouched *)
  drop_sum : string;   (* Net.drop_summary at end of run *)
  nat_rebinds : int;   (* -1 when the cell has no NAT *)
}

let state_string (c : Pquic.Connection.t) =
  match c.Pquic.Connection.state with
  | Pquic.Connection.Handshaking -> "handshaking"
  | Pquic.Connection.Established -> "established"
  | Pquic.Connection.Closing -> "closing"
  | Pquic.Connection.Closed -> "closed"
  | Pquic.Connection.Failed r -> spf "failed(%s)" r

let run_case ~seed ?(mbox = No_mbox) ?scenario ?(cid_pool = 0) (p : profile) =
  let scen = match scenario with Some s -> s | None -> p.scenario in
  let path = { Topology.d_ms = 10.; bw_mbps = 5.; loss = 0. } in
  let topo =
    match scen with
    | Plain -> Topology.single_path ~faults:p.faults ~seed path
    | Mp_fec ->
      Topology.dual_path ~faults:p.faults ~seed path
        { path with Topology.d_ms = 25. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  (* Interpose the cell's middleboxes on the primary path (the client's
     first address); in mp runs the second path stays clean. Chains see
     post-NAT addresses: upstream NAT runs first, downstream NAT last. *)
  let addr1 = List.hd topo.Topology.client_addrs in
  let srv = topo.Topology.server_addr in
  let nat_box =
    match mbox with
    | Nat | Nat_tracker ->
      Some
        (Mbox.nat ~inside:addr1 ~public_base:nat_public_base
           ~idle_timeout:nat_idle ~max_lifetime:nat_lifetime ())
    | _ -> None
  in
  let tracker_box =
    match mbox with
    | Tracker | Nat_tracker ->
      Some
        (Mbox.flow_tracker
           ~wire_of:(function
             | Pquic.Connection.Quic_packet w -> Some w
             | _ -> None)
           ())
    | _ -> None
  in
  let policer_boxes =
    match mbox with
    | Policer ->
      Some
        ( Mbox.policer ~rate_mbps:policer_rate_mbps ~burst:policer_burst (),
          Mbox.policer ~rate_mbps:policer_rate_mbps ~burst:policer_burst () )
    | _ -> None
  in
  let opt f = function Some x -> [ f x ] | None -> [] in
  let up_nodes =
    opt Mbox.nat_up nat_box
    @ opt Mbox.tracker_up tracker_box
    @ opt (fun (u, _) -> Mbox.policer_node u) policer_boxes
  in
  let down_nodes =
    opt Mbox.tracker_down tracker_box
    @ opt (fun (_, d) -> Mbox.policer_node d) policer_boxes
    @ opt Mbox.nat_down nat_box
  in
  if up_nodes <> [] then Net.interpose net ~src:addr1 ~dst:srv up_nodes;
  if down_nodes <> [] then begin
    match nat_box with
    | Some _ ->
      (* the server replies to whatever public address the NAT currently
         allocates; route those over the physical path back to the client *)
      (match Net.route net ~src:srv ~dst:addr1 with
      | Some links -> Net.add_fallback_route net ~src:srv links
      | None -> ());
      Net.interpose_fallback net ~src:srv down_nodes
    | None -> Net.interpose net ~src:srv ~dst:addr1 down_nodes
  end;
  let cfg = { Pquic.Connection.default_config with Pquic.Connection.cid_pool } in
  let tweak tp = { tp with TP.idle_timeout_ms = p.idle_ms } in
  let server_ep =
    Pquic.Endpoint.create ~cfg ~tweak_params:tweak ~sim ~net
      ~addr:topo.Topology.server_addr ~seed:0x5EedL ()
  in
  let extra_addrs =
    match scen with
    | Mp_fec -> (
      match topo.Topology.client_addrs with _ :: rest -> rest | [] -> [])
    | Plain -> []
  in
  let client_ep =
    Pquic.Endpoint.create ~cfg ~tweak_params:tweak ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs)
      ~extra_addrs ~seed:0xC11e47L ()
  in
  let plugins, to_inject =
    match scen with
    | Plain -> ([], [])
    | Mp_fec ->
      let fec = Plugins.Fec.xor_eos in
      ( [ Plugins.Multipath.plugin; fec ],
        [ Plugins.Multipath.name; (fec : Pquic.Plugin.t).Pquic.Plugin.name ] )
  in
  List.iter
    (fun pl ->
      Pquic.Endpoint.add_plugin server_ep pl;
      Pquic.Endpoint.add_plugin client_ep pl)
    plugins;
  Pquic.Endpoint.listen server_ep;
  Pquic.Endpoint.listen client_ep;
  let server_conn = ref None in
  server_ep.Pquic.Endpoint.on_connection <-
    (fun c ->
      (* the transfer rides the first accepted connection; never let a
         stray later accept displace its stats *)
      if !server_conn = None then server_conn := Some c;
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            Pquic.Connection.write_stream c ~id ~fin:true
              (String.make transfer_size 'x')));
  let conn =
    Pquic.Endpoint.connect client_ep ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:to_inject
  in
  let buf = Buffer.create transfer_size in
  let fin_seen = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET /file");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ data ~fin ->
      Buffer.add_string buf data;
      if fin then fin_seen := true);
  let resolved () =
    !fin_seen || not (Pquic.Connection.is_open conn)
  in
  let rec drive () =
    if resolved () then ()
    else if Sim.to_sec (Sim.now sim) > sim_cap then ()
    else if Sim.pending sim = 0 then ()
    else begin
      ignore
        (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_sec 1.))
           ~max_events:5_000_000 sim);
      drive ()
    end
  in
  drive ();
  let data = Buffer.contents buf in
  let intact =
    !fin_seen
    && String.length data = transfer_size
    && String.for_all (fun ch -> ch = 'x') data
  in
  let link_fingerprint =
    String.concat ";"
      (List.concat_map
         (fun (up, down) ->
           List.map
             (fun l ->
               let s = Link.stats l in
               spf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d" s.Link.sent s.Link.delivered
                 s.Link.random_losses s.Link.queue_drops s.Link.ge_losses
                 s.Link.blackout_drops s.Link.duplicated s.Link.reordered
                 s.Link.corrupted s.Link.queue_hwm)
             [ up; down ])
         topo.Topology.mid_links)
  in
  let fault_counts =
    List.fold_left
      (fun (g, b, d, r, co) (up, down) ->
        let add acc l =
          let g, b, d, r, co = acc in
          let s = Link.stats l in
          ( g + s.Link.ge_losses, b + s.Link.blackout_drops,
            d + s.Link.duplicated, r + s.Link.reordered, co + s.Link.corrupted )
        in
        add (add (g, b, d, r, co) up) down)
      (0, 0, 0, 0, 0) topo.Topology.mid_links
  in
  let cstats = Pquic.Connection.stats conn in
  let sstats = Option.map Pquic.Connection.stats !server_conn in
  let drop_sum = Net.drop_summary net in
  let nat_rebinds =
    match nat_box with Some n -> Mbox.nat_rebindings n | None -> -1
  in
  (* Fold middlebox and migration state into the replay fingerprint (I5),
     but only for runs that enable any of it: legacy digests must not
     move. *)
  let ext =
    if mbox = No_mbox && cid_pool = 0 then ""
    else
      let mig = function
        | None -> "-"
        | Some (s : Pquic.Connection.stats) ->
          spf "%d,%d,%d,%d,%d,%d" s.Pquic.Connection.cids_issued
            s.Pquic.Connection.cids_retired s.Pquic.Connection.cids_rotated
            s.Pquic.Connection.paths_validated s.Pquic.Connection.path_probes
            s.Pquic.Connection.unvalidated_tx
      in
      let flows =
        match tracker_box with Some t -> Mbox.tracker_flows t | None -> 0
      in
      let policed =
        match policer_boxes with
        | Some (u, d) -> Mbox.policer_dropped u + Mbox.policer_dropped d
        | None -> 0
      in
      spf "%s|nat_rebinds=%d|flows=%d|policed=%d|mig_c=%s|mig_s=%s" drop_sum
        nat_rebinds flows policed
        (mig (Some cstats))
        (mig sstats)
  in
  {
    completed = !fin_seen;
    intact;
    received = String.length data;
    client_state = state_string conn;
    client_reason = conn.Pquic.Connection.close_reason;
    server_state =
      (match !server_conn with Some c -> state_string c | None -> "absent");
    server_reason =
      (match !server_conn with
      | Some c -> c.Pquic.Connection.close_reason
      | None -> "");
    client = Some cstats;
    server = sstats;
    acks_client = Quic.Ackranges.check_coherent conn.Pquic.Connection.acks;
    acks_server =
      (match !server_conn with
      | Some c -> Quic.Ackranges.check_coherent c.Pquic.Connection.acks
      | None -> Ok ());
    end_time = Sim.now sim;
    still_open = Pquic.Connection.is_open conn;
    pending_left = Sim.pending sim;
    link_fingerprint;
    fault_counts;
    ext;
    drop_sum;
    nat_rebinds;
  }

(* Everything observable about a run, digestible: replaying the seed must
   reproduce this string bit-for-bit. *)
let fingerprint r =
  let stats_str = function
    | None -> "-"
    | Some (s : Pquic.Connection.stats) ->
      spf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d" s.Pquic.Connection.bytes_sent
        s.Pquic.Connection.bytes_received s.Pquic.Connection.pkts_sent
        s.Pquic.Connection.pkts_received s.Pquic.Connection.pkts_lost
        s.Pquic.Connection.pkts_retransmitted s.Pquic.Connection.pkts_out_of_order
        s.Pquic.Connection.frames_recovered s.Pquic.Connection.pkts_dup_rejected
        s.Pquic.Connection.pkts_corrupt_discarded
        s.Pquic.Connection.persistent_congestion_events
        s.Pquic.Connection.plugin_sanctions s.Pquic.Connection.plugin_fallbacks
  in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          ([
             string_of_bool r.completed;
             string_of_bool r.intact;
             string_of_int r.received;
             r.client_state;
             r.client_reason;
             r.server_state;
             r.server_reason;
             stats_str r.client;
             stats_str r.server;
             Int64.to_string r.end_time;
             r.link_fingerprint;
           ]
          (* appended only when non-empty: legacy digests stay stable *)
          @ (if r.ext = "" then [] else [ r.ext ]))))

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let check_invariants (p : profile) r =
  let v = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  (* I1: the run resolved — no livelock at the sim cap, no quiescence with
     the connection still open (an open connection always has its idle
     alarm pending) *)
  if r.still_open && not r.completed then
    bad "livelock: connection still open at t=%.1fs (%d events pending)"
      (Sim.to_sec r.end_time) r.pending_left;
  (* I2: bytes intact, or a stated close reason *)
  if r.completed && not r.intact then
    bad "payload damaged: got %d bytes (want %d intact)" r.received
      transfer_size;
  if (not r.completed) && not r.still_open then begin
    if r.client_reason = "" then
      bad "client closed without a stated reason (state %s)" r.client_state
  end;
  (* I3: ACK ranges stay coherent on both sides *)
  (match r.acks_client with
  | Ok () -> ()
  | Error e -> bad "client ack ranges incoherent: %s" e);
  (match r.acks_server with
  | Ok () -> ()
  | Error e -> bad "server ack ranges incoherent: %s" e);
  (* I4: sanction accounting balances — network faults never look like
     plugin misbehaviour *)
  let sanctions = function
    | None -> (0, 0)
    | Some (s : Pquic.Connection.stats) ->
      (s.Pquic.Connection.plugin_sanctions, s.Pquic.Connection.plugin_fallbacks)
  in
  let cs, cf = sanctions r.client and ss, sf = sanctions r.server in
  if cs + cf + ss + sf > 0 then
    bad
      "plugin sanction accounting: client %d sanctions/%d fallbacks, server \
       %d/%d under pure network faults (profile %s)"
      cs cf ss sf p.pname;
  List.rev !v

(* ------------------------------------------------------------------ *)
(* Scenario matrix: profiles × middleboxes × scenarios                 *)
(* ------------------------------------------------------------------ *)

type expect = Normal | Must_complete | Must_fail

type cell = {
  cname : string;
  cprofile : profile;
  cmbox : mbox;
  cscen : scenario;
  cpool : int;
  expect : expect;
}

let scen_name = function Plain -> "plain" | Mp_fec -> "mpfec"

(* Profiles whose faults alone never prevent completion (100% completed
   in the legacy sweep): in these, a middlebox cell that fails to finish
   the transfer is a migration bug, not bad luck. *)
let strict_completion p =
  not (List.mem p.pname [ "blackout"; "mayhem" ])

let matrix_cells =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun mb ->
          List.map
            (fun scen ->
              {
                cname = spf "%s/%s/%s" p.pname (mbox_name mb) (scen_name scen);
                cprofile = p;
                cmbox = mb;
                cscen = scen;
                cpool = (if mb = No_mbox then 0 else 3);
                expect = Normal;
              })
            [ Plain; Mp_fec ])
        mboxes)
    profiles
  @ [
      (* pool-0 controls: without spare CIDs (RFC 9000 §9.5) the legacy
         follow-the-source heuristic still survives a plain NAT... *)
      { cname = "control/nat/pool0"; cprofile = clean_profile; cmbox = Nat;
        cscen = Plain; cpool = 0; expect = Must_complete };
      (* ...but a stateful flow tracker must kill the connection — the
         cell demonstrably fails when CID rotation is disabled *)
      { cname = "control/nat+tracker/pool0"; cprofile = clean_profile;
        cmbox = Nat_tracker; cscen = Plain; cpool = 0; expect = Must_fail };
    ]

let cell_named name = List.find_opt (fun c -> c.cname = name) matrix_cells

let run_cell ~seed (c : cell) =
  run_case ~seed ~mbox:c.cmbox ~scenario:c.cscen ~cid_pool:c.cpool c.cprofile

(* Per-run matrix invariants: the legacy I1–I4 plus I6 (migration
   correctness). *)
let check_cell (cell : cell) r =
  let v = ref (check_invariants cell.cprofile r) in
  let bad fmt = Printf.ksprintf (fun s -> v := !v @ [ s ]) fmt in
  (* I6: an unvalidated candidate address never carries non-probe data *)
  let unval = function
    | None -> 0
    | Some (s : Pquic.Connection.stats) -> s.Pquic.Connection.unvalidated_tx
  in
  let u = unval r.client + unval r.server in
  if u > 0 then
    bad "I6: %d non-probe packets sent to unvalidated addresses" u;
  (match cell.expect with
  | Must_complete ->
    if not (r.completed && r.intact) then
      bad "control cell must complete (client %s, %d/%d bytes)" r.client_state
        r.received transfer_size
  | Must_fail ->
    if r.completed then
      bad
        "negative control completed: the flow tracker should blackhole a \
         rebinding connection when CID rotation is off"
  | Normal ->
    (* I6: the transfer survives the middlebox (for profiles whose faults
       alone never prevent completion) *)
    if cell.cmbox <> No_mbox && strict_completion cell.cprofile
       && not (r.completed && r.intact)
    then
      bad "I6: transfer did not survive %s (client %s, %d/%d bytes)"
        (mbox_name cell.cmbox) r.client_state r.received transfer_size);
  (* I6: a completed single-path run that genuinely rebound must have
     revalidated — with a second clean path (mpfec) the transfer may
     legitimately finish there while the NAT'd path sits dead *)
  let validated =
    match r.server with
    | None -> 0
    | Some s -> s.Pquic.Connection.paths_validated
  in
  if
    cell.cpool > 0 && cell.cscen = Plain && r.completed && r.nat_rebinds > 0
    && validated = 0
  then
    bad "I6: NAT rebound %d times yet the server validated no path"
      r.nat_rebinds;
  !v

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let seed_of_index i = Int64.of_int ((i * 9973) + 7)

let repro_hint p seed =
  spf "dune exec bin/chaos.exe -- repro --profile %s --seed %Ld" p.pname seed

let sweep ~seeds () =
  let t0 = Unix.gettimeofday () in
  let violations = ref [] in
  let total = ref 0 in
  List.iter
    (fun p ->
      let completed = ref 0 and closed = ref 0 in
      let g, b, d, ro, co = (ref 0, ref 0, ref 0, ref 0, ref 0) in
      for i = 0 to seeds - 1 do
        let seed = seed_of_index i in
        incr total;
        let r = run_case ~seed p in
        (* I5: bit-identical replay from the same seed *)
        let r2 = run_case ~seed p in
        let f1 = fingerprint r and f2 = fingerprint r2 in
        let errs = check_invariants p r in
        let errs =
          if f1 <> f2 then
            spf "replay diverged: %s vs %s" f1 f2 :: errs
          else errs
        in
        if r.completed then incr completed else incr closed;
        let cg, cb, cd, cro, cco = r.fault_counts in
        g := !g + cg; b := !b + cb; d := !d + cd; ro := !ro + cro;
        co := !co + cco;
        List.iter
          (fun e ->
            violations :=
              spf "[%s seed=%Ld] %s\n    %s" p.pname seed e (repro_hint p seed)
              :: !violations)
          errs
      done;
      pf "%-10s %4d runs: %4d completed, %4d closed-with-reason   (ge %d, blackout %d, dup %d, reorder %d, corrupt %d)\n"
        p.pname seeds !completed !closed !g !b !d !ro !co)
    profiles;
  let violations = List.rev !violations in
  pf "\n%d runs (each replayed once), %d invariant violations, %.1fs wall\n"
    !total (List.length violations)
    (Unix.gettimeofday () -. t0);
  if violations <> [] then begin
    pf "\nViolations:\n";
    List.iter (fun vtext -> pf "  %s\n" vtext) violations;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Matrix sweep                                                        *)
(* ------------------------------------------------------------------ *)

let cell_repro_hint (c : cell) seed =
  spf "dune exec bin/chaos.exe -- repro --cell %s --seed %Ld" c.cname seed

(* The fully resolved scenario: everything needed to rebuild the run by
   hand, printed on violations so a repro is self-describing. *)
let print_scenario (c : cell) =
  let p = c.cprofile in
  let f = p.faults in
  let fault_bits =
    List.concat
      [
        (match f.Fault.ge with
        | None -> []
        | Some g ->
          [ spf "ge(p_gb=%.3f p_bg=%.2f loss_good=%.2f loss_bad=%.2f)"
              g.Fault.p_gb g.Fault.p_bg g.Fault.loss_good g.Fault.loss_bad ]);
        (match f.Fault.reorder with
        | None -> []
        | Some ro ->
          [ spf "reorder(prob=%.2f max_extra=%.0fms)" ro.Fault.prob
              (Sim.to_sec ro.Fault.max_extra *. 1e3) ]);
        (if f.Fault.duplicate > 0. then
           [ spf "duplicate(%.2f)" f.Fault.duplicate ]
         else []);
        (if f.Fault.corrupt > 0. then [ spf "corrupt(%.2f)" f.Fault.corrupt ]
         else []);
        List.map
          (fun (a, b) ->
            spf "blackout(%.1fs..%.1fs)" (Sim.to_sec a) (Sim.to_sec b))
          f.Fault.blackouts;
      ]
  in
  pf "cell %s\n" c.cname;
  pf "  profile %s: idle_timeout %dms, faults %s\n" p.pname p.idle_ms
    (match fault_bits with [] -> "none" | l -> String.concat " " l);
  pf "  scenario %s: %s, transfer %d bytes, path 10ms/5Mbps, sim cap %.0fs\n"
    (scen_name c.cscen)
    (match c.cscen with
    | Plain -> "single path"
    | Mp_fec -> "dual path + multipath/FEC plugins")
    transfer_size sim_cap;
  pf "  middlebox %s:%s\n" (mbox_name c.cmbox)
    (match c.cmbox with
    | No_mbox -> " none"
    | Nat ->
      spf " nat(public_base=%d idle=%.1fs max_lifetime=%.2fs)" nat_public_base
        (Sim.to_sec nat_idle) (Sim.to_sec nat_lifetime)
    | Tracker -> " flow-tracker(drop shorts with unlearned DCID)"
    | Policer ->
      spf " policer(%.1fMbps burst=%dB, both directions)" policer_rate_mbps
        policer_burst
    | Nat_tracker ->
      spf
        " nat(public_base=%d idle=%.1fs max_lifetime=%.2fs) + \
         flow-tracker"
        nat_public_base (Sim.to_sec nat_idle) (Sim.to_sec nat_lifetime));
  pf "  cid_pool %d%s\n" c.cpool
    (match c.expect with
    | Normal -> ""
    | Must_complete -> "  (control: must complete)"
    | Must_fail -> "  (control: must NOT complete)")

let list_cells () =
  pf "%-28s %-10s %-12s %-6s pool\n" "cell" "profile" "middlebox" "scen";
  List.iter
    (fun c ->
      pf "%-28s %-10s %-12s %-6s %d%s\n" c.cname c.cprofile.pname
        (mbox_name c.cmbox) (scen_name c.cscen) c.cpool
        (match c.expect with
        | Normal -> ""
        | Must_complete -> "  [must complete]"
        | Must_fail -> "  [must fail]"))
    matrix_cells;
  pf "\n%d cells; run one: dune exec bin/chaos.exe -- matrix --seeds N \
      --cells <name>[,<name>...]\n"
    (List.length matrix_cells)

let matrix ~seeds ~cells () =
  let selected =
    match cells with
    | [] -> matrix_cells
    | names ->
      List.map
        (fun n ->
          match cell_named n with
          | Some c -> c
          | None ->
            pf "unknown cell %s (enumerate with: chaos list)\n" n;
            exit 2)
        names
  in
  let t0 = Unix.gettimeofday () in
  let violations = ref [] in
  let total = ref 0 in
  let violate c seed e =
    violations :=
      spf "[%s seed=%Ld] %s\n    %s" c.cname seed e (cell_repro_hint c seed)
      :: !violations
  in
  List.iter
    (fun c ->
      let completed = ref 0 and closed = ref 0 in
      let rebinds = ref 0 and validated = ref 0 and rotated = ref 0 in
      let mbox_drops = ref 0 in
      for i = 0 to seeds - 1 do
        let seed = seed_of_index i in
        incr total;
        let r = run_cell ~seed c in
        (* I5: bit-identical replay, now covering middlebox state *)
        let r2 = run_cell ~seed c in
        let errs = check_cell c r in
        let errs =
          if fingerprint r <> fingerprint r2 then
            spf "replay diverged: %s vs %s" (fingerprint r) (fingerprint r2)
            :: errs
          else errs
        in
        if r.completed then incr completed else incr closed;
        if r.nat_rebinds > 0 then rebinds := !rebinds + r.nat_rebinds;
        (match r.server with
        | Some s -> validated := !validated + s.Pquic.Connection.paths_validated
        | None -> ());
        (match r.client with
        | Some s -> rotated := !rotated + s.Pquic.Connection.cids_rotated
        | None -> ());
        if r.ext <> "" && r.drop_sum <> "" then
          (* count of datagrams the middleboxes refused, from the drop
             summary's mbox:* causes — cheap cross-check that cells with
             middleboxes actually exercised them *)
          String.split_on_char ' ' r.drop_sum
          |> List.iter (fun tok ->
                 match String.index_opt tok '=' with
                 | Some eq when String.length tok > 5
                                && String.sub tok 0 5 = "mbox:" ->
                   mbox_drops :=
                     !mbox_drops
                     + int_of_string
                         (String.sub tok (eq + 1) (String.length tok - eq - 1))
                 | _ -> ());
        List.iter (violate c seed) errs
      done;
      (* aggregate I6: a NAT cell where no run ever rebound exercised
         nothing — the lifetime is tuned so this must not happen *)
      if
        c.expect = Normal
        && (c.cmbox = Nat || c.cmbox = Nat_tracker)
        && !rebinds = 0
      then
        violations :=
          spf "[%s] NAT never rebound across %d seeds: cell exercised nothing"
            c.cname seeds
          :: !violations;
      pf
        "%-28s %3d runs: %3d completed, %3d closed | rebinds %d, validated \
         %d, rotations %d, mbox drops %d\n%!"
        c.cname seeds !completed !closed !rebinds !validated !rotated
        !mbox_drops)
    selected;
  let violations = List.rev !violations in
  pf "\n%d matrix runs (each replayed once) over %d cells, %d violations, \
      %.1fs wall\n"
    !total (List.length selected) (List.length violations)
    (Unix.gettimeofday () -. t0);
  if violations <> [] then begin
    pf "\nViolations:\n";
    List.iter (fun vtext -> pf "  %s\n" vtext) violations;
    exit 1
  end

(* The fingerprint of every matrix run, one `cell seed fingerprint` line
   each, for diffing against a committed golden file: a change to what
   any run observably does shows as a changed line. *)
let fingerprints ~seeds () =
  List.iter
    (fun c ->
      for i = 0 to seeds - 1 do
        let seed = seed_of_index i in
        pf "%s %Ld %s\n%!" c.cname seed (fingerprint (run_cell ~seed c))
      done)
    matrix_cells

(* ------------------------------------------------------------------ *)
(* Repro: one seed, verbosely                                          *)
(* ------------------------------------------------------------------ *)

let repro ~pname ~seed () =
  match profile_named pname with
  | None ->
    pf "unknown profile %s (have: %s)\n" pname
      (String.concat ", " (List.map (fun p -> p.pname) profiles));
    exit 2
  | Some p ->
    let r = run_case ~seed p in
    let r2 = run_case ~seed p in
    let stats_line tag = function
      | None -> pf "  %s: absent\n" tag
      | Some (s : Pquic.Connection.stats) ->
        pf
          "  %s: sent %d recv %d lost %d retx %d ooo %d fec %d dup-rej %d \
           corrupt-drop %d pc %d sanctions %d fallbacks %d\n"
          tag s.Pquic.Connection.pkts_sent s.Pquic.Connection.pkts_received
          s.Pquic.Connection.pkts_lost s.Pquic.Connection.pkts_retransmitted
          s.Pquic.Connection.pkts_out_of_order
          s.Pquic.Connection.frames_recovered
          s.Pquic.Connection.pkts_dup_rejected
          s.Pquic.Connection.pkts_corrupt_discarded
          s.Pquic.Connection.persistent_congestion_events
          s.Pquic.Connection.plugin_sanctions
          s.Pquic.Connection.plugin_fallbacks
    in
    pf "profile %s, seed %Ld\n" p.pname seed;
    pf "  completed %b, intact %b, received %d bytes\n" r.completed r.intact
      r.received;
    pf "  client %s (reason %S), server %s (reason %S)\n" r.client_state
      r.client_reason r.server_state r.server_reason;
    stats_line "client" r.client;
    stats_line "server" r.server;
    let g, b, d, ro, co = r.fault_counts in
    pf "  faults injected: ge %d, blackout %d, dup %d, reorder %d, corrupt %d\n"
      g b d ro co;
    pf "  end t=%.3fs, fingerprint %s (replay %s)\n" (Sim.to_sec r.end_time)
      (fingerprint r)
      (if fingerprint r = fingerprint r2 then "identical" else "DIVERGED");
    let errs = check_invariants p r in
    let errs =
      if fingerprint r <> fingerprint r2 then "replay diverged" :: errs
      else errs
    in
    if errs = [] then pf "  invariants: all hold\n"
    else begin
      List.iter (fun e -> pf "  VIOLATION: %s\n" e) errs;
      exit 1
    end

(* Replay one matrix cell, printing the fully resolved scenario so the
   output alone suffices to reconstruct the run. *)
let repro_cell ~cname ~seed () =
  match cell_named cname with
  | None ->
    pf "unknown cell %s (enumerate with: chaos list)\n" cname;
    exit 2
  | Some c ->
    print_scenario c;
    let r = run_cell ~seed c in
    let r2 = run_cell ~seed c in
    pf "seed %Ld\n" seed;
    pf "  completed %b, intact %b, received %d bytes\n" r.completed r.intact
      r.received;
    pf "  client %s (reason %S), server %s (reason %S)\n" r.client_state
      r.client_reason r.server_state r.server_reason;
    let mig tag = function
      | None -> pf "  %s: absent\n" tag
      | Some (s : Pquic.Connection.stats) ->
        pf
          "  %s: sent %d recv %d lost %d retx %d | cids issued %d retired %d \
           rotated %d | paths validated %d probes %d unvalidated-tx %d | \
           sanctions %d fallbacks %d\n"
          tag s.Pquic.Connection.pkts_sent s.Pquic.Connection.pkts_received
          s.Pquic.Connection.pkts_lost s.Pquic.Connection.pkts_retransmitted
          s.Pquic.Connection.cids_issued s.Pquic.Connection.cids_retired
          s.Pquic.Connection.cids_rotated s.Pquic.Connection.paths_validated
          s.Pquic.Connection.path_probes s.Pquic.Connection.unvalidated_tx
          s.Pquic.Connection.plugin_sanctions
          s.Pquic.Connection.plugin_fallbacks
    in
    mig "client" r.client;
    mig "server" r.server;
    if r.nat_rebinds >= 0 then pf "  nat rebindings: %d\n" r.nat_rebinds;
    pf "  %s\n" r.drop_sum;
    pf "  end t=%.3fs, fingerprint %s (replay %s)\n" (Sim.to_sec r.end_time)
      (fingerprint r)
      (if fingerprint r = fingerprint r2 then "identical" else "DIVERGED");
    let errs = check_cell c r in
    let errs =
      if fingerprint r <> fingerprint r2 then "replay diverged (I5)" :: errs
      else errs
    in
    if errs = [] then pf "  invariants: all hold\n"
    else begin
      List.iter (fun e -> pf "  VIOLATION: %s\n" e) errs;
      exit 1
    end

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let seeds_t =
  Arg.(value & opt int 12 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per profile.")

let seed_t =
  Arg.(
    required
    & opt (some int64) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Seed to replay (as printed by sweep).")

let profile_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"NAME" ~doc:"Fault profile name.")

let cell_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "cell" ] ~docv:"CELL"
        ~doc:"Matrix cell name (enumerate with the list command).")

let cells_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "cells" ] ~docv:"CSV"
        ~doc:"Comma-separated cell names to sweep (default: all).")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let sweep_cmd =
  cmd "sweep" "Seed-sweep all fault profiles, checking invariants"
    Term.(const (fun seeds -> sweep ~seeds ()) $ seeds_t)

let matrix_cmd =
  cmd "matrix"
    "Seed-sweep the scenario matrix (profiles × middleboxes × scenarios)"
    Term.(
      const (fun seeds cells ->
          let cells =
            match cells with
            | None -> []
            | Some csv ->
              String.split_on_char ',' csv
              |> List.filter (fun s -> s <> "")
          in
          matrix ~seeds ~cells ())
      $ seeds_t $ cells_t)

let list_cmd =
  cmd "list" "Enumerate the scenario-matrix cells"
    Term.(const list_cells $ const ())

let fingerprints_cmd =
  cmd "fingerprints"
    "Print the fingerprint of every matrix cell and seed, one line each"
    Term.(const (fun seeds -> fingerprints ~seeds ()) $ seeds_t)

let repro_cmd =
  cmd "repro" "Replay one (profile|cell, seed) pair verbosely"
    Term.(
      const (fun pname cell seed ->
          match (pname, cell) with
          | Some pname, None -> repro ~pname ~seed ()
          | None, Some cname -> repro_cell ~cname ~seed ()
          | _ ->
            pf "repro needs exactly one of --profile or --cell\n";
            Stdlib.exit 2)
      $ profile_t $ cell_t $ seed_t)

let () =
  (* CHAOS_LOG=info|debug surfaces the engine's own log stream — mainly
     the migration/path-validation notices — under a repro *)
  (match Sys.getenv_opt "CHAOS_LOG" with
  | Some lvl ->
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level
      (Some (match lvl with "debug" -> Logs.Debug | _ -> Logs.Info))
  | None -> ());
  let info = Cmd.info "chaos" ~doc:"Deterministic chaos / invariant harness" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ sweep_cmd; matrix_cmd; list_cmd; repro_cmd; fingerprints_cmd ]))
