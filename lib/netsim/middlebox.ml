(* Stateful in-path middleboxes, packaged as [Net.node] chains.

   Three boxes cover the deployment failure modes the chaos matrix
   exercises: an address-translating NAT whose binding expires (idle
   timeout and optional absolute lifetime), forcing genuine rebinding
   mid-transfer; a QUIC-aware stateful flow tracker that only admits
   short-header datagrams whose DCID appeared in a client-initiated
   long header on that 4-tuple (the QASM enterprise-firewall behaviour —
   it blackholes naive migration until the endpoints revalidate with a
   long-header probe); and a token-bucket rate policer.

   All state advances only from the [~now] the network passes in, so runs
   replay bit-identically. *)

(* ---------- NAT ---------- *)

type binding = {
  public : Net.addr;
  mutable bound_at : Sim.time;
  mutable last_used : Sim.time;
}

type nat = {
  inside : Net.addr;
  public_base : Net.addr;
  idle : Sim.time;
  lifetime : Sim.time option;
  mutable binding : binding option;
  mutable next_pub : int;
  mutable rebindings : int;
}

let nat ~inside ~public_base ~idle_timeout ?max_lifetime () =
  {
    inside;
    public_base;
    idle = idle_timeout;
    lifetime = max_lifetime;
    binding = None;
    next_pub = 0;
    rebindings = 0;
  }

let binding_valid t ~now b =
  Int64.sub now b.last_used <= t.idle
  && (match t.lifetime with
     | None -> true
     | Some l -> Int64.sub now b.bound_at <= l)

(* Outbound (inside -> world): translate the source to the current public
   address, allocating a fresh one whenever the old binding expired. The
   NAT never drops outbound traffic — rebinding is silent, exactly what
   makes it hostile. *)
let nat_up t =
  {
    Net.node_name = "nat";
    process =
      (fun ~now dg ->
        if dg.Net.src <> t.inside then Ok dg
        else begin
          let b =
            match t.binding with
            | Some b when binding_valid t ~now b ->
              b.last_used <- now;
              b
            | prev ->
              let public = t.public_base + t.next_pub in
              t.next_pub <- t.next_pub + 1;
              if prev <> None then t.rebindings <- t.rebindings + 1;
              let b = { public; bound_at = now; last_used = now } in
              t.binding <- Some b;
              b
          in
          Ok { dg with Net.src = b.public }
        end);
  }

(* Inbound (world -> public address): translate back through the live
   binding; traffic to an expired or never-allocated public address is
   dropped, like any real NAT. Inbound traffic does not refresh the idle
   clock — only the inside host keeps its own binding alive. *)
let nat_down t =
  {
    Net.node_name = "nat";
    process =
      (fun ~now dg ->
        match t.binding with
        | Some b when b.public = dg.Net.dst ->
          if binding_valid t ~now b then Ok { dg with Net.dst = t.inside }
          else Error "expired_binding"
        | _ ->
          if dg.Net.dst >= t.public_base && dg.Net.dst < t.public_base + t.next_pub
          then Error "no_binding"
          else Ok dg);
  }

let nat_rebindings t = t.rebindings

(* Age the current binding far into the past so the very next outbound
   packet rebinds (and inbound traffic to the old public address dies) —
   a deterministic stand-in for waiting out the idle timer. *)
let nat_force_expire t =
  match t.binding with
  | None -> ()
  | Some b ->
    b.bound_at <- -1_000_000_000_000_000L;
    b.last_used <- -1_000_000_000_000_000L

(* ---------- QUIC-aware stateful flow tracker ---------- *)

type tracker = {
  wire_of : Net.payload -> string option;
      (* extract the QUIC wire image from a payload; [None] passes the
         datagram unexamined (keeps netsim free of protocol deps) *)
  flows : (Net.addr * Net.addr, (int64, unit) Hashtbl.t) Hashtbl.t;
      (* 4-tuple -> CIDs seen in client long headers; both directions of
         a flow share one physical table *)
}

let flow_tracker ~wire_of () = { wire_of; flows = Hashtbl.create 8 }

let tracker_flows t = Hashtbl.length t.flows / 2

(* Wire layout (lib/quic/packet.ml): byte0 bit7 = long header; 8-byte
   big-endian DCID at offset 1; SCID at offset 9 on long headers. *)
let examine t ~learn dg =
  match t.wire_of dg.Net.payload with
  | None -> Ok dg
  | Some w ->
    if String.length w < 9 then Error "runt"
    else begin
      let long = Char.code w.[0] land 0x80 <> 0 in
      let dcid = String.get_int64_be w 1 in
      let key = (dg.Net.src, dg.Net.dst) in
      if long then begin
        (if learn then begin
           let set =
             match Hashtbl.find_opt t.flows key with
             | Some s -> s
             | None ->
               let s = Hashtbl.create 4 in
               Hashtbl.replace t.flows key s;
               Hashtbl.replace t.flows (dg.Net.dst, dg.Net.src) s;
               s
           in
           Hashtbl.replace set dcid ();
           if String.length w >= 17 then
             Hashtbl.replace set (String.get_int64_be w 9) ()
         end);
        Ok dg
      end
      else
        match Hashtbl.find_opt t.flows key with
        | None -> Error "unknown_flow"
        | Some set ->
          if Hashtbl.mem set dcid then Ok dg else Error "unknown_cid"
    end

(* Client side: long headers create/extend flow state. *)
let tracker_up t =
  { Net.node_name = "tracker"; process = (fun ~now:_ dg -> examine t ~learn:true dg) }

(* Server side: long headers pass but never create state — only the
   client (the inside host) opens pinholes. *)
let tracker_down t =
  { Net.node_name = "tracker"; process = (fun ~now:_ dg -> examine t ~learn:false dg) }

(* ---------- token-bucket rate policer ---------- *)

type policer = {
  rate : float; (* bytes per ns *)
  burst : float;
  mutable tokens : float;
  mutable last : Sim.time;
  mutable policed : int;
}

let policer ~rate_mbps ~burst () =
  {
    rate = rate_mbps /. 8000.;
    burst = float_of_int burst;
    tokens = float_of_int burst;
    last = 0L;
    policed = 0;
  }

let policer_node t =
  {
    Net.node_name = "policer";
    process =
      (fun ~now dg ->
        let dt = Int64.to_float (Int64.sub now t.last) in
        t.tokens <- Float.min t.burst (t.tokens +. (dt *. t.rate));
        t.last <- now;
        let sz = float_of_int dg.Net.size in
        if t.tokens >= sz then begin
          t.tokens <- t.tokens -. sz;
          Ok dg
        end
        else begin
          t.policed <- t.policed + 1;
          Error "policed"
        end);
  }

let policer_dropped t = t.policed
