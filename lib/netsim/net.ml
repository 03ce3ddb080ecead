(* Datagram network: addresses, static routes (lists of links) and delivery
   to per-address handlers. Payloads use an extensible variant so each
   protocol stacks its own packet type on the simulator without the
   simulator knowing about it.

   Routes may carry a chain of in-path [node]s (stateful middleboxes: NAT,
   flow trackers, policers — see [Middlebox]). A node runs at send time,
   before the links, and may rewrite the datagram (address translation) or
   drop it with a reason. Every drop — middlebox, missing route, missing
   handler — is accounted in [stats]; link-level fault drops stay in each
   link's own counters and are folded in by [drop_summary]. *)

type addr = int

type payload = ..
type payload += Raw of string

(* A datagram that crossed a router whose queue was past the ECN marking
   threshold arrives with its payload wrapped in [Ce]. *)
type payload += Ce of payload

(* A datagram damaged in flight by a link's corruption fault arrives with
   its payload wrapped in [Corrupt]; the descriptor deterministically
   selects which bytes flipped (see [corrupt_string]), so a replay from
   the same seed damages the same bits. *)
type payload += Corrupt of payload * int64

(* Apply the damage a [Corrupt] descriptor encodes to a wire image: flip
   1–3 bytes at descriptor-derived offsets. Pure — same descriptor, same
   string, same damage. *)
let corrupt_string descr s =
  let n = String.length s in
  if n = 0 then s
  else begin
    let b = Bytes.of_string s in
    let flips = 1 + Int64.to_int (Int64.unsigned_rem descr 3L) in
    let state = ref descr in
    for _ = 1 to flips do
      (* one SplitMix64 step per flip, seeded by the descriptor *)
      state := Int64.add !state 0x9E3779B97F4A7C15L;
      let z = !state in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
          0xBF58476D1CE4E5B9L
      in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
          0x94D049BB133111EBL
      in
      let z = Int64.logxor z (Int64.shift_right_logical z 31) in
      let pos = Int64.to_int (Int64.unsigned_rem z (Int64.of_int n)) in
      let mask = 1 + Int64.to_int (Int64.unsigned_rem (Int64.shift_right_logical z 32) 255L) in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask))
    done;
    Bytes.to_string b
  end

type datagram = { src : addr; dst : addr; size : int; payload : payload }

type node = {
  node_name : string;
  process : now:Sim.time -> datagram -> (datagram, string) result;
      (* [Ok dg'] forwards (possibly rewritten); [Error reason] drops,
         accounted as "mbox:<node_name>:<reason>" *)
}

type stats = {
  mutable sent : int;       (* datagrams submitted to [send] *)
  mutable delivered : int;  (* handler invocations (dups count each copy) *)
  drops : (string, int) Hashtbl.t;  (* cause -> count, send-time drops *)
}

type t = {
  sim : Sim.t;
  routes : (addr * addr, Link.t list) Hashtbl.t;
  fallback_routes : (addr, Link.t list) Hashtbl.t;
      (* consulted when no exact (src, dst) route exists — e.g. a server
         replying to the shifting public addresses a NAT allocates *)
  nodes : (addr * addr, node list) Hashtbl.t;
  fallback_nodes : (addr, node list) Hashtbl.t;
  handlers : (addr, datagram -> unit) Hashtbl.t;
  st : stats;
}

let create sim =
  {
    sim;
    routes = Hashtbl.create 16;
    fallback_routes = Hashtbl.create 4;
    nodes = Hashtbl.create 4;
    fallback_nodes = Hashtbl.create 4;
    handlers = Hashtbl.create 16;
    st = { sent = 0; delivered = 0; drops = Hashtbl.create 8 };
  }

let sim t = t.sim

let add_route t ~src ~dst links = Hashtbl.replace t.routes (src, dst) links

let route t ~src ~dst = Hashtbl.find_opt t.routes (src, dst)

let add_fallback_route t ~src links =
  Hashtbl.replace t.fallback_routes src links

let interpose t ~src ~dst nodes = Hashtbl.replace t.nodes (src, dst) nodes

let interpose_fallback t ~src nodes =
  Hashtbl.replace t.fallback_nodes src nodes

let attach t addr handler = Hashtbl.replace t.handlers addr handler


let stats t = t.st

let drop t cause =
  let n = try Hashtbl.find t.st.drops cause with Not_found -> 0 in
  Hashtbl.replace t.st.drops cause (n + 1)

(* Sorted "cause=count" rendering of the send-time drop table plus the
   aggregate fault counters of every distinct link on a route — one line
   that fingerprints the full network-side fate of a run. *)
let drop_summary t =
  let b = Buffer.create 64 in
  let causes =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.st.drops []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Buffer.add_string b
    (Printf.sprintf "net sent=%d delivered=%d" t.st.sent t.st.delivered);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%d" k v))
    causes;
  (* links, deduplicated physically (routes share link objects) *)
  let seen = ref [] in
  let links = ref [] in
  let note l = if not (List.memq l !seen) then begin
      seen := l :: !seen; links := l :: !links end
  in
  Hashtbl.iter (fun _ ls -> List.iter note ls) t.routes;
  Hashtbl.iter (fun _ ls -> List.iter note ls) t.fallback_routes;
  let rl = ref 0 and qd = ref 0 and ge = ref 0 and bo = ref 0 and co = ref 0 in
  List.iter
    (fun l ->
      let s = Link.stats l in
      rl := !rl + s.Link.random_losses;
      qd := !qd + s.Link.queue_drops;
      ge := !ge + s.Link.ge_losses;
      bo := !bo + s.Link.blackout_drops;
      co := !co + s.Link.corrupted)
    !links;
  Buffer.add_string b
    (Printf.sprintf " link[rand=%d queue=%d ge=%d blackout=%d corrupt=%d]"
       !rl !qd !ge !bo !co);
  Buffer.contents b

(* Send a datagram; middlebox nodes on the route run first (and may
   rewrite addresses or drop with a reason), then it traverses every link
   of the route in order. Every send-time drop is counted in [stats];
   losses inside a link remain in that link's counters — exactly a
   best-effort IP/UDP service. Duplicating links may invoke the tail of
   the route (and the handler) more than once; corruption wraps the
   payload so the endpoint sees the damaged wire image. *)
let send t dg =
  t.st.sent <- t.st.sent + 1;
  let links, chain =
    match Hashtbl.find_opt t.routes (dg.src, dg.dst) with
    | Some links ->
      (Some links, Option.value ~default:[] (Hashtbl.find_opt t.nodes (dg.src, dg.dst)))
    | None ->
      ( Hashtbl.find_opt t.fallback_routes dg.src,
        Option.value ~default:[] (Hashtbl.find_opt t.fallback_nodes dg.src) )
  in
  match links with
  | None -> drop t (Printf.sprintf "no_route:%d->%d" dg.src dg.dst)
  | Some links ->
    let now = Sim.now t.sim in
    let rec through dg = function
      | [] -> Some dg
      | node :: rest -> (
        match node.process ~now dg with
        | Ok dg -> through dg rest
        | Error reason ->
          drop t (Printf.sprintf "mbox:%s:%s" node.node_name reason);
          None)
    in
    (match through dg chain with
    | None -> ()
    | Some dg ->
      let rec hop marked damage = function
        | [] -> (
          match Hashtbl.find_opt t.handlers dg.dst with
          | Some handler ->
            let payload =
              match damage with
              | None -> dg.payload
              | Some descr -> Corrupt (dg.payload, descr)
            in
            let payload = if marked then Ce payload else payload in
            t.st.delivered <- t.st.delivered + 1;
            handler { dg with payload }
          | None -> drop t (Printf.sprintf "no_handler:%d" dg.dst))
        | link :: rest ->
          Link.send_full link ~size:dg.size (fun ~ce ~corrupt ->
              let damage =
                match (damage, corrupt) with
                | None, d | d, None -> d
                | Some a, Some b -> Some (Int64.logxor a b)
              in
              hop (marked || ce) damage rest)
      in
      hop false None links)
