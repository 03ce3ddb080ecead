(* Instrumentation the benchmark applies from outside the library: a
   monotonic nanosecond clock, latency samples, an in-memory span
   recorder and the replay of captured wire images through the public
   Quic.Packet / Quic.Frame / Quic.Reader / Quic.Writer functions.
   Nothing here reaches inside lib/: every span wraps a call into a
   public function and every count reads a public counter. *)

module P = Quic.Packet
module F = Quic.Frame

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Latency samples                                                     *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  (* Nearest-rank percentile, [p] in (0, 1]; nan when empty. *)
  let percentile t p =
    if t.n = 0 then nan
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let k = int_of_float (Float.ceil (p *. float_of_int t.n)) - 1 in
      float_of_int s.(max 0 (min (t.n - 1) k))
    end
end

(* ------------------------------------------------------------------ *)
(* Span recorder                                                       *)
(* ------------------------------------------------------------------ *)

(* One span per call into a layer: kind, start and end (ns), parent span
   and minor words allocated inside. Struct-of-arrays so that recording
   allocates only when the arrays double. [sends] counts datagrams the
   Net tap saw while the span was innermost; [drained] counts datagrams a
   simulator event handed from the server's shards to connections. *)
module Spans = struct
  let event = 0 (* one simulator event: Sim.run ~max_events:1 *)
  let rx = 1 (* Endpoint.handle_datagram behind the Net.attach handler *)
  let accept = 2 (* Server.handle_datagram on an Initial, no plugin *)
  let accept_plugin = 3 (* the same, for a connection given a plugin *)
  let route = 4 (* Server.handle_datagram on an established connection *)

  type t = {
    mutable n : int;
    mutable cur : int;
    mutable kind : int array;
    mutable parent : int array;
    mutable start : int array;
    mutable stop : int array;
    mutable words : float array;
    mutable sends : int array;
    mutable drained : int array;
  }

  let s =
    {
      n = 0;
      cur = -1;
      kind = [||];
      parent = [||];
      start = [||];
      stop = [||];
      words = [||];
      sends = [||];
      drained = [||];
    }

  let grow () =
    let cap = max 4096 (2 * Array.length s.kind) in
    let ext a z =
      let b = Array.make cap z in
      Array.blit a 0 b 0 s.n;
      b
    in
    s.kind <- ext s.kind 0;
    s.parent <- ext s.parent 0;
    s.start <- ext s.start 0;
    s.stop <- ext s.stop 0;
    s.sends <- ext s.sends 0;
    s.drained <- ext s.drained 0;
    let w = Array.make cap 0. in
    Array.blit s.words 0 w 0 s.n;
    s.words <- w

  (* The recorder's own bookkeeping sits inside the timed window, so
     that the time between two spans is only the stepping loop. *)
  let[@inline] enter k =
    let t = now_ns () in
    if s.n = Array.length s.kind then grow ();
    let i = s.n in
    s.n <- i + 1;
    s.kind.(i) <- k;
    s.parent.(i) <- s.cur;
    s.sends.(i) <- 0;
    s.drained.(i) <- 0;
    s.cur <- i;
    s.start.(i) <- t;
    s.words.(i) <- Gc.minor_words ();
    i

  let[@inline] leave i =
    s.words.(i) <- Gc.minor_words () -. s.words.(i);
    s.cur <- s.parent.(i);
    s.stop.(i) <- now_ns ()

  let mark_send () = if s.cur >= 0 then s.sends.(s.cur) <- s.sends.(s.cur) + 1
  let add_drained i n = s.drained.(i) <- s.drained.(i) + n

  (* Per-layer self time from the recorded spans: a span's self time is
     its duration minus that of its children. Top-level simulator events
     are classed by what happened inside them: a shard drain is the
     connection's receive (core), a send pass is the sender (core), an
     event that only delivered a datagram (its rx child is core) or did
     nothing the probes see is the simulator's own cost (netsim). *)
  type ledger = {
    mutable top_ns : int;  (** summed duration of top-level spans *)
    mutable events : int;
    mutable netsim_deliver_ns : int;
    mutable netsim_other_ns : int;
    mutable core_rx_ns : int;
    mutable core_rx_words : float;
    mutable rx_dgrams : int;  (** rx spans plus drained datagrams *)
    mutable core_tx_ns : int;
    mutable core_tx_words : float;
    mutable tx_pkts : int;
    mutable accept_ns : int;
    mutable engine_ns : int;
    mutable routed : int;
    accept_lat : Samples.t;
    accept_plugin_lat : Samples.t;
  }

  let ledger () =
    let n = s.n in
    let child_ns = Array.make n 0 and child_words = Array.make n 0. in
    for i = 0 to n - 1 do
      let p = s.parent.(i) in
      if p >= 0 then begin
        child_ns.(p) <- child_ns.(p) + (s.stop.(i) - s.start.(i));
        child_words.(p) <- child_words.(p) +. s.words.(i)
      end
    done;
    let l =
      {
        top_ns = 0;
        events = 0;
        netsim_deliver_ns = 0;
        netsim_other_ns = 0;
        core_rx_ns = 0;
        core_rx_words = 0.;
        rx_dgrams = 0;
        core_tx_ns = 0;
        core_tx_words = 0.;
        tx_pkts = 0;
        accept_ns = 0;
        engine_ns = 0;
        routed = 0;
        accept_lat = Samples.create ();
        accept_plugin_lat = Samples.create ();
      }
    in
    for i = 0 to n - 1 do
      let dur = s.stop.(i) - s.start.(i) in
      let self = dur - child_ns.(i) in
      let self_words = s.words.(i) -. child_words.(i) in
      if s.parent.(i) < 0 then l.top_ns <- l.top_ns + dur;
      l.tx_pkts <- l.tx_pkts + s.sends.(i);
      let k = s.kind.(i) in
      if k = event then begin
        l.events <- l.events + 1;
        if s.drained.(i) > 0 then begin
          l.core_rx_ns <- l.core_rx_ns + self;
          l.core_rx_words <- l.core_rx_words +. self_words;
          l.rx_dgrams <- l.rx_dgrams + s.drained.(i)
        end
        else if s.sends.(i) > 0 then begin
          l.core_tx_ns <- l.core_tx_ns + self;
          l.core_tx_words <- l.core_tx_words +. self_words
        end
        else if child_ns.(i) > 0 then
          l.netsim_deliver_ns <- l.netsim_deliver_ns + self
        else l.netsim_other_ns <- l.netsim_other_ns + self
      end
      else if k = rx then begin
        l.core_rx_ns <- l.core_rx_ns + self;
        l.core_rx_words <- l.core_rx_words +. self_words;
        l.rx_dgrams <- l.rx_dgrams + 1
      end
      else if k = accept || k = accept_plugin then begin
        l.accept_ns <- l.accept_ns + self;
        Samples.add (if k = accept then l.accept_lat else l.accept_plugin_lat) dur
      end
      else if k = route then begin
        l.engine_ns <- l.engine_ns + self;
        l.routed <- l.routed + 1
      end
    done;
    l

  (* Spans stay in memory during the run; this writes them out at the
     end, one CSV row per span. *)
  let write path =
    let oc = open_out path in
    output_string oc "id,kind,parent,start_ns,end_ns,minor_words,sends,drained\n";
    for i = 0 to s.n - 1 do
      Printf.fprintf oc "%d,%d,%d,%d,%d,%.0f,%d,%d\n" i s.kind.(i)
        s.parent.(i) s.start.(i) s.stop.(i) s.words.(i) s.sends.(i)
        s.drained.(i)
    done;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Wire replay                                                         *)
(* ------------------------------------------------------------------ *)

(* A datagram the run put on the wire, with the packet key it was sealed
   under and the connection table of the endpoint it was addressed to. *)
type captured = {
  wire : string;
  key : int64;
  table : Pquic.Connection.t Engine.Conn_table.t option;
}

type verified = {
  d : captured;
  header : P.header;
  off : int;  (** payload window in [d.wire] *)
  len : int;
}

(* Walk the frames of a payload window as views through a pooled
   reader. Frame types the core does not know (plugin frames) are left
   to their plugin's parser, so the walk stops at the first one. *)
let parse_frames v =
  let r = Quic.Reader.acquire () in
  Quic.Reader.reset r v.d.wire ~pos:v.off ~limit:(v.off + v.len);
  let frames = ref 0 in
  (try
     while not (Quic.Reader.at_end r) do
       incr frames;
       match F.parse_view r with
       | F.V_unknown _ -> Quic.Reader.seek r (Quic.Reader.limit r)
       | _ -> ()
     done
   with e ->
     Quic.Reader.release r;
     raise e);
  Quic.Reader.release r;
  !frames

let reseal v =
  let w = Quic.Writer.acquire () in
  let hoff = P.reserve_header w v.header in
  Quic.Writer.subbytes w (Bytes.unsafe_of_string v.d.wire) ~off:v.off ~len:v.len;
  P.patch_header w ~off:hoff v.header;
  P.seal ~key:v.d.key w;
  w

(* A captured datagram counts only if it authenticates under its recorded
   key, its frames parse, and re-sealing its payload reproduces the wire
   image byte for byte. Returns the verified set and the mismatch count. *)
let verify caps =
  let bad = ref 0 in
  let ok =
    List.filter_map
      (fun d ->
        match P.unprotect_view ~key:d.key d.wire with
        | exception (P.Authentication_failed | P.Malformed) ->
          incr bad;
          None
        | header, off, len -> (
          let v = { d; header; off; len } in
          let w = reseal v in
          let same = Quic.Writer.contents w = d.wire in
          Quic.Writer.release w;
          match parse_frames v with
          | _ when same -> Some v
          | _ ->
            incr bad;
            None
          | exception _ ->
            incr bad;
            None))
      caps
  in
  (Array.of_list ok, !bad)

(* ns per element of [f] over [arr], repeating whole passes until at
   least 20 ms have been timed. *)
let time_per arr f =
  let n = Array.length arr in
  if n = 0 then 0.
  else begin
    let total = ref 0 and passes = ref 0 in
    while !total < 20_000_000 do
      let t0 = now_ns () in
      for i = 0 to n - 1 do
        f (Array.unsafe_get arr i)
      done;
      total := !total + (now_ns () - t0);
      incr passes
    done;
    float_of_int !total /. float_of_int (n * !passes)
  end

type replay = {
  dgrams : int;
  mismatches : int;
  unprotect_ns : float;
  parse_ns : float;
  seal_ns : float;
  find_sub_ns : float;
}

let replay caps =
  let vs, bad = verify caps in
  let unprotect_ns =
    time_per vs (fun v -> ignore (P.unprotect_view ~key:v.d.key v.d.wire))
  in
  let parse_ns = time_per vs (fun v -> ignore (parse_frames v)) in
  let seal_ns = time_per vs (fun v -> Quic.Writer.release (reseal v)) in
  let routed =
    Array.of_list
      (List.filter_map
         (fun v -> Option.map (fun t -> (t, v.d.wire)) v.d.table)
         (Array.to_list vs))
  in
  let find_sub_ns =
    time_per routed (fun (t, w) -> ignore (Engine.Conn_table.find_sub t w 1 8))
  in
  {
    dgrams = Array.length vs;
    mismatches = bad;
    unprotect_ns;
    parse_ns;
    seal_ns;
    find_sub_ns;
  }

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

(* Failed checks: each names how many attempted operations it failed. *)
type failures = { mutable failed : int; mutable reasons : string list }

let failures () = { failed = 0; reasons = [] }

let check f ~ops cond reason =
  if not cond then begin
    f.failed <- f.failed + ops;
    f.reasons <- reason :: f.reasons
  end

(* One JSON object on one line: the sample's numbers, its operation
   counts and the reason of every failed check. *)
let emit ~workload ~seed ~trace ~attempted f metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
  in
  let fields =
    List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (num v)) metrics
  in
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"attempted\": %d, \
     \"failed\": %d, \"failures\": [%s], \"metrics\": {%s}}\n%!"
    workload seed trace attempted (min attempted f.failed)
    (String.concat ", " (List.rev_map (Printf.sprintf "%S") f.reasons))
    (String.concat ", " fields)
