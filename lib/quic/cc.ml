(* NewReno congestion controller, per the QUIC recovery draft: slow start
   doubles cwnd per RTT, congestion avoidance adds one MSS per cwnd of acked
   data, a loss halves cwnd once per recovery epoch. The initial window is a
   parameter because Figure 9 hinges on it: PQUIC uses 16 KiB while mp-quic
   inherited 32 KiB from quic-go. *)

type t = {
  mss : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable bytes_in_flight : int;
  mutable recovery_start : int64; (* packet number starting recovery; -1 none *)
  min_cwnd : int;
}

let default_initial_window = 16 * 1024 (* PQUIC's 16 kB initial path window *)

let create ?(mss = 1252) ?(initial_window = default_initial_window) () =
  {
    mss;
    cwnd = initial_window;
    ssthresh = max_int;
    bytes_in_flight = 0;
    recovery_start = -1L;
    min_cwnd = 2 * mss;
  }

let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let bytes_in_flight t = t.bytes_in_flight
let in_slow_start t = t.cwnd < t.ssthresh

let available t = max 0 (t.cwnd - t.bytes_in_flight)


let on_packet_sent t ~size = t.bytes_in_flight <- t.bytes_in_flight + size

(* Window growth on an acknowledgment; [pn] is the acked packet number and
   growth is suppressed while recovering from a loss that happened after
   [pn] was sent. Does NOT touch bytes-in-flight accounting: the engine
   keeps that native so congestion-control plugins can replace the window
   policy without breaking bookkeeping. *)
let grow_on_ack t ~pn ~size =
  if pn > t.recovery_start then
    if in_slow_start t then t.cwnd <- t.cwnd + size
    else t.cwnd <- t.cwnd + max 1 (t.mss * size / t.cwnd)

(* Multiplicative decrease, once per recovery epoch. *)
let shrink_on_loss t ~pn ~largest_sent =
  if pn > t.recovery_start then begin
    t.recovery_start <- largest_sent;
    t.cwnd <- max t.min_cwnd (t.cwnd / 2);
    t.ssthresh <- t.cwnd
  end

let on_packet_acked t ~pn ~size =
  t.bytes_in_flight <- max 0 (t.bytes_in_flight - size);
  grow_on_ack t ~pn ~size

let on_packet_lost t ~pn ~size ~largest_sent =
  t.bytes_in_flight <- max 0 (t.bytes_in_flight - size);
  shrink_on_loss t ~pn ~largest_sent

(* Direct window control for plugins replacing the congestion-control
   operations (or reacting to ECN marks) through the set API. *)
let set_cwnd t v =
  t.cwnd <- max t.min_cwnd v;
  if t.cwnd < t.ssthresh then t.ssthresh <- t.cwnd

(* Persistent timeout: collapse to minimum window. *)
let on_retransmission_timeout t =
  t.ssthresh <- max t.min_cwnd (t.cwnd / 2);
  t.cwnd <- t.min_cwnd;
  t.recovery_start <- -1L

(* Persistent congestion (RFC 9002 §7.6): the network was unusable for
   longer than the persistent-congestion duration, so restart from the
   minimum window in slow start as if the connection were new. *)
let collapse = on_retransmission_timeout

let forget_in_flight t ~size = t.bytes_in_flight <- max 0 (t.bytes_in_flight - size)
