(* TCP Cubic congestion control (RFC 8312): cubic window growth with the
   TCP-friendly (Reno) lower bound, beta = 0.7, C = 0.4. Window is kept in
   bytes; times in seconds. This is the TCPCubic the paper runs inside and
   outside the VPN tunnels (Sections 4.2 and 4.5). *)

type t = {
  mss : int;
  mutable cwnd : float;          (* bytes *)
  mutable ssthresh : float;
  mutable w_max : float;
  mutable k : float;
  mutable epoch_start : float;   (* negative: no epoch running *)
  mutable w_est : float;         (* TCP-friendly estimate *)
  mutable min_rtt : float;       (* HyStart reference *)
}

let c_cubic = 0.4
let beta = 0.7

let create ?(mss = 1460) ?(initial_window_segments = 10) () =
  {
    mss;
    cwnd = float_of_int (initial_window_segments * mss);
    ssthresh = infinity;
    w_max = 0.;
    k = 0.;
    epoch_start = -1.;
    w_est = 0.;
    min_rtt = infinity;
  }

let cwnd t = int_of_float t.cwnd

(* ssthresh in bytes; [max_int] while still unset (infinity). *)
let ssthresh t =
  if Float.is_finite t.ssthresh then int_of_float t.ssthresh else max_int

(* Plugin-driven window override, mirroring [Quic.Cc.set_cwnd]: floor at
   two segments, and a window forced below ssthresh drags ssthresh down
   with it so the host does not blast back in slow start. *)
let set_cwnd t v =
  t.cwnd <- Float.max (2. *. float_of_int t.mss) (float_of_int v);
  if t.cwnd < t.ssthresh then t.ssthresh <- t.cwnd

let in_slow_start t = t.cwnd < t.ssthresh

let cbrt x = if x < 0. then -.((-.x) ** (1. /. 3.)) else x ** (1. /. 3.)

(* Cubic window as a function of time since the epoch started. *)
let w_cubic t elapsed =
  let mss = float_of_int t.mss in
  (c_cubic *. ((elapsed -. t.k) ** 3.) *. mss) +. t.w_max

let on_ack t ~now ~acked_bytes ~rtt =
  let mss = float_of_int t.mss in
  if rtt < t.min_rtt then t.min_rtt <- rtt;
  if in_slow_start t then begin
    t.cwnd <- t.cwnd +. float_of_int acked_bytes;
    if t.cwnd >= t.ssthresh then t.cwnd <- t.ssthresh;
    (* HyStart-style delay increase detection: leave slow start before
       flooding the bottleneck queue *)
    if
      t.cwnd > 16. *. mss
      && Float.is_finite t.min_rtt
      && rtt > (t.min_rtt *. 1.33) +. 0.004
    then begin
      t.ssthresh <- t.cwnd;
      t.w_max <- t.cwnd
    end
  end
  else begin
    if t.epoch_start < 0. then begin
      t.epoch_start <- now;
      if t.cwnd < t.w_max then
        t.k <- cbrt ((t.w_max -. t.cwnd) /. (c_cubic *. mss))
      else t.k <- 0.;
      t.w_est <- t.cwnd
    end;
    let elapsed = now -. t.epoch_start in
    let target = w_cubic t (elapsed +. rtt) in
    (* TCP-friendly region: emulate Reno's 1 MSS per RTT of acked data *)
    t.w_est <-
      t.w_est
      +. (3. *. (1. -. beta) /. (1. +. beta))
         *. (float_of_int acked_bytes *. mss /. t.cwnd);
    let next =
      if target > t.cwnd then
        t.cwnd +. ((target -. t.cwnd) /. t.cwnd *. float_of_int acked_bytes)
      else t.cwnd +. (float_of_int acked_bytes *. mss /. (100. *. t.cwnd))
    in
    t.cwnd <- max next t.w_est
  end

(* Fast-retransmit loss: multiplicative decrease and a new cubic epoch. *)
let on_loss t ~now =
  ignore now;
  t.w_max <- t.cwnd;
  t.cwnd <- max (2. *. float_of_int t.mss) (t.cwnd *. beta);
  t.ssthresh <- t.cwnd;
  t.epoch_start <- -1.

(* Retransmission timeout: collapse to one segment. *)
let on_rto t =
  t.w_max <- t.cwnd;
  t.ssthresh <- max (2. *. float_of_int t.mss) (t.cwnd *. 0.5);
  t.cwnd <- float_of_int t.mss;
  t.epoch_start <- -1.
