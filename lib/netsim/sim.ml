(* Discrete-event simulation core: a virtual clock in nanoseconds and a
   binary-heap event queue. Ties are broken by insertion order so runs are
   fully deterministic.

   The clock is an immediate [int] inside (2^62 ns is 146 years), so the
   heap compares and stores no boxed values; the public [time] stays
   [int64], and [now] is re-boxed only when the clock advances. *)

type time = int64

let ns = 1L
let us = 1_000L
let ms = 1_000_000L
let sec = 1_000_000_000L

let of_ms f = Int64.of_float (f *. 1e6)
let of_sec f = Int64.of_float (f *. 1e9)
let to_sec t = Int64.to_float t /. 1e9

type event = { at : int; seq : int; fn : unit -> unit; mutable cancelled : bool }

(* State a layer above keeps per simulator, extended like [Net.payload]:
   it lives and dies with the simulator, not in a process-wide table. *)
type slot = ..
type slot += No_slot

type t = {
  mutable now : time;  (* boxed mirror of [now_ns] *)
  mutable now_ns : int;
  mutable cur_seq : int;
      (* with [now_ns], the simulator's position: the last executed event,
         or (horizon, next_seq - 1) after a stop at [until] *)
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int;
  mutable slot : slot;
}

(* What [pop] returns on an empty heap, so popping allocates no option. *)
let empty = { at = max_int; seq = max_int; fn = ignore; cancelled = true }

let create () =
  { now = 0L; now_ns = 0; cur_seq = -1;
    heap = Array.make 256 empty; size = 0; next_seq = 0; slot = No_slot }

let now t = t.now
let slot t = t.slot
let set_slot t s = t.slot <- s

let now_ns t = t.now_ns

(* [time] to the int clock, saturating where int64 exceeds the int range. *)
let to_ns (x : time) =
  if x >= Int64.of_int max_int then max_int
  else if x <= Int64.of_int min_int then min_int
  else Int64.to_int x

let advance t at =
  if at <> t.now_ns then begin
    t.now_ns <- at;
    t.now <- Int64.of_int at
  end

let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  let heap = Array.make (2 * cap) empty in
  Array.blit t.heap 0 heap 0 cap;
  t.heap <- heap

(* Both sifts move a hole and write the moving event once, at the end. *)
let push t ev =
  if t.size = Array.length t.heap then grow t;
  let h = t.heap in
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = h.(parent) in
    if before ev p then begin
      h.(!i) <- p;
      i := parent
    end
    else continue := false
  done;
  h.(!i) <- ev

let pop t =
  if t.size = 0 then empty
  else begin
    let h = t.heap in
    let top = h.(0) in
    let n = t.size - 1 in
    t.size <- n;
    let last = h.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
        let child = h.(c) in
        if before child last then begin
          h.(!i) <- child;
          i := c
        end
        else continue := false
      end
    done;
    h.(!i) <- last;
    top
  end

(* Schedule [fn] at absolute time [at] ns (a past [at] means now). Returns
   a handle usable with [cancel] — cancelled events stay in the heap but
   are skipped. *)
let schedule_ns t ~at fn =
  let ev =
    { at = (if at < t.now_ns then t.now_ns else at); seq = t.next_seq; fn;
      cancelled = false }
  in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  ev

let schedule t ~delay fn =
  if delay < 0L then invalid_arg "Sim.schedule: negative delay";
  schedule_ns t ~at:(t.now_ns + to_ns delay) fn

let schedule_at t ~at fn = schedule_ns t ~at:(to_ns at) fn

let cancel ev = ev.cancelled <- true
let seq ev = ev.seq

let passed t ~at ~seq = at < t.now_ns || (at = t.now_ns && seq <= t.cur_seq)

(* Run until the queue is empty or the clock passes [until]. Returns the
   number of events executed. *)
let run ?until ?(max_events = max_int) t =
  let limit = match until with None -> max_int | Some l -> to_ns l in
  let executed = ref 0 in
  let stop = ref false in
  while (not !stop) && !executed < max_events do
    let ev = pop t in
    if ev == empty then stop := true
    else if ev.cancelled then ()
    else if ev.at > limit then begin
      (* Put it back: it belongs to the future beyond the horizon. The
         clock moves up to the horizon, never back. *)
      push t ev;
      if limit >= t.now_ns then begin
        advance t limit;
        t.cur_seq <- t.next_seq - 1
      end;
      stop := true
    end
    else begin
      advance t ev.at;
      t.cur_seq <- ev.seq;
      incr executed;
      ev.fn ()
    end
  done;
  !executed

let pending t = t.size
