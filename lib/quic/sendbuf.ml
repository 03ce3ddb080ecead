(* Sender-side stream buffer: application data queued at increasing offsets,
   chunked for transmission, retransmitted on loss, and released once
   acknowledged. Offsets are absolute from the stream start.

   The hot path is allocation-free: [next_span] hands out (offset, len)
   against the internal buffer and [blit] copies the bytes straight into
   the wire buffer, so queued data is never re-materialized as a string;
   retransmit state is only (offset, len) ranges — losing a packet never
   copies its payload. The byte count of the retransmit queue is cached
   ([retransmit_len]) because the packet builder queries it for every
   stream on every packet. *)

type t = {
  data : Buffer.t;                       (* all bytes ever written *)
  mutable next_send : int;               (* lowest never-sent offset *)
  mutable retransmit : (int * int) list; (* (offset, len) queue, sorted *)
  mutable retransmit_len : int;          (* cached sum of queued lengths *)
  mutable acked : (int * int) list;      (* disjoint acked (offset,len), sorted *)
  mutable fin : bool;
  mutable fin_sent : bool;
  mutable fin_acked : bool;
}

let create () =
  {
    data = Buffer.create 4096;
    next_send = 0;
    retransmit = [];
    retransmit_len = 0;
    acked = [];
    fin = false;
    fin_sent = false;
    fin_acked = false;
  }

let write t s = Buffer.add_string t.data s

let finish t = t.fin <- true

let total_written t = Buffer.length t.data

let has_retransmissions t = t.retransmit <> []

(* Re-derive the cached retransmit byte count after the (rare) queue
   rewrites in [on_acked]/[on_lost]; the hot-path queries stay O(1). *)
let refresh_retransmit_len t =
  t.retransmit_len <- List.fold_left (fun acc (_, l) -> acc + l) 0 t.retransmit

(* Bytes awaiting (re)transmission. *)
let pending_bytes t =
  t.retransmit_len + (Buffer.length t.data - t.next_send)

(* New, never-sent data (or an unsent FIN) is available. *)
let has_new t =
  t.next_send < Buffer.length t.data || (t.fin && not t.fin_sent)

(* Is there anything ready to transmit? *)
let has_pending t =
  t.retransmit <> []
  || t.next_send < Buffer.length t.data
  || (t.fin && not t.fin_sent)

(* Next span to put on the wire, without copying: retransmissions take
   priority over new data. Returns (offset, len, fin_flag) against the
   internal buffer — the bytes are fetched with [blit]. *)
let next_span t ~max_len =
  if max_len <= 0 then None
  else
    match t.retransmit with
    | (off, len) :: rest ->
      let take = min len max_len in
      if take = len then t.retransmit <- rest
      else t.retransmit <- (off + take, len - take) :: rest;
      t.retransmit_len <- t.retransmit_len - take;
      let fin = t.fin && off + take = Buffer.length t.data in
      if fin then t.fin_sent <- true;
      Some (off, take, fin)
    | [] ->
      let avail = Buffer.length t.data - t.next_send in
      if avail <= 0 then
        if t.fin && not t.fin_sent then begin
          t.fin_sent <- true;
          Some (t.next_send, 0, true)
        end
        else None
      else begin
        let take = min avail max_len in
        let off = t.next_send in
        t.next_send <- off + take;
        let fin = t.fin && t.next_send = Buffer.length t.data in
        if fin then t.fin_sent <- true;
        Some (off, take, fin)
      end

(* Copy [len] queued bytes at [off] into [dst] at [dst_off]. *)
let blit t ~off ~len dst ~dst_off = Buffer.blit t.data off dst dst_off len

(* Copying variant of [next_span], for callers outside the pooled
   datapath (tests, reference paths). *)
let next_chunk t ~max_len =
  match next_span t ~max_len with
  | None -> None
  | Some (off, len, fin) -> Some (off, Buffer.sub t.data off len, fin)

(* Merge (off, len) into the sorted disjoint list [ranges]. *)
let merge_range ranges (off, len) =
  if len = 0 then ranges
  else begin
    let rec go = function
      | [] -> [ (off, len) ]
      | (o, l) :: rest ->
        if off + len < o then (off, len) :: (o, l) :: rest
        else if o + l < off then (o, l) :: go rest
        else
          (* overlap or adjacency: fuse and continue merging *)
          let no = min o off and nlast = max (o + l) (off + len) in
          merge_into (no, nlast - no) rest
    and merge_into (o, l) = function
      | [] -> [ (o, l) ]
      | (o2, l2) :: rest ->
        if o + l < o2 then (o, l) :: (o2, l2) :: rest
        else
          let no = min o o2 and nlast = max (o + l) (o2 + l2) in
          merge_into (no, nlast - no) rest
    in
    go ranges
  end

let on_acked t ~offset ~len ~fin =
  t.acked <- merge_range t.acked (offset, len);
  if fin then t.fin_acked <- true;
  (* drop queued retransmissions now covered by the ack *)
  t.retransmit <-
    List.concat_map
      (fun (o, l) ->
        let covered (ao, al) = o >= ao && o + l <= ao + al in
        if List.exists covered t.acked then []
        else [ (o, l) ])
      t.retransmit;
  refresh_retransmit_len t

let on_lost t ~offset ~len ~fin =
  let covered (ao, al) = offset >= ao && offset + len <= ao + al in
  if not (List.exists covered t.acked) && len > 0 then begin
    t.retransmit <- merge_range t.retransmit (offset, len);
    refresh_retransmit_len t
  end;
  if fin && not t.fin_acked then t.fin_sent <- false
