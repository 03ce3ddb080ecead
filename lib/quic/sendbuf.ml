(* Sender-side stream buffer: application data queued at increasing offsets,
   chunked for transmission, retransmitted on loss, and released once
   acknowledged. Offsets are absolute from the stream start.

   The bytes are the written strings themselves, held by reference in
   write order ([chunks], each starting at [starts.(i)]): strings are
   immutable, so [write] copies nothing, and a buffer nobody has written
   to holds no storage at all. Live chunks are [head, len); the slots
   below [head] are released. After every acknowledgment the chunks that
   lie wholly below the release limit go (see [release]); once all of
   them have, the buffer is back on the shared empty arrays.

   The hot path is allocation-free: [next_span] hands out (offset, len)
   against the queued data and [blit] copies the bytes straight into the
   wire buffer, so queued data is never re-materialized as a string;
   retransmit state is only (offset, len) ranges — losing a packet never
   copies its payload. The byte count of the retransmit queue is cached
   ([retransmit_len]) because the packet builder queries it for every
   stream on every packet. *)

type t = {
  mutable chunks : string array;         (* written strings, by reference *)
  mutable starts : int array;            (* absolute offset of each chunk *)
  mutable head : int;                    (* first retained chunk *)
  mutable len : int;                     (* chunk slots in use *)
  mutable total : int;                   (* bytes ever written *)
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
    chunks = [||];
    starts = [||];
    head = 0;
    len = 0;
    total = 0;
    next_send = 0;
    retransmit = [];
    retransmit_len = 0;
    acked = [];
    fin = false;
    fin_sent = false;
    fin_acked = false;
  }

(* Queue [s] by reference. A full chunk array is compacted in place when
   at most half its slots are live, and doubled otherwise. *)
let write t s =
  if s <> "" then begin
    if t.len = Array.length t.chunks then begin
      let live = t.len - t.head in
      if t.len > 0 && 2 * live <= t.len then begin
        Array.blit t.chunks t.head t.chunks 0 live;
        Array.blit t.starts t.head t.starts 0 live;
        Array.fill t.chunks live (t.len - live) ""
      end
      else begin
        let cap = max 4 (2 * t.len) in
        let chunks = Array.make cap "" and starts = Array.make cap 0 in
        Array.blit t.chunks t.head chunks 0 live;
        Array.blit t.starts t.head starts 0 live;
        t.chunks <- chunks;
        t.starts <- starts
      end;
      t.head <- 0;
      t.len <- live
    end;
    t.chunks.(t.len) <- s;
    t.starts.(t.len) <- t.total;
    t.len <- t.len + 1;
    t.total <- t.total + String.length s
  end

let finish t = t.fin <- true

let total_written t = t.total

let has_retransmissions t = t.retransmit <> []

(* Re-derive the cached retransmit byte count after the (rare) queue
   rewrite in [on_lost]; the hot-path queries stay O(1). *)
let refresh_retransmit_len t =
  t.retransmit_len <- List.fold_left (fun acc (_, l) -> acc + l) 0 t.retransmit

(* Bytes awaiting (re)transmission. *)
let pending_bytes t =
  t.retransmit_len + (t.total - t.next_send)

(* New, never-sent data (or an unsent FIN) is available. *)
let has_new t =
  t.next_send < t.total || (t.fin && not t.fin_sent)

(* Is there anything ready to transmit? *)
let has_pending t =
  t.retransmit <> []
  || t.next_send < t.total
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
      let fin = t.fin && off + take = t.total in
      if fin then t.fin_sent <- true;
      Some (off, take, fin)
    | [] ->
      let avail = t.total - t.next_send in
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
        let fin = t.fin && t.next_send = t.total in
        if fin then t.fin_sent <- true;
        Some (off, take, fin)
      end

(* Index of the retained chunk holding [off], by binary search over the
   ascending [starts]; [off] must lie in a retained chunk. *)
let chunk_at t off =
  let lo = ref t.head and hi = ref (t.len - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.starts.(mid) <= off then lo := mid else hi := mid - 1
  done;
  !lo

(* Copy [len] queued bytes at [off] into [dst] at [dst_off], across chunk
   boundaries. A range reaching into released bytes is a caller bug and
   raises rather than returning stale data. *)
let blit t ~off ~len dst ~dst_off =
  if off < 0 || len < 0 || off + len > t.total
     || dst_off < 0 || dst_off + len > Bytes.length dst
  then invalid_arg "Sendbuf.blit";
  if len > 0 then begin
    if t.head = t.len || off < t.starts.(t.head) then
      invalid_arg "Sendbuf.blit: released range";
    let i = ref (chunk_at t off) and pos = ref off and dst_pos = ref dst_off in
    let stop = off + len in
    while !pos < stop do
      let c = t.chunks.(!i) and cstart = t.starts.(!i) in
      let n = min (stop - !pos) (cstart + String.length c - !pos) in
      Bytes.blit_string c (!pos - cstart) dst !dst_pos n;
      pos := !pos + n;
      dst_pos := !dst_pos + n;
      incr i
    done
  end

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

(* Drop every chunk lying wholly below both the acknowledged prefix and
   the first queued retransmission. Nothing the buffer can still send
   lies below that limit: new data starts at [next_send], past the
   prefix; the retransmit queue is sorted; and a range reported lost
   later is not covered by the prefix, since a byte is in flight in at
   most one packet at a time (it is resent only once its packet is
   declared lost) and a packet is acknowledged or lost, once. *)
let release t =
  let prefix = match t.acked with (0, l) :: _ -> l | _ -> 0 in
  let limit =
    match t.retransmit with (o, _) :: _ -> min o prefix | [] -> prefix
  in
  while
    t.head < t.len
    && t.starts.(t.head) + String.length t.chunks.(t.head) <= limit
  do
    t.chunks.(t.head) <- "";
    t.head <- t.head + 1
  done;
  if t.head = t.len && t.len > 0 then begin
    t.chunks <- [||];
    t.starts <- [||];
    t.head <- 0;
    t.len <- 0
  end

let on_acked t ~offset ~len ~fin =
  t.acked <- merge_range t.acked (offset, len);
  if fin then t.fin_acked <- true;
  release t

let on_lost t ~offset ~len ~fin =
  let covered (ao, al) = offset >= ao && offset + len <= ao + al in
  if not (List.exists covered t.acked) && len > 0 then begin
    t.retransmit <- merge_range t.retransmit (offset, len);
    refresh_retransmit_len t
  end;
  if fin && not t.fin_acked then t.fin_sent <- false
