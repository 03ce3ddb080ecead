(* Receiver-side stream reassembly: out-of-order segments are held until the
   contiguous prefix grows; the application reads in order. Segments sit
   in a map by offset, so a fragment costs O(log n). None lies below
   [read_offset] and none straddles [highest], which makes the frontier
   and [read] plain map probes. *)

module Segs = Map.Make (Int)

type t = {
  mutable segments : string Segs.t;
  (* offset -> data, disjoint: each byte is held once *)
  mutable read_offset : int;              (* delivered to the application *)
  mutable fin_offset : int option;        (* final size once FIN is seen *)
  mutable highest : int;                  (* highest contiguous offset received *)
  mutable received_end : int;             (* highest offset any frame reached *)
}

let create () =
  { segments = Segs.empty; read_offset = 0; fin_offset = None; highest = 0;
    received_end = 0 }

let note_fin t ~final =
  match t.fin_offset with
  | Some f when f <> final -> invalid_arg "Recvbuf.insert: inconsistent FIN"
  | _ -> t.fin_offset <- Some final

let note_end t e = if e > t.received_end then t.received_end <- e

(* Hold the bytes of [s.[off .. off+len-1]] (stream offsets
   [offset .. offset+len-1]) that are unread and in no stored segment:
   the first copy of a byte wins, so a repeated or overlapping fragment
   adds only what is new — nothing, and copies nothing, when it is wholly
   covered. *)
let store t ~offset s ~off ~len =
  let hi = offset + len in
  let piece lo hi =
    t.segments <- Segs.add lo (String.sub s (off + lo - offset) (hi - lo)) t.segments
  in
  let rec fill lo =
    if lo < hi then
      match Segs.find_first_opt (fun o -> o >= lo) t.segments with
      | Some (o, d) when o < hi ->
        if lo < o then piece lo o;
        fill (o + String.length d)
      | _ -> piece lo hi
  in
  let lo = max offset t.read_offset in
  if lo < hi then
    (* skip what a segment starting at or before [lo] already holds *)
    match Segs.find_last_opt (fun o -> o <= lo) t.segments with
    | Some (o, d) -> fill (max lo (o + String.length d))
    | None -> fill lo

(* advance the contiguous frontier: a segment holding the byte at the
   frontier starts exactly there *)
let advance t =
  let rec frontier pos =
    match Segs.find_opt pos t.segments with
    | Some d -> frontier (pos + String.length d)
    | None -> pos
  in
  t.highest <- frontier (max t.highest t.read_offset)

(* The single copy of the zero-copy receive path: the new bytes of a frame
   view's payload cross from the borrowed datagram into the reassembly
   buffer here. *)
let insert_sub t ~offset ~fin s ~off ~len =
  if fin then note_fin t ~final:(offset + len);
  note_end t (offset + len);
  store t ~offset s ~off ~len;
  advance t

let insert t ~offset ~fin data =
  insert_sub t ~offset ~fin data ~off:0 ~len:(String.length data)

(* In-order fast path: when a frame lands exactly at the read offset with
   nothing buffered ahead of it, the host can hand its payload straight to
   the application without staging it in the segment map — the common
   case of a bulk transfer arriving in order. This only moves the
   bookkeeping; the caller performs the single payload copy itself (it
   owns the borrowed wire buffer) and delivers, exactly as a
   store-then-[read] round trip would have. *)
let insert_inline t ~offset ~fin ~len =
  if offset = t.read_offset && Segs.is_empty t.segments then begin
    if fin then note_fin t ~final:(offset + len);
    note_end t (offset + len);
    t.read_offset <- offset + len;
    if t.highest < t.read_offset then t.highest <- t.read_offset;
    true
  end
  else false

(* Read all contiguous data past the read offset: the segments below the
   frontier, each wholly. *)
let read t =
  if t.highest <= t.read_offset then ""
  else begin
    let from = t.read_offset in
    let out = Bytes.create (t.highest - from) in
    let below, _, above = Segs.split t.highest t.segments in
    Segs.iter
      (fun o d -> Bytes.blit_string d 0 out (o - from) (String.length d))
      below;
    t.segments <- above;
    t.read_offset <- t.highest;
    (* [out] is fresh and never written again: hand it over uncopied *)
    Bytes.unsafe_to_string out
  end

let contiguous t = t.highest
let read_offset t = t.read_offset
let received_end t = t.received_end

let is_finished t =
  match t.fin_offset with Some f -> t.highest >= f | None -> false
