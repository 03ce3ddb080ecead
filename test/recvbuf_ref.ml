(* Reference model for [Quic.Recvbuf]: the same reassembly over a sorted
   list of segments, as the receive buffer was before it kept them in a
   balanced map. Each fragment rebuilds the list up to where it lands, so
   its cost grows with the segments held. The differential test in
   test_quic.ml drives it and the real buffer with the same fragments:
   bytes read, frontier, received end and FIN errors must agree. *)

type t = {
  mutable segments : (int * string) list;
  (* (offset, data), sorted by offset and disjoint: each byte is held once *)
  mutable read_offset : int;              (* delivered to the application *)
  mutable fin_offset : int option;        (* final size once FIN is seen *)
  mutable highest : int;                  (* highest contiguous offset received *)
  mutable received_end : int;             (* highest offset any frame reached *)
}

let create () =
  { segments = []; read_offset = 0; fin_offset = None; highest = 0;
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
  let piece lo hi = (lo, String.sub s (off + lo - offset) (hi - lo)) in
  let rec ins lo hi segs =
    match segs with
    | _ when lo >= hi -> segs
    | [] -> [ piece lo hi ]
    | ((o, d) as seg) :: rest ->
      if hi <= o then piece lo hi :: segs
      else
        let rest = ins (max lo (o + String.length d)) hi rest in
        if lo < o then piece lo o :: seg :: rest else seg :: rest
  in
  t.segments <- ins (max offset t.read_offset) (offset + len) t.segments

(* advance the contiguous frontier *)
let advance t =
  let rec frontier pos = function
    | [] -> pos
    | (o, d) :: rest ->
      if o > pos then pos else frontier (max pos (o + String.length d)) rest
  in
  t.highest <- frontier (max t.highest t.read_offset) t.segments

let insert_sub t ~offset ~fin s ~off ~len =
  if fin then note_fin t ~final:(offset + len);
  note_end t (offset + len);
  store t ~offset s ~off ~len;
  advance t

let insert t ~offset ~fin data =
  insert_sub t ~offset ~fin data ~off:0 ~len:(String.length data)

(* in-order fast path: bookkeeping only, the caller delivers the bytes *)
let insert_inline t ~offset ~fin ~len =
  if offset = t.read_offset && t.segments = [] then begin
    if fin then note_fin t ~final:(offset + len);
    note_end t (offset + len);
    t.read_offset <- offset + len;
    if t.highest < t.read_offset then t.highest <- t.read_offset;
    true
  end
  else false

(* Read all contiguous data available past the read offset. *)
let read t =
  if t.highest <= t.read_offset then ""
  else begin
    let want_from = t.read_offset and want_to = t.highest in
    let out = Bytes.create (want_to - want_from) in
    List.iter
      (fun (o, d) ->
        let seg_end = o + String.length d in
        if seg_end > want_from && o < want_to then begin
          let src_start = max 0 (want_from - o) in
          let dst_start = max 0 (o - want_from) in
          let len = min seg_end want_to - max o want_from in
          Bytes.blit_string d src_start out dst_start len
        end)
      t.segments;
    t.read_offset <- want_to;
    (* drop fully consumed segments *)
    t.segments <-
      List.filter (fun (o, d) -> o + String.length d > t.read_offset) t.segments;
    Bytes.unsafe_to_string out
  end

let contiguous t = t.highest
let read_offset t = t.read_offset
let received_end t = t.received_end

let is_finished t =
  match t.fin_offset with Some f -> t.highest >= f | None -> false

