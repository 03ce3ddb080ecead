(* Receiver-side stream reassembly: out-of-order segments are held until the
   contiguous prefix grows; the application reads in order. *)

type t = {
  mutable segments : (int * string) list; (* (offset, data), sorted by offset *)
  mutable read_offset : int;              (* delivered to the application *)
  mutable fin_offset : int option;        (* final size once FIN is seen *)
  mutable highest : int;                  (* highest contiguous offset received *)
}

let create () =
  { segments = []; read_offset = 0; fin_offset = None; highest = 0 }

let note_fin t ~final =
  match t.fin_offset with
  | Some f when f <> final -> invalid_arg "Recvbuf.insert: inconsistent FIN"
  | _ -> t.fin_offset <- Some final

let store t ~offset data =
  let rec ins = function
    | [] -> [ (offset, data) ]
    | (o, d) :: rest ->
      if offset < o then (offset, data) :: (o, d) :: rest else (o, d) :: ins rest
  in
  t.segments <- ins t.segments

(* advance the contiguous frontier *)
let advance t =
  let rec frontier pos = function
    | [] -> pos
    | (o, d) :: rest ->
      if o > pos then pos else frontier (max pos (o + String.length d)) rest
  in
  t.highest <- frontier (max t.highest t.read_offset) t.segments

let insert t ~offset ~fin data =
  if fin then note_fin t ~final:(offset + String.length data);
  if String.length data > 0 && offset + String.length data > t.read_offset then
    store t ~offset data;
  advance t

(* The single copy of the zero-copy receive path: a frame view's payload
   crosses from the borrowed datagram into the reassembly buffer here.
   Duplicates entirely below the read offset are dropped without
   materializing at all. *)
let insert_sub t ~offset ~fin s ~off ~len =
  if fin then note_fin t ~final:(offset + len);
  if len > 0 && offset + len > t.read_offset then
    store t ~offset (String.sub s off len);
  advance t

(* In-order fast path: when a frame lands exactly at the read offset with
   nothing buffered ahead of it, the host can hand its payload straight to
   the application without staging it in the segment list — the common
   case of a bulk transfer arriving in order. This only moves the
   bookkeeping; the caller performs the single payload copy itself (it
   owns the borrowed wire buffer) and delivers, exactly as a
   store-then-[read] round trip would have. *)
let insert_inline t ~offset ~fin ~len =
  if offset = t.read_offset && t.segments = [] then begin
    if fin then note_fin t ~final:(offset + len);
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
    Bytes.to_string out
  end

let contiguous t = t.highest

let is_finished t =
  match t.fin_offset with Some f -> t.highest >= f && t.read_offset >= f | None -> false

let fin_seen t = t.fin_offset <> None

