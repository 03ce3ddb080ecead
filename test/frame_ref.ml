(* Reference codec for [Quic.Frame]: an allocating encoder over [Buffer]
   and an allocating parser over strings, written against the boxed
   [Varint.read]/[Varint.write] primitives. It shares nothing but the
   frame-type numbers with the production
   [Frame.write]/[Frame.size]/[Frame.parse_view], so the
   differential suites in test_datapath.ml and test_quic.ml compare two
   independent readings of the same wire format. *)

module F = Quic.Frame
module Varint = Quic.Varint

let write_string_16 buf s =
  Buffer.add_uint16_be buf (String.length s);
  Buffer.add_string buf s

let serialize buf frame =
  Varint.write_int buf (F.frame_type frame);
  match (frame : F.t) with
  | Padding n -> for _ = 2 to n do Buffer.add_uint8 buf 0 done
  | Ping | Handshake_done -> ()
  | Ack { largest; delay_us; ranges } ->
    Varint.write buf largest;
    Varint.write buf delay_us;
    (match ranges with
     | [] -> invalid_arg "Ack with no ranges"
     | (first, last) :: rest ->
       assert (last = largest);
       Varint.write_int buf (List.length rest);
       Varint.write buf (Int64.sub last first);
       let prev_first = ref first in
       List.iter
         (fun (first, last) ->
           (* gap = prev_first - last - 2, per the draft's encoding *)
           Varint.write buf (Int64.sub (Int64.sub !prev_first last) 2L);
           Varint.write buf (Int64.sub last first);
           prev_first := first)
         rest)
  | Crypto { offset; data } ->
    Varint.write buf offset;
    Varint.write_int buf (String.length data);
    Buffer.add_string buf data
  | Stream { id; offset; fin = _; data } ->
    Varint.write_int buf id;
    Varint.write buf offset;
    Varint.write_int buf (String.length data);
    Buffer.add_string buf data
  | Max_data v -> Varint.write buf v
  | Max_stream_data { id; max } ->
    Varint.write_int buf id;
    Varint.write buf max
  | Connection_close { code; reason } ->
    Varint.write_int buf code;
    write_string_16 buf reason
  | Path_challenge v | Path_response v -> Buffer.add_int64_be buf v
  | New_connection_id { seq; cid } ->
    Varint.write buf seq;
    Buffer.add_int64_be buf cid
  | Retire_connection_id seq -> Varint.write buf seq
  | Plugin_validate { plugin; formula } ->
    write_string_16 buf plugin;
    write_string_16 buf formula
  | Plugin_proof { plugin; proof } ->
    write_string_16 buf plugin;
    write_string_16 buf proof
  | Plugin_chunk { plugin; offset; fin; data } ->
    write_string_16 buf plugin;
    Varint.write buf offset;
    Buffer.add_uint8 buf (if fin then 1 else 0);
    write_string_16 buf data
  | Unknown { raw; _ } -> Buffer.add_string buf raw

let to_string frame =
  let buf = Buffer.create 64 in
  serialize buf frame;
  Buffer.contents buf

(* Wire size of a frame, by serializing it. *)
let wire_size frame = String.length (to_string frame)

let read_string_16 s pos =
  if pos + 2 > String.length s then raise Varint.Truncated;
  let len = String.get_uint16_be s pos in
  if pos + 2 + len > String.length s then raise Varint.Truncated;
  (String.sub s (pos + 2) len, pos + 2 + len)

(* The [Ack] whose header is decoded and whose [count] further ranges
   start at [pos] of [s]; returns it and the position after them. *)
let ack_of_wire s ~largest ~delay_us ~first_len ~count pos =
  let first_range = (Int64.sub largest first_len, largest) in
  let rec ranges k prev_first pos acc =
    if k = 0 then (List.rev acc, pos)
    else
      let gap, pos = Varint.read s pos in
      let len, pos = Varint.read s pos in
      let last = Int64.sub (Int64.sub prev_first gap) 2L in
      let first = Int64.sub last len in
      ranges (k - 1) first pos ((first, last) :: acc)
  in
  let rest, pos = ranges count (fst first_range) pos [] in
  (F.Ack { largest; delay_us; ranges = first_range :: rest }, pos)

(* Materialize a view into the equivalent allocating frame; [s] is the
   datagram the view indexes. *)
let of_view s : F.view -> F.t = function
  | V_frame f -> f
  | V_ack { largest; delay_us; first_len; count; off; len = _ } ->
    fst
      (ack_of_wire s ~largest:(Int64.of_int largest)
         ~delay_us:(Int64.of_int delay_us) ~first_len:(Int64.of_int first_len)
         ~count off)
  | V_crypto { offset; off; len } ->
    Crypto { offset; data = String.sub s off len }
  | V_stream { id; offset; fin; off; len } ->
    Stream { id; offset; fin; data = String.sub s off len }
  | V_unknown { ftype; off; len } ->
    Unknown { ftype; raw = String.sub s off len }

(* Parse one frame at [pos]. For unknown types the remainder of the payload
   is captured raw and the returned position is the end of the buffer.
   @raise Varint.Truncated on malformed input. *)
let parse s pos : F.t * int =
  let ftype, pos = Varint.read_int s pos in
  if ftype = F.type_padding then begin
    (* swallow the run of padding *)
    let p = ref pos in
    while !p < String.length s && s.[!p] = '\000' do incr p done;
    (Padding (!p - pos + 1), !p)
  end
  else if ftype = F.type_ping then (Ping, pos)
  else if ftype = F.type_handshake_done then (Handshake_done, pos)
  else if ftype = F.type_ack then begin
    let largest, pos = Varint.read s pos in
    let delay_us, pos = Varint.read s pos in
    let count, pos = Varint.read_int s pos in
    let first_len, pos = Varint.read s pos in
    ack_of_wire s ~largest ~delay_us ~first_len ~count pos
  end
  else if ftype = F.type_crypto then begin
    let offset, pos = Varint.read s pos in
    let len, pos = Varint.read_int s pos in
    if pos + len > String.length s then raise Varint.Truncated;
    (Crypto { offset; data = String.sub s pos len }, pos + len)
  end
  else if ftype = F.type_stream || ftype = F.type_stream_nofin then begin
    let id, pos = Varint.read_int s pos in
    let offset, pos = Varint.read s pos in
    let len, pos = Varint.read_int s pos in
    if pos + len > String.length s then raise Varint.Truncated;
    ( Stream
        { id; offset; fin = ftype = F.type_stream; data = String.sub s pos len },
      pos + len )
  end
  else if ftype = F.type_max_data then
    let v, pos = Varint.read s pos in
    (Max_data v, pos)
  else if ftype = F.type_max_stream_data then begin
    let id, pos = Varint.read_int s pos in
    let max, pos = Varint.read s pos in
    (Max_stream_data { id; max }, pos)
  end
  else if ftype = F.type_connection_close then begin
    let code, pos = Varint.read_int s pos in
    let reason, pos = read_string_16 s pos in
    (Connection_close { code; reason }, pos)
  end
  else if ftype = F.type_path_challenge || ftype = F.type_path_response then begin
    if pos + 8 > String.length s then raise Varint.Truncated;
    let v = String.get_int64_be s pos in
    ((if ftype = F.type_path_challenge then Path_challenge v
      else Path_response v),
     pos + 8)
  end
  else if ftype = F.type_new_connection_id then begin
    let seq, pos = Varint.read s pos in
    if pos + 8 > String.length s then raise Varint.Truncated;
    let cid = String.get_int64_be s pos in
    (New_connection_id { seq; cid }, pos + 8)
  end
  else if ftype = F.type_retire_connection_id then
    let seq, pos = Varint.read s pos in
    (Retire_connection_id seq, pos)
  else if ftype = F.type_plugin_validate then begin
    let plugin, pos = read_string_16 s pos in
    let formula, pos = read_string_16 s pos in
    (Plugin_validate { plugin; formula }, pos)
  end
  else if ftype = F.type_plugin_proof then begin
    let plugin, pos = read_string_16 s pos in
    let proof, pos = read_string_16 s pos in
    (Plugin_proof { plugin; proof }, pos)
  end
  else if ftype = F.type_plugin_chunk then begin
    let plugin, pos = read_string_16 s pos in
    let offset, pos = Varint.read s pos in
    if pos >= String.length s then raise Varint.Truncated;
    let fin = s.[pos] <> '\000' in
    let data, pos = read_string_16 s (pos + 1) in
    (Plugin_chunk { plugin; offset; fin; data }, pos)
  end
  else
    (Unknown { ftype; raw = String.sub s pos (String.length s - pos) },
     String.length s)
