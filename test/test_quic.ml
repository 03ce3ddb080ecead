(* QUIC substrate tests: varints, frames, ACK ranges, stream buffers,
   packets, transport parameters, RTT and congestion control. *)

module F = Quic.Frame

let check = Alcotest.check

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ----------------------------- varint -------------------------------- *)

let varint_roundtrip =
  qtest "varint roundtrip"
    QCheck2.Gen.(
      oneof
        [ map Int64.of_int (int_range 0 0x3FFF);
          map Int64.of_int (int_range 0 0x3FFFFFFF);
          map (fun v -> Int64.logand (Int64.abs v) Quic.Varint.max_value)
            (map Int64.of_int (int_range 0 max_int)) ])
    (fun v ->
      let buf = Buffer.create 8 in
      Quic.Varint.write buf v;
      let got, pos = Quic.Varint.read (Buffer.contents buf) 0 in
      got = v && pos = Quic.Varint.encoded_size v)

let test_varint_sizes () =
  check Alcotest.int "1 byte" 1 (Quic.Varint.encoded_size 63L);
  check Alcotest.int "2 bytes" 2 (Quic.Varint.encoded_size 64L);
  check Alcotest.int "4 bytes" 4 (Quic.Varint.encoded_size 16384L);
  check Alcotest.int "8 bytes" 8 (Quic.Varint.encoded_size 1073741824L)

let test_varint_overflow () =
  let buf = Buffer.create 8 in
  (match Quic.Varint.write buf (-1L) with
  | exception Quic.Varint.Overflow -> ()
  | _ -> Alcotest.fail "negative accepted");
  match Quic.Varint.read "" 0 with
  | exception Quic.Varint.Truncated -> ()
  | _ -> Alcotest.fail "empty read"

(* ----------------------------- frames -------------------------------- *)

let gen_frame =
  let open QCheck2.Gen in
  let str = string_size ~gen:printable (int_range 0 100) in
  let off = map Int64.of_int (int_range 0 1_000_000) in
  oneof
    [
      return F.Ping;
      return F.Handshake_done;
      map3 (fun largest d extra ->
          let largest = Int64.of_int (largest + 1000) in
          let first = Int64.sub largest (Int64.of_int (d mod 5)) in
          let second_last = Int64.sub first (Int64.of_int ((extra mod 5) + 2)) in
          let second_first = Int64.sub second_last 1L in
          F.Ack
            { largest; delay_us = 25L;
              ranges = [ (first, largest); (second_first, second_last) ] })
        (int_range 0 10000) (int_range 0 10) (int_range 0 10);
      map2 (fun o data -> F.Crypto { offset = o; data }) off str;
      map3 (fun id o (fin, data) -> F.Stream { id; offset = o; fin; data })
        (int_range 0 100) off (pair bool str);
      map (fun v -> F.Max_data v) off;
      map2 (fun id max -> F.Max_stream_data { id; max }) (int_range 0 100) off;
      map2 (fun code reason -> F.Connection_close { code; reason })
        (int_range 0 100) str;
      map (fun v -> F.Path_challenge (Int64.of_int v)) (int_range 0 1000000);
      map2 (fun plugin formula -> F.Plugin_validate { plugin; formula }) str str;
      map3 (fun plugin o (fin, data) -> F.Plugin_chunk { plugin; offset = o; fin; data })
        str off (pair bool str);
    ]

(* The production encoder read back by the independent reference parser
   in frame_ref.ml. *)
let frame_roundtrip =
  qtest "frame serialize/parse roundtrip" gen_frame (fun f ->
      let wire = F.to_string f in
      let parsed, consumed = Frame_ref.parse wire 0 in
      parsed = f && consumed = String.length wire)

let frames_concatenated =
  qtest ~count:100 "multiple frames parse back in order"
    QCheck2.Gen.(list_size (int_range 1 8) gen_frame)
    (fun frames ->
      let w = Quic.Writer.create () in
      List.iter (F.write w) frames;
      let wire = Quic.Writer.contents w in
      let rec parse_all pos acc =
        if pos >= String.length wire then List.rev acc
        else
          let f, next = Frame_ref.parse wire pos in
          parse_all next (f :: acc)
      in
      parse_all 0 [] = frames)

(* [parse_view] of [wire] from [pos]: the view and the reader position
   after it. *)
let parse_view_at wire pos =
  let r = Quic.Reader.acquire () in
  Quic.Reader.reset r wire ~pos ~limit:(String.length wire);
  let v = F.parse_view r in
  let next = Quic.Reader.pos r in
  Quic.Reader.release r;
  (v, next)

let test_unknown_frame () =
  let wire = "\x30rest-of-payload" in
  match parse_view_at wire 0 with
  | F.V_unknown { ftype = 0x30; off; len }, next ->
    check Alcotest.string "raw captures remainder" "rest-of-payload"
      (String.sub wire off len);
    check Alcotest.int "reader at the payload end" (String.length wire) next
  | _ -> Alcotest.fail "expected Unknown"

let test_padding_run () =
  let wire = "\x00\x00\x00\x00\x01" (* 4 padding bytes then PING *) in
  let f1, pos = parse_view_at wire 0 in
  (match f1 with F.V_frame (F.Padding 4) -> () | _ -> Alcotest.fail "padding run");
  let f2, _ = parse_view_at wire pos in
  match f2 with F.V_frame F.Ping -> () | _ -> Alcotest.fail "ping after padding"

let test_ack_eliciting () =
  check Alcotest.bool "ack not eliciting" false
    (F.is_ack_eliciting (F.Ack { largest = 1L; delay_us = 0L; ranges = [ (1L, 1L) ] }));
  check Alcotest.bool "padding not eliciting" false (F.is_ack_eliciting (F.Padding 4));
  check Alcotest.bool "stream eliciting" true
    (F.is_ack_eliciting (F.Stream { id = 0; offset = 0L; fin = false; data = "x" }))

(* --------------------------- ack ranges ------------------------------ *)

module A = Quic.Ackranges

(* The range sequence, newest first, as (first, last) pairs. *)
let ranges_of t = List.init (A.count t) (fun i -> (A.first t i, A.last t i))

let ackranges_invariants =
  qtest "ackranges: contains/cardinal/sorted invariants"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 100))
    (fun pns ->
      let t = A.create ~max_ranges:1000 () in
      List.iter (fun pn -> A.add t (Int64.of_int pn)) pns;
      let distinct = List.sort_uniq compare pns in
      List.for_all (fun pn -> A.contains t (Int64.of_int pn)) distinct
      && A.cardinal t = List.length distinct
      && (* ranges must be disjoint, descending, non-adjacent *)
      let rec ok = function
        | [] | [ _ ] -> true
        | (first, _) :: ((_, last) :: _ as rest) -> first > last + 1 && ok rest
      in
      ok (ranges_of t))

let test_ackranges_merge () =
  let t = A.create () in
  List.iter (fun pn -> A.add t pn) [ 1L; 3L; 2L ];
  check Alcotest.int "merged into one range" 1 (A.count t);
  check (Alcotest.option Alcotest.int64) "largest" (Some 3L) (A.largest t);
  check Alcotest.(list (pair int int)) "the range" [ (1, 3) ] (ranges_of t)

(* Indexed access is bounded by [count], whatever the array holds. *)
let test_ackranges_index_checked () =
  let t = A.create () in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check Alcotest.bool "empty: no range 0" true (raises (fun () -> A.first t 0));
  A.add t 5L;
  check Alcotest.int "range 0" 5 (A.last t 0);
  check Alcotest.bool "no range 1" true (raises (fun () -> A.last t 1));
  check Alcotest.bool "no range -1" true (raises (fun () -> A.first t (-1)))

(* the chaos invariant: whatever duplicated / reordered arrival order the
   network produces, the range set stays structurally coherent *)
let ackranges_dup_reorder_coherent =
  qtest ~count:300 "ackranges coherent under duplicate + reordered arrivals"
    QCheck2.Gen.(list_size (int_range 1 80) (int_range 0 60))
    (fun pns ->
      let t = A.create () in
      (* every pn arrives twice: once in arrival order, once reversed *)
      List.iter (fun pn -> A.add t (Int64.of_int pn)) pns;
      List.iter (fun pn -> A.add t (Int64.of_int pn)) (List.rev pns);
      let distinct = List.sort_uniq compare pns in
      A.check_coherent t = Ok ()
      && A.cardinal t = List.length distinct
      && List.for_all (fun pn -> A.contains t (Int64.of_int pn)) distinct)

let test_check_coherent_rejects_malformed () =
  let t = A.create () in
  List.iter (fun pn -> A.add t pn) [ 1L; 5L; 9L ];
  check Alcotest.bool "well-formed set accepted" true (A.check_coherent t = Ok ());
  (* an empty set is trivially coherent *)
  check Alcotest.bool "empty set accepted" true
    (A.check_coherent (A.create ()) = Ok ())

(* The range set against a naive model: a bitmap over a small pn domain
   that, like the receiver, forgets everything below the [cap] highest
   ranges after each insert. Small caps truncate on most inputs;
   [contains] is probed above the largest pn, inside holes and below the
   oldest kept range. *)
let ackranges_model =
  qtest ~count:500 "ackranges = naive set model (capped ranges, contains)"
    QCheck2.Gen.(
      pair (int_range 1 6) (list_size (int_range 1 120) (int_range 0 80)))
    (fun (cap, pns) ->
      let t = A.create ~max_ranges:cap () in
      let have = Array.make 81 false in
      (* maximal runs of [have], highest first *)
      let model () =
        let runs = ref [] and pn = ref 0 in
        while !pn <= 80 do
          if have.(!pn) then begin
            let first = !pn in
            while !pn <= 80 && have.(!pn) do
              incr pn
            done;
            runs := (first, !pn - 1) :: !runs
          end
          else incr pn
        done;
        !runs
      in
      List.for_all
        (fun pn ->
          A.add t (Int64.of_int pn);
          have.(pn) <- true;
          (match List.filteri (fun i _ -> i >= cap) (model ()) with
          | (_, last) :: _ -> Array.fill have 0 (last + 1) false
          | [] -> ());
          ranges_of t = model ()
          && List.for_all
               (fun q ->
                 A.contains t (Int64.of_int q)
                 = (q >= 0 && q <= 80 && have.(q)))
               (List.init 85 (fun i -> i - 2)))
        pns)

(* The flat set against the list implementation it replaced
   ([Ackranges_model]): the same packet-number stream — runs, holes,
   duplicates and reordering, with caps of 1-3 that force drop-oldest on
   nearly every hole as well as roomy ones that make the array grow —
   must leave both with the same ranges, [contains] answers, [cardinal]
   and [check_coherent] verdict after every insert. *)
let ackranges_flat_matches_list =
  qtest ~count:500 "ackranges flat = list reference model"
    QCheck2.Gen.(
      pair
        (oneof [ int_range 1 3; int_range 4 300 ])
        (list_size (int_range 1 400)
           (oneof
              [ int_range 0 400; (* scattered: holes and reordering *)
                map (fun k -> k * 3) (int_range 0 140) (* many ranges *) ])))
    (fun (cap, pns) ->
      let t = A.create ~max_ranges:cap () in
      let m = Ackranges_model.create ~max_ranges:cap () in
      let model_ranges () =
        List.map
          (fun r -> Ackranges_model.(Int64.to_int r.first, Int64.to_int r.last))
          (Ackranges_model.ranges m)
      in
      (* every pn twice: in order, then again after the whole run *)
      List.for_all
        (fun pn ->
          let pn = Int64.of_int pn in
          A.add t pn;
          Ackranges_model.add m pn;
          ranges_of t = model_ranges ()
          && A.cardinal t = Int64.to_int (Ackranges_model.cardinal m)
          && A.check_coherent t = Ok ()
          && Ackranges_model.check_coherent m = Ok ()
          && A.largest t = Ackranges_model.largest m
          && List.for_all
               (fun q ->
                 let q = Int64.of_int q in
                 A.contains t q = Ackranges_model.contains m q)
               [ Int64.to_int pn - 1; Int64.to_int pn; Int64.to_int pn + 1;
                 Int64.to_int pn + 2; Int64.to_int pn - 2; -1; 0; 401 ])
        (pns @ pns))

let test_ackranges_bounded () =
  let t = A.create ~max_ranges:3 () in
  (* every even pn: each is its own range *)
  for k = 0 to 19 do
    A.add t (Int64.of_int (2 * k))
  done;
  check Alcotest.int "bounded" 3 (A.count t);
  check Alcotest.(list (pair int int)) "the newest three kept"
    [ (38, 38); (36, 36); (34, 34) ] (ranges_of t)

(* --------------------------- stream buffers --------------------------- *)

(* deliver exactly the written bytes whatever the segmentation and
   whatever the loss/ack interleaving *)
let sendbuf_recvbuf_roundtrip =
  qtest ~count:200 "send/recv buffers deliver exactly the stream"
    QCheck2.Gen.(
      triple
        (string_size ~gen:printable (int_range 1 2000))
        (int_range 1 97)
        (list_size (int_range 0 40) (int_range 0 99)))
    (fun (data, chunk, loss_pattern) ->
      let sb = Quic.Sendbuf.create () in
      Quic.Sendbuf.write sb data;
      Quic.Sendbuf.finish sb;
      let rb = Quic.Recvbuf.create () in
      let out = Buffer.create (String.length data) in
      let losses = ref loss_pattern in
      let lost_chunks = ref [] in
      let steps = ref 0 in
      while (Quic.Sendbuf.has_pending sb || !lost_chunks <> []) && !steps < 10_000 do
        incr steps;
        (match Quic.Sendbuf.next_chunk sb ~max_len:chunk with
        | Some (off, bytes, fin) ->
          let lose =
            match !losses with
            | p :: rest ->
              losses := rest;
              p < 30
            | [] -> false
          in
          if lose then lost_chunks := (off, bytes, fin) :: !lost_chunks
          else begin
            Quic.Recvbuf.insert rb ~offset:off ~fin bytes;
            Buffer.add_string out (Quic.Recvbuf.read rb);
            Quic.Sendbuf.on_acked sb ~offset:off ~len:(String.length bytes) ~fin
          end
        | None -> ());
        (* the peer's loss detection eventually reports the lost chunks *)
        if not (Quic.Sendbuf.has_pending sb) then begin
          List.iter
            (fun (off, bytes, fin) ->
              Quic.Sendbuf.on_lost sb ~offset:off ~len:(String.length bytes) ~fin)
            !lost_chunks;
          lost_chunks := []
        end
      done;
      Buffer.add_string out (Quic.Recvbuf.read rb);
      Quic.Recvbuf.is_finished rb && Buffer.contents out = data)

(* stronger: reassembled contents equal the original, out-of-order *)
let recvbuf_reassembly =
  qtest ~count:200 "recvbuf reassembles shuffled segments"
    QCheck2.Gen.(
      pair (string_size ~gen:printable (int_range 1 1000)) (int_range 1 50))
    (fun (data, chunk) ->
      let segments = ref [] in
      let pos = ref 0 in
      while !pos < String.length data do
        let len = min chunk (String.length data - !pos) in
        segments := (!pos, String.sub data !pos len) :: !segments;
        pos := !pos + len
      done;
      (* insert in reverse (fully out of order) *)
      let rb = Quic.Recvbuf.create () in
      List.iter
        (fun (off, seg) ->
          let fin = off + String.length seg = String.length data in
          Quic.Recvbuf.insert rb ~offset:off ~fin seg)
        !segments;
      Quic.Recvbuf.read rb = data && Quic.Recvbuf.is_finished rb)

(* overlapping segments: retransmissions re-chunk at different boundaries *)
let recvbuf_overlapping =
  qtest ~count:200 "recvbuf handles overlapping segments"
    QCheck2.Gen.(
      pair
        (string_size ~gen:printable (int_range 1 500))
        (list_size (int_range 0 30) (pair (int_range 0 499) (int_range 1 80))))
    (fun (data, extra) ->
      let n = String.length data in
      let rb = Quic.Recvbuf.create () in
      (* random overlapping slices first *)
      List.iter
        (fun (off, len) ->
          if off < n then
            let len = min len (n - off) in
            Quic.Recvbuf.insert rb ~offset:off ~fin:false (String.sub data off len))
        extra;
      (* then guarantee coverage with a final full pass *)
      Quic.Recvbuf.insert rb ~offset:0 ~fin:true data;
      Quic.Recvbuf.read rb = data && Quic.Recvbuf.is_finished rb)

(* duplicated segments, fully out of order: what a duplicating + reordering
   link hands the receiver *)
let recvbuf_duplicate_segments =
  qtest ~count:200 "recvbuf reassembles duplicated out-of-order segments"
    QCheck2.Gen.(
      pair (string_size ~gen:printable (int_range 1 1000)) (int_range 1 50))
    (fun (data, chunk) ->
      let segments = ref [] in
      let pos = ref 0 in
      while !pos < String.length data do
        let len = min chunk (String.length data - !pos) in
        segments := (!pos, String.sub data !pos len) :: !segments;
        pos := !pos + len
      done;
      let rb = Quic.Recvbuf.create () in
      let insert (off, seg) =
        let fin = off + String.length seg = String.length data in
        Quic.Recvbuf.insert rb ~offset:off ~fin seg
      in
      (* reversed once, then each segment again in arrival order *)
      List.iter insert !segments;
      List.iter insert (List.rev !segments);
      Quic.Recvbuf.read rb = data && Quic.Recvbuf.is_finished rb)

let test_sendbuf_retransmit_priority () =
  let sb = Quic.Sendbuf.create () in
  Quic.Sendbuf.write sb (String.make 100 'a');
  (match Quic.Sendbuf.next_chunk sb ~max_len:50 with
  | Some (0, _, false) -> ()
  | _ -> Alcotest.fail "first chunk");
  Quic.Sendbuf.on_lost sb ~offset:0 ~len:50 ~fin:false;
  (* retransmission comes before new data *)
  match Quic.Sendbuf.next_chunk sb ~max_len:50 with
  | Some (0, bytes, _) -> check Alcotest.int "retransmit len" 50 (String.length bytes)
  | _ -> Alcotest.fail "expected retransmission"

let test_sendbuf_acked_not_retransmitted () =
  let sb = Quic.Sendbuf.create () in
  Quic.Sendbuf.write sb (String.make 100 'a');
  ignore (Quic.Sendbuf.next_chunk sb ~max_len:100);
  Quic.Sendbuf.on_acked sb ~offset:0 ~len:100 ~fin:false;
  Quic.Sendbuf.on_lost sb ~offset:0 ~len:100 ~fin:false;
  check Alcotest.bool "ack wins over loss" false (Quic.Sendbuf.has_pending sb)

(* ----------------------------- packets -------------------------------- *)

let packet_roundtrip =
  qtest ~count:200 "packet protect/unprotect roundtrip"
    QCheck2.Gen.(
      triple
        (oneofl [ Quic.Packet.Initial; Quic.Packet.Handshake; Quic.Packet.One_rtt ])
        (pair bool (map Int64.of_int (int_range 0 1000000)))
        (string_size ~gen:printable (int_range 0 1200)))
    (fun (ptype, (spin, pn), payload) ->
      let header =
        { Quic.Packet.ptype; spin; dcid = 0x1234L; scid = 0x5678L; pn }
      in
      let wire = Quic.Packet.protect ~key:99L { header; payload } in
      let p, consumed = Quic.Packet.unprotect ~key:99L wire in
      p.Quic.Packet.payload = payload
      && p.Quic.Packet.header.Quic.Packet.pn = pn
      && p.Quic.Packet.header.Quic.Packet.ptype = ptype
      && consumed = String.length wire
      && (ptype <> Quic.Packet.One_rtt
          || p.Quic.Packet.header.Quic.Packet.spin = spin))

let test_packet_tamper () =
  let header =
    { Quic.Packet.ptype = Quic.Packet.One_rtt; spin = false; dcid = 1L;
      scid = 0L; pn = 7L }
  in
  let wire = Quic.Packet.protect ~key:42L { header; payload = "secret" } in
  let tampered =
    String.mapi (fun i c -> if i = 15 then Char.chr (Char.code c lxor 1) else c) wire
  in
  (match Quic.Packet.unprotect ~key:42L tampered with
  | exception Quic.Packet.Authentication_failed -> ()
  | _ -> Alcotest.fail "tampering accepted");
  match Quic.Packet.unprotect ~key:43L wire with
  | exception Quic.Packet.Authentication_failed -> ()
  | _ -> Alcotest.fail "wrong key accepted"

let test_derive_key_symmetric () =
  check Alcotest.int64 "both sides derive the same key"
    (Quic.Packet.derive_key ~client_cid:11L ~server_cid:22L)
    (Quic.Packet.derive_key ~client_cid:11L ~server_cid:22L);
  Alcotest.(check bool) "role order matters" true
    (Quic.Packet.derive_key ~client_cid:11L ~server_cid:22L
     <> Quic.Packet.derive_key ~client_cid:22L ~server_cid:11L)

(* ------------------------ transport parameters ------------------------ *)

let transport_params_roundtrip =
  qtest ~count:200 "transport parameters roundtrip"
    QCheck2.Gen.(
      let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
      triple
        (pair (int_range 1 1000000) (int_range 1 100))
        (list_size (int_range 0 4) name)
        (list_size (int_range 0 4) name))
    (fun ((max_data, streams), supported, to_inject) ->
      let tp =
        {
          Quic.Transport_params.default with
          initial_max_data = Int64.of_int max_data;
          max_streams = streams;
          supported_plugins = supported;
          plugins_to_inject = to_inject;
          active_paths = [ 2; 3 ];
        }
      in
      Quic.Transport_params.decode (Quic.Transport_params.encode tp) = tp)

(* ------------------------------ rtt/cc -------------------------------- *)

let test_rtt_first_sample () =
  let r = Quic.Rtt.create () in
  Quic.Rtt.update r ~sample:50_000_000L;
  check Alcotest.int64 "srtt = first sample" 50_000_000L (Quic.Rtt.smoothed r);
  check Alcotest.int64 "min tracks" 50_000_000L (Quic.Rtt.min_rtt r)

let test_rtt_ewma () =
  let r = Quic.Rtt.create () in
  Quic.Rtt.update r ~sample:100L;
  Quic.Rtt.update r ~sample:200L;
  (* srtt = 7/8*100 + 1/8*200 = 112 *)
  check Alcotest.int64 "ewma" 112L (Quic.Rtt.smoothed r)

let test_rtt_pto_floor () =
  let r = Quic.Rtt.create () in
  Quic.Rtt.update r ~sample:1000L;
  Alcotest.(check bool) "pto has a variance floor" true
    (Quic.Rtt.pto r >= 1_000_000L)

let test_cc_slow_start () =
  let cc = Quic.Cc.create ~initial_window:16384 () in
  Alcotest.(check bool) "starts in slow start" true (Quic.Cc.in_slow_start cc);
  Quic.Cc.on_packet_sent cc ~size:1000;
  Quic.Cc.on_packet_acked cc ~pn:1L ~size:1000;
  check Alcotest.int "cwnd grows by acked bytes" 17384 (Quic.Cc.cwnd cc)

let test_cc_loss_halves () =
  let cc = Quic.Cc.create ~initial_window:20000 () in
  Quic.Cc.on_packet_sent cc ~size:1000;
  Quic.Cc.on_packet_lost cc ~pn:1L ~size:1000 ~largest_sent:10L;
  check Alcotest.int "halved" 10000 (Quic.Cc.cwnd cc);
  (* second loss in the same recovery epoch does not halve again *)
  Quic.Cc.on_packet_lost cc ~pn:2L ~size:1000 ~largest_sent:10L;
  check Alcotest.int "single halving per epoch" 10000 (Quic.Cc.cwnd cc)

let test_cc_in_flight_never_negative () =
  let cc = Quic.Cc.create () in
  Quic.Cc.on_packet_acked cc ~pn:1L ~size:5000;
  Alcotest.(check bool) "bytes in flight floored at 0" true
    (Quic.Cc.bytes_in_flight cc = 0)

let tests =
  [
    ("varint", [
      Alcotest.test_case "sizes" `Quick test_varint_sizes;
      Alcotest.test_case "overflow" `Quick test_varint_overflow;
      varint_roundtrip;
    ]);
    ("frame", [
      Alcotest.test_case "unknown frame" `Quick test_unknown_frame;
      Alcotest.test_case "padding run" `Quick test_padding_run;
      Alcotest.test_case "ack eliciting" `Quick test_ack_eliciting;
      frame_roundtrip;
      frames_concatenated;
    ]);
    ("ackranges", [
      Alcotest.test_case "merge" `Quick test_ackranges_merge;
      Alcotest.test_case "bounded" `Quick test_ackranges_bounded;
      Alcotest.test_case "check_coherent" `Quick test_check_coherent_rejects_malformed;
      Alcotest.test_case "indexed access checked" `Quick
        test_ackranges_index_checked;
      ackranges_invariants;
      ackranges_dup_reorder_coherent;
      ackranges_model;
      ackranges_flat_matches_list;
    ]);
    ("streambuf", [
      Alcotest.test_case "retransmit priority" `Quick test_sendbuf_retransmit_priority;
      Alcotest.test_case "ack beats loss" `Quick test_sendbuf_acked_not_retransmitted;
      sendbuf_recvbuf_roundtrip;
      recvbuf_reassembly;
      recvbuf_overlapping;
      recvbuf_duplicate_segments;
    ]);
    ("packet", [
      Alcotest.test_case "tamper detection" `Quick test_packet_tamper;
      Alcotest.test_case "key derivation" `Quick test_derive_key_symmetric;
      packet_roundtrip;
    ]);
    ("transport_params", [ transport_params_roundtrip ]);
    ("rtt_cc", [
      Alcotest.test_case "rtt first sample" `Quick test_rtt_first_sample;
      Alcotest.test_case "rtt ewma" `Quick test_rtt_ewma;
      Alcotest.test_case "pto floor" `Quick test_rtt_pto_floor;
      Alcotest.test_case "cc slow start" `Quick test_cc_slow_start;
      Alcotest.test_case "cc loss halves once" `Quick test_cc_loss_halves;
      Alcotest.test_case "cc non-negative flight" `Quick test_cc_in_flight_never_negative;
    ]);
  ]
