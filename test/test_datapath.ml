(* Datapath regression tests for the pooled zero-copy send path.

   The fast encoders (arithmetic frame sizes, direct-to-writer frame
   encoding, header-then-blit stream/crypto/plugin writes, in-place
   packet sealing, the word-wise packet tag) must stay byte-identical to
   the allocating reference paths they replaced — the experiment figures
   are bit-for-bit reproductions and any wire drift would silently skew
   them. Packet protection must reject every single-byte change,
   truncation and wrong key, and allocate nothing but its result. The
   writer free list must balance acquires and releases across whole
   transfers, and the engine's per-packet allocation rate is fenced with
   a ceiling so the zero-copy datapath cannot rot unnoticed. *)

module F = Quic.Frame
module W = Quic.Writer
module P = Quic.Packet

let check = Alcotest.check

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------- frame generators -------------------------- *)

let gen_ack =
  let open QCheck2.Gen in
  map3
    (fun largest delay spec ->
      let largest = Int64.of_int (largest + 100_000) in
      (* descending disjoint ranges: each gap leaves the mandatory
         prev_first - last - 2 >= 0 slack of the wire encoding *)
      let rec go last spec acc =
        match spec with
        | [] -> List.rev acc
        | (len, gap) :: rest ->
          let first = Int64.sub last (Int64.of_int len) in
          let next_last = Int64.sub first (Int64.of_int (gap + 2)) in
          go next_last rest ((first, last) :: acc)
      in
      F.Ack
        {
          largest;
          delay_us = Int64.of_int delay;
          ranges = go largest spec [];
        })
    (int_range 0 1_000_000) (int_range 0 100_000)
    (list_size (int_range 1 9) (pair (int_range 0 50) (int_range 0 50)))

(* Every constructor, including the data-bearing frames the sender
   encodes through the zero-copy header writers. *)
let gen_frame =
  let open QCheck2.Gen in
  let str = string_size ~gen:printable (int_range 0 200) in
  let off = map Int64.of_int (int_range 0 2_000_000) in
  oneof
    [
      map (fun n -> F.Padding (n + 1)) (int_range 0 20);
      return F.Ping;
      return F.Handshake_done;
      gen_ack;
      map2 (fun offset data -> F.Crypto { offset; data }) off str;
      map3
        (fun id (offset, fin) data -> F.Stream { id; offset; fin; data })
        (int_range 0 1000) (pair off bool) str;
      map (fun v -> F.Max_data v) off;
      map2 (fun id max -> F.Max_stream_data { id; max }) (int_range 0 1000) off;
      map2
        (fun code reason -> F.Connection_close { code; reason })
        (int_range 0 100) str;
      map (fun v -> F.Path_challenge (Int64.of_int v)) (int_range 0 max_int);
      map (fun v -> F.Path_response (Int64.of_int v)) (int_range 0 max_int);
      map2
        (fun seq cid ->
          F.New_connection_id { seq = Int64.of_int seq; cid = Int64.of_int cid })
        (int_range 0 100_000) (int_range 0 max_int);
      map
        (fun seq -> F.Retire_connection_id (Int64.of_int seq))
        (int_range 0 100_000);
      map2
        (fun plugin formula -> F.Plugin_validate { plugin; formula })
        str str;
      map2 (fun plugin proof -> F.Plugin_proof { plugin; proof }) str str;
      map3
        (fun plugin (offset, fin) data ->
          F.Plugin_chunk { plugin; offset; fin; data })
        str (pair off bool) str;
      map2
        (fun ftype raw -> F.Unknown { ftype; raw })
        (int_range 0x30 0x5f) str;
    ]

(* ----------------------- reader differentials ------------------------ *)

module R = Quic.Reader

(* Outcome of one parse step, comparable across the reference parser and
   the view parser: the materialized frame plus the cursor advance, or
   the exception the parser raised. *)
let reference_step s pos =
  match F.parse s pos with
  | f, next -> Ok (f, next)
  | exception Quic.Varint.Truncated -> Error "truncated"
  | exception Invalid_argument _ -> Error "invalid"

let view_step s r =
  match F.parse_view r with
  | v -> Ok (F.of_view s v, R.pos r)
  | exception Quic.Varint.Truncated -> Error "truncated"
  | exception Invalid_argument _ -> Error "invalid"

let step_eq = function
  | Ok (f, n), Ok (f', n') -> f = f' && n = n'
  | Error e, Error e' -> e = e'
  | _ -> false

(* Well-formed frame sequences: [parse_view] must agree with the
   reference [parse] on every step — same frame once materialized, same
   cursor advance — all the way to the end of the payload. *)
let view_matches_parse =
  qtest ~count:500 "Frame.parse_view = parse"
    QCheck2.Gen.(list_size (int_range 1 8) gen_frame)
    (fun frames ->
      let s = String.concat "" (List.map F.to_string frames) in
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:(String.length s);
      let ok = ref true in
      let pos = ref 0 in
      while !ok && !pos < String.length s do
        let reference = reference_step s !pos in
        let viewed = view_step s r in
        ok := step_eq (reference, viewed);
        match reference with
        | Ok (_, next) -> pos := next
        | Error _ -> pos := String.length s
      done;
      R.release r;
      !ok)

(* Truncated input: parsing through a reader whose [limit] clips the
   datagram must behave exactly like the reference parser on a copied
   prefix of the same length — same value or same exception. This is the
   window-bounds property the zero-copy receive path rests on. *)
let view_truncation_matches =
  qtest ~count:500 "parse_view at limit = parse of prefix"
    QCheck2.Gen.(pair gen_frame (int_range 0 1000))
    (fun (f, cut) ->
      let s = F.to_string f in
      let cut = cut mod (String.length s + 1) in
      let reference = reference_step (String.sub s 0 cut) 0 in
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:cut;
      let viewed = view_step s r in
      R.release r;
      step_eq (reference, viewed))

(* Corrupted input: on arbitrary bytes both parsers must still agree —
   value and cursor when they accept, exception when they reject. *)
let view_corruption_matches =
  qtest ~count:1000 "parse_view = parse on random bytes"
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:(String.length s);
      let viewed = view_step s r in
      R.release r;
      step_eq (reference_step s 0, viewed))

(* ---------------------- encoder differentials ------------------------ *)

let size_matches_wire_size =
  qtest "Frame.size = wire_size" gen_frame (fun f -> F.size f = F.wire_size f)

let write_matches_serialize =
  qtest "Frame.write = serialize" gen_frame (fun f ->
      let buf = Buffer.create 256 in
      F.serialize buf f;
      let w = W.create () in
      F.write w f;
      W.contents w = Buffer.contents buf)

let stream_header_matches =
  qtest "stream header writer = serialize"
    QCheck2.Gen.(
      tup4 (int_range 0 1000)
        (map Int64.of_int (int_range 0 2_000_000))
        bool
        (string_size ~gen:printable (int_range 0 300)))
    (fun (id, offset, fin, data) ->
      let len = String.length data in
      let reference = F.to_string (F.Stream { id; offset; fin; data }) in
      let w = W.create () in
      F.write_stream_header w ~id ~offset ~fin ~len;
      W.string w data;
      W.contents w = reference
      && F.stream_header_size ~id ~offset ~len + len = String.length reference)

let crypto_header_matches =
  qtest "crypto header writer = serialize"
    QCheck2.Gen.(
      pair
        (map Int64.of_int (int_range 0 2_000_000))
        (string_size ~gen:printable (int_range 0 300)))
    (fun (offset, data) ->
      let len = String.length data in
      let reference = F.to_string (F.Crypto { offset; data }) in
      let w = W.create () in
      F.write_crypto_header w ~offset ~len;
      W.string w data;
      W.contents w = reference
      && F.crypto_header_size ~offset ~len + len = String.length reference)

let plugin_chunk_header_matches =
  qtest "plugin chunk header writer = serialize"
    QCheck2.Gen.(
      tup4
        (string_size ~gen:printable (int_range 0 40))
        (map Int64.of_int (int_range 0 2_000_000))
        bool
        (string_size ~gen:printable (int_range 0 300)))
    (fun (plugin, offset, fin, data) ->
      let len = String.length data in
      let reference = F.to_string (F.Plugin_chunk { plugin; offset; fin; data }) in
      let w = W.create () in
      F.write_plugin_chunk_header w ~plugin ~offset ~fin ~len;
      W.string w data;
      W.contents w = reference
      && F.plugin_chunk_header_size ~plugin ~offset + len
         = String.length reference)

(* Whole packets: reserve header room, write a random frame mix, patch
   the header, seal — must equal serialize-then-protect byte for byte. *)
let seal_matches_protect =
  qtest ~count:200 "Packet.seal = protect"
    QCheck2.Gen.(
      tup4 (int_range 0 2)
        (tup4 bool (map Int64.of_int (int_range 0 max_int))
           (map Int64.of_int (int_range 0 max_int))
           (map Int64.of_int (int_range 0 0xFFFFFFF)))
        (map Int64.of_int (int_range 0 max_int))
        (list_size (int_range 1 6) gen_frame))
    (fun (pt, (spin, dcid, scid, pn), key, frames) ->
      let ptype =
        match pt with 0 -> P.Initial | 1 -> P.Handshake | _ -> P.One_rtt
      in
      let header = { P.ptype; spin; dcid; scid; pn } in
      let payload = String.concat "" (List.map F.to_string frames) in
      let reference = P.protect ~key { P.header; payload } in
      let w = W.acquire () in
      let hoff = P.reserve_header w header in
      List.iter (F.write w) frames;
      P.patch_header w ~off:hoff header;
      P.seal ~key w;
      let got = W.contents w in
      W.release w;
      got = reference)

(* The tag oracle: the specification of [Packet.tag] written
   byte-at-a-time on boxed [Int64]s, assembling each little-endian word
   from its bytes, so it shares no code with the word-reading fast path. *)
let tag_reference ~key data =
  let p = 0x100000001b3L in
  let n = String.length data in
  let byte i = Int64.of_int (Char.code data.[i]) in
  let h = ref (Int64.mul (Int64.logxor key 0xcbf29ce484222325L) p) in
  for wi = 0 to (n / 8) - 1 do
    let w = ref 0L in
    for j = 0 to 7 do
      w := Int64.logor !w (Int64.shift_left (byte ((wi * 8) + j)) (8 * j))
    done;
    h := Int64.mul (Int64.logxor !h !w) p
  done;
  for i = n / 8 * 8 to n - 1 do
    h := Int64.mul (Int64.logxor !h (byte i)) p
  done;
  let fmix k =
    let shift k = Int64.logxor k (Int64.shift_right_logical k 33) in
    let k = Int64.mul (shift k) 0xff51afd7ed558ccdL in
    let k = Int64.mul (shift k) 0xc4ceb9fe1a85ec53L in
    shift k
  in
  fmix (Int64.logxor !h (Int64.of_int n))

let tag_matches_reference =
  qtest "Packet.tag = tag_reference"
    QCheck2.Gen.(pair int64 (string_size (int_range 0 2000)))
    (fun (key, data) -> P.tag ~key data = tag_reference ~key data)

let tag_sub_consistent =
  qtest "tag_sub/tag_bytes = tag of slice"
    QCheck2.Gen.(
      tup3 int64 (string_size (int_range 0 500)) (pair nat nat))
    (fun (key, s, (a, b)) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod n in
      let len = if n - off = 0 then 0 else b mod (n - off) in
      let slice = String.sub s off len in
      P.tag_sub ~key s ~off ~len = P.tag ~key slice
      && P.tag_bytes ~key (Bytes.of_string s) ~off ~len = P.tag ~key slice)

(* A window outside the buffer is rejected before any byte is read. *)
let test_tag_window_checked () =
  let s = String.make 16 'x' in
  List.iter
    (fun (off, len) ->
      let raises f =
        match f () with
        | exception Invalid_argument _ -> true
        | (_ : int64) -> false
      in
      let name = Printf.sprintf "window off=%d len=%d" off len in
      Alcotest.(check bool) (name ^ " (string)") true
        (raises (fun () -> P.tag_sub ~key:1L s ~off ~len));
      Alcotest.(check bool) (name ^ " (bytes)") true
        (raises (fun () -> P.tag_bytes ~key:1L (Bytes.of_string s) ~off ~len)))
    [ (-1, 4); (0, -1); (0, 17); (9, 8); (16, 1); (17, 0); (max_int, 2) ];
  check Alcotest.int64 "the full window is accepted" (P.tag ~key:1L s)
    (P.tag_sub ~key:1L s ~off:0 ~len:16)

(* Tamper evidence over the whole packet: under every alteration below
   [unprotect_view] must raise, never return. A single-byte change stays
   inside one aligned word, and a wrong key changes the seed, so those
   are rejected by construction (see [Packet.tag]); truncations rely on
   the tag's length and position. Payloads are random or all-zero (QUIC
   PADDING): a tag blind to the length cannot tell a zero-filled word from
   a zero tail byte, so cutting a padded packet short while keeping its
   tag exposes it. *)
let tamper_evident =
  qtest ~count:60 "every single-byte change, truncation and wrong key fails"
    QCheck2.Gen.(
      tup4 (int_range 0 2) int64
        (pair (int_range 0 1400) bool)
        (pair (int_range 1 255) int64))
    (fun (pt, key, (plen, zero), (delta, other)) ->
      let ptype =
        match pt with 0 -> P.Initial | 1 -> P.Handshake | _ -> P.One_rtt
      in
      let header = { P.ptype; spin = plen land 1 = 0; dcid = 7L; scid = 9L;
                     pn = Int64.of_int plen } in
      let payload =
        String.init plen (fun i ->
          if zero then '\000' else Char.chr ((i * 131 + delta) land 0xff))
      in
      let wire = P.protect ~key { P.header; payload } in
      let n = String.length wire in
      let rejected ?(key = key) s =
        match P.unprotect_view ~key s with
        | exception (P.Authentication_failed | P.Malformed) -> true
        | _ -> false
      in
      let flip i d =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor d) else c) wire
      in
      let ok = ref (not (rejected wire)) in
      for i = 0 to n - 1 do
        if not (rejected (flip i (1 + ((delta + i) mod 255)))) then ok := false
      done;
      for m = 0 to n - 1 do
        if not (rejected (String.sub wire 0 m)) then ok := false
      done;
      let tag = String.sub wire (n - P.tag_len) P.tag_len in
      for m = 0 to n - P.tag_len - 1 do
        if not (rejected (String.sub wire 0 m ^ tag)) then ok := false
      done;
      List.iter
        (fun k -> if k <> key && not (rejected ~key:k wire) then ok := false)
        (other :: Int64.logxor key 1L :: Int64.neg key
         :: List.init 64 (fun b -> Int64.logxor key (Int64.shift_left 1L b)));
      !ok)

(* Allocation fence for packet protection: tagging a window or sealing a
   1,252-byte packet allocates at most the boxed [int64] result (3 minor
   words on 64-bit), whatever the length. *)
let test_tag_allocation () =
  let iters = 10_000 in
  let per_call f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int iters
  in
  let fence name words =
    if words > 3. then
      Alcotest.failf "%s allocates %.2f minor words per call (ceiling 3)" name
        words
  in
  let s = String.init 1252 (fun i -> Char.chr (i land 0xff)) in
  List.iter
    (fun len ->
      fence
        (Printf.sprintf "tag_sub len=%d" len)
        (per_call (fun () -> ignore (P.tag_sub ~key:5L s ~off:0 ~len))))
    [ 0; 1; 7; 8; 9; 63; 1252 ];
  let w = W.create ~size:2048 () in
  let header = { P.ptype = P.One_rtt; spin = false; dcid = 3L; scid = 0L; pn = 1L } in
  let payload = Bytes.make (1252 - P.overhead header) '\001' in
  fence "seal of a 1252-byte packet"
    (per_call (fun () ->
       W.reset w;
       let hoff = P.reserve_header w header in
       W.subbytes w payload ~off:0 ~len:(Bytes.length payload);
       P.patch_header w ~off:hoff header;
       P.seal ~key:5L w))

(* --------------------------- pool balance ---------------------------- *)

let test_writer_pool () =
  let out0 = W.outstanding () in
  let a = W.acquire () in
  let b = W.acquire () in
  W.string a "x";
  W.string b "yz";
  check Alcotest.int "outstanding tracks acquires" (out0 + 2) (W.outstanding ());
  W.release a;
  W.release b;
  check Alcotest.int "releases balance" out0 (W.outstanding ());
  let reused0 = W.reused () in
  let c = W.acquire () in
  check Alcotest.int "served from the free list" (reused0 + 1) (W.reused ());
  check Alcotest.int "recycled writer is reset" 0 (W.length c);
  W.release c

let test_reader_pool () =
  let out0 = R.outstanding () in
  let a = R.acquire () in
  let b = R.acquire () in
  R.reset a "abc" ~pos:0 ~limit:3;
  R.reset b "defg" ~pos:1 ~limit:4;
  check Alcotest.int "outstanding tracks acquires" (out0 + 2) (R.outstanding ());
  check Alcotest.int "cursor reads through the window" (Char.code 'a') (R.u8 a);
  R.release a;
  R.release b;
  check Alcotest.int "releases balance" out0 (R.outstanding ());
  let reused0 = R.reused () in
  let c = R.acquire () in
  check Alcotest.int "served from the free list" (reused0 + 1) (R.reused ());
  check Alcotest.int "recycled reader is empty" 0 (R.remaining c);
  R.release c

let test_memory_pool_balance () =
  let pool = Pquic.Memory_pool.create ~size:4096 () in
  check Alcotest.int "fresh pool empty" 0 (Pquic.Memory_pool.allocated_bytes pool);
  let offs =
    List.filter_map (fun n -> Pquic.Memory_pool.alloc pool n) [ 10; 64; 100; 200 ]
  in
  check Alcotest.int "all allocations served" 4 (List.length offs);
  Alcotest.(check bool)
    "bytes accounted" true
    (Pquic.Memory_pool.allocated_bytes pool > 0);
  List.iter
    (fun o ->
      Alcotest.(check bool) "free accepted" true (Pquic.Memory_pool.free pool o))
    offs;
  check Alcotest.int "returns balance to zero" 0
    (Pquic.Memory_pool.allocated_bytes pool)

(* ----------------------- whole-transfer fences ----------------------- *)

let transfer ~size =
  let params = { Netsim.Topology.d_ms = 5.; bw_mbps = 50.; loss = 0. } in
  let topo = Netsim.Topology.single_path ~seed:7L params in
  Exp.Runner.quic_transfer ~topo ~plugins:[] ~to_inject:[] ~multipath:false
    ~size ()

let packets_of r =
  r.Exp.Runner.client_stats.Pquic.Connection.pkts_sent
  + (match r.Exp.Runner.server_stats with
    | Some s -> s.Pquic.Connection.pkts_sent
    | None -> 0)

let test_transfer_pool_balance () =
  let out0 = W.outstanding () in
  (match transfer ~size:(200 * 1024) with
  | None -> Alcotest.fail "transfer did not complete"
  | Some _ -> ());
  check Alcotest.int "writer pool balanced after a transfer" out0
    (W.outstanding ());
  Alcotest.(check bool) "writers recycled during the transfer" true (W.reused () > 0)

(* Allocation fence: the pooled datapath brought the engine to roughly
   3k minor words per packet end to end (send + receive + recovery, in a
   no-flambda build where Int64 temporaries box); the pre-pooling
   datapath sat near 8k. The ceiling is set with ~2x headroom so noisy
   GC accounting cannot flake, while a return of the per-packet copies
   would still trip it. *)
let test_minor_words_per_packet () =
  ignore (transfer ~size:(64 * 1024));
  (* warm-up: connection tables, writer pool *)
  Gc.minor ();
  let w0 = Gc.minor_words () in
  match transfer ~size:(512 * 1024) with
  | None -> Alcotest.fail "transfer did not complete"
  | Some r ->
    let words = Gc.minor_words () -. w0 in
    let per_pkt = words /. float_of_int (max 1 (packets_of r)) in
    if per_pkt >= 6000. then
      Alcotest.failf "minor words per packet %.0f over the 6000 ceiling" per_pkt

(* Receive-side allocation fence, on the engine's own [rx_profile]
   counters (wall spent inside [process_datagram] plus the minor words it
   allocated): the zero-copy receive path parses frames as views and sits
   near 1.2k minor words per received packet; the copying parser sat near
   3k. Ceiling at ~2x so GC-accounting noise cannot flake while a return
   of the per-frame String.sub copies would still trip it. *)
let test_rx_minor_words_per_packet () =
  ignore (transfer ~size:(64 * 1024));
  (* warm-up: connection tables, writer/reader pools *)
  Gc.minor ();
  let open Pquic.Conn_types in
  rx_profile_reset ();
  rx_profile := true;
  let r = transfer ~size:(512 * 1024) in
  rx_profile := false;
  match r with
  | None -> Alcotest.fail "transfer did not complete"
  | Some _ ->
    if !rx_packets = 0 then Alcotest.fail "rx profile saw no packets";
    let per_pkt = !rx_minor_words /. float_of_int !rx_packets in
    if per_pkt >= 2500. then
      Alcotest.failf "rx minor words per packet %.0f over the 2500 ceiling"
        per_pkt

let tests =
  [
    ( "reader",
      [ view_matches_parse; view_truncation_matches; view_corruption_matches ]
    );
    ( "encoders",
      [
        size_matches_wire_size;
        write_matches_serialize;
        stream_header_matches;
        crypto_header_matches;
        plugin_chunk_header_matches;
        seal_matches_protect;
        tag_matches_reference;
        tag_sub_consistent;
      ] );
    ( "protection",
      [
        Alcotest.test_case "tag window is bounds-checked" `Quick
          test_tag_window_checked;
        tamper_evident;
        Alcotest.test_case "tag and seal allocate only the result" `Quick
          test_tag_allocation;
      ] );
    ( "pool",
      [
        Alcotest.test_case "writer free list balances" `Quick test_writer_pool;
        Alcotest.test_case "reader free list balances" `Quick test_reader_pool;
        Alcotest.test_case "memory pool returns balance" `Quick
          test_memory_pool_balance;
        Alcotest.test_case "writer pool balanced across transfer" `Quick
          test_transfer_pool_balance;
      ] );
    ( "alloc",
      [
        Alcotest.test_case "minor words per packet ceiling" `Slow
          test_minor_words_per_packet;
        Alcotest.test_case "rx minor words per packet ceiling" `Slow
          test_rx_minor_words_per_packet;
      ] );
  ]
