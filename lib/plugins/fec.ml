(* The Forward Erasure Correction plugin (Section 4.4), after QUIC-FEC.

   The sender captures every stream-carrying packet as a source symbol
   (pn || payload, zero-padded). When the window is full — or, in the
   end-of-stream (EOS) mode, when a stream tail is reached — it computes
   Repair Symbols and books FEC_RS frames. A Repair Symbol is either the
   XOR of the window (Google's code: recovers one loss, cheap) or a Random
   Linear Combination over GF(256) with coefficients derived from a seed
   both peers can regenerate (recovers up to R losses, more expensive).

   The RS frame header identifies the protected packets (the FEC ID role:
   a base packet number and a bitmask). The receiver keeps a ring of
   received packets; when repair symbols cover every missing packet it
   solves for them — a single XOR pass, or Gauss-Jordan elimination whose
   control flow runs in bytecode while byte-vector arithmetic uses the
   gf256_* helpers — and resurrects the packets via recover_packet,
   avoiding the retransmission round-trip.

   The flush logic is a *plugin-defined protocol operation* (op_fec_flush)
   invoked through run_protoop, demonstrating plugins extending the
   protocol-operation space itself. The elimination pluglet deliberately
   uses an unbounded while loop: like three multipath pluglets in the
   paper, its termination cannot be proven by the checker. *)

open Plc.Ast
open Dsl

type code = Xor | Rlc
type mode = Full | Eos

let frame_type = Quic.Frame.type_fec_rs

(* Plugin-defined protocol operation. *)
let op_fec_flush = 120

let default_k = 25
let default_r = 5
let sym_size = 1320
let rs_slot = sym_size + 32
let hdr = 19 (* base u32 | mask u64 | idx u8 | seed u32 | symlen u16 *)

let plugin_name ?(k = default_k) ?(r = default_r) ~code ~mode () =
  if k = default_k && r = default_r then
    Printf.sprintf "org.pquic.fec-%s-%s"
      (match code with Xor -> "xor" | Rlc -> "rlc")
      (match mode with Full -> "full" | Eos -> "eos")
  else
    Printf.sprintf "org.pquic.fec-%s-%s-k%d-r%d"
      (match code with Xor -> "xor" | Rlc -> "rlc")
      (match mode with Full -> "full" | Eos -> "eos")
      k r

let bit_set mask b = Bin (Plc.Ast.And, mask, Bin (Plc.Ast.Shl, i 1, b)) <>: i 0

(* ---------------- sender state (opaque 10, 512 bytes) ---------------- *)
(* 0 count | 8 base_pn | 16 mask | 24 maxlen | 32 slab | 40 rs_slab |
   48 rs_pending | 56 seed | 96+ per-slot pn *)
let s_state body = with_state ~id:10 ~size:512 body

let slot_pn s = v "st" +: i 96 +: (s *: i 8)

let reset_window =
  [ set_fld 0 (i 0); set_fld 16 (i 0); set_fld 24 (i 0) ]

(* Capture a sent packet into the window and trigger flushes. *)
let capture ~k_window ~code ~mode =
  ignore code;
  let flush_call : Plc.Ast.stmt = Expr (run_protoop op_fec_flush (Const (-1L)) (i 0) (i 0) (i 0)) in
  func "fec_capture" [ "pn"; "path"; "size" ]
    (s_state
       [
         If (get Pluginop.Api.f_state (i 0) <>: i 1, [ ret0 ], []);
         If
           ( get Pluginop.Api.f_current_packet_has_stream (i 0) =: i 1,
             [
               (* lazily allocate the symbol slabs *)
               If
                 ( fld 32 =: i 0,
                   [
                     set_fld 32 (pl_malloc (i (k_window * sym_size)));
                     set_fld 40 (pl_malloc (i (default_r * rs_slot)));
                   ],
                   [] );
               If (fld 32 =: i 0, [ ret0 ], []);
               If (fld 40 =: i 0, [ ret0 ], []);
               If (fld 0 =: i 0, [ set_fld 8 (v "pn"); set_fld 16 (i 0) ], []);
               Let ("rel", v "pn" -: fld 8);
               If
                 ( v "rel" >=: i 60,
                   (* window span exhausted before K stream packets *)
                   (match mode with
                    | Full -> [ flush_call ]
                    | Eos -> reset_window)
                   @ [
                       set_fld 8 (v "pn");
                       set_fld 16 (i 0);
                       Assign ("rel", i 0);
                     ],
                   [] );
               Let ("slot", fld 0);
               Let ("addr", fld 32 +: (v "slot" *: i sym_size));
               pl_memset (v "addr") (i 0) (i sym_size);
               Let ("n", call "packet_bytes" [ v "addr"; i sym_size ]);
               (* packets whose repair symbol could not ride in one frame
                  are left unprotected *)
               If
                 ( (v "n" >: i 0)
                   &&: (v "n" <=: get Pluginop.Api.f_mtu (i 0) -: i 49),
                   [
                     set_fld 16
                       (Bin
                          ( Plc.Ast.Or,
                            fld 16,
                            Bin (Plc.Ast.Shl, i 1, v "rel") ));
                     If (v "n" >: fld 24, [ set_fld 24 (v "n") ], []);
                     st64 (slot_pn (v "slot")) (v "pn");
                     set_fld 0 (fld 0 +: i 1);
                   ],
                   [] );
               If
                 ( fld 0 >=: i k_window,
                   (match mode with
                    | Full -> [ flush_call ]
                    | Eos -> reset_window),
                   [] );
             ],
             [] );
         (* end-of-stream protection: flush the residual window at a tail *)
         If
           ( (get Pluginop.Api.f_fin_sent (i 0) =: i 1) &&: (fld 0 >: i 0),
             [ flush_call ],
             [] );
         ret0;
       ])

(* The plugin-defined flush operation: compute repair symbols and book
   FEC_RS frames. *)
let flush ~r_repair ~code =
  let rs_count = match code with Xor -> 1 | Rlc -> r_repair in
  func "fec_flush" [ "a"; "b"; "c" ]
    (s_state
       [
         Let ("count", fld 0);
         If (v "count" =: i 0, [ ret0 ], []);
         (* a previous window's repair symbols are still queued: skip *)
         If (fld 48 >: i 0, reset_window @ [ ret0 ], []);
         Let ("symlen", fld 24);
         Let ("seed", fld 56 +: i 1);
         set_fld 56 (v "seed");
         For
           ( "j",
             i 0,
             i rs_count,
             [
               Let ("rs", fld 40 +: (v "j" *: i rs_slot));
               (* precompute the full frame body in the slot *)
               st32 (v "rs") (fld 8);
               st64 (v "rs" +: i 4) (fld 16);
               st8 (v "rs" +: i 12) (v "j");
               st32 (v "rs" +: i 13) (v "seed");
               st16 (v "rs" +: i 17) (v "symlen");
               Let ("payload", v "rs" +: i hdr);
               pl_memset (v "payload") (i 0) (v "symlen");
               For
                 ( "s",
                   i 0,
                   v "count",
                   [
                     Let ("sym", fld 32 +: (v "s" *: i sym_size));
                     Let
                       ( "coef",
                         match code with
                         | Xor -> i 1
                         | Rlc ->
                           call "rng_coef"
                             [ v "seed"; ld64 (slot_pn (v "s")); v "j" ] );
                     callv "gf256_mulvec"
                       [ v "payload"; v "sym"; v "coef"; v "symlen" ];
                   ] );
               reserve frame_type (v "symlen" +: i 24) 0 (v "j");
               set_fld 48 (fld 48 +: i 1);
             ] );
         set_fld 0 (i 0);
         set_fld 16 (i 0);
         set_fld 24 (i 0);
         ret0;
       ])

(* write_frame[FEC_RS]: copy the precomputed frame body. *)
let write_rs =
  func "fec_write_rs" [ "buf"; "maxlen"; "cookie" ]
    (s_state
       [
         Let ("rs", fld 40 +: (v "cookie" *: i rs_slot));
         Let ("total", ld16 (v "rs" +: i 17) +: i hdr);
         If (fld 48 >: i 0, [ set_fld 48 (fld 48 -: i 1) ], []);
         If (v "total" >: v "maxlen", [ ret0 ], []);
         pl_memcpy (v "buf") (v "rs") (v "total");
         ret (v "total");
       ])

(* Repair symbols are never retransmitted: stale redundancy is useless. *)
let notify_rs =
  func "fec_notify_rs" [ "acked"; "cookie"; "buf" ] [ ret0 ]

(* Cap per-packet stream data so a repair symbol covering a full packet
   still fits into one FEC_RS frame (replace anchor on stream_bytes_max). *)
let cap_stream_bytes =
  func "fec_stream_bytes_max" [ "cap" ]
    [ ret (v "cap" -: i 80) ]

(* --------------- receiver state (opaque 11, 768 bytes) --------------- *)
(* 0..511 ring pn per slot | 512 ring slab | 520 cur_base | 528 cur_mask |
   536 cur_seed | 544 nrs | 552..615 rs idx meta | 616 rs_slab |
   624 scratch | 632..695 matrix | 696..759 missing pn list *)
let r_state body = with_state ~id:11 ~size:768 body

let ring_slots = 64

let ring_pn pn_expr = v "st" +: ((pn_expr %: i ring_slots) *: i 8)
let ring_sym pn_expr = fld 512 +: ((pn_expr %: i ring_slots) *: i sym_size)

let ensure_receiver_slabs =
  [
    If
      ( fld 512 =: i 0,
        [
          set_fld 512 (pl_malloc (i (ring_slots * sym_size)));
          set_fld 616 (pl_malloc (i (8 * sym_size)));
          set_fld 624 (pl_malloc (i sym_size));
        ],
        [] );
    If (fld 512 =: i 0, [ ret0 ], []);
    If (fld 616 =: i 0, [ ret0 ], []);
    If (fld 624 =: i 0, [ ret0 ], []);
  ]

(* Store every received packet in the ring (post received_packet). *)
let recv_store =
  func "fec_recv_store" [ "pn"; "path" ]
    (r_state
       (ensure_receiver_slabs
        @ [
            Let ("addr", ring_sym (v "pn"));
            pl_memset (v "addr") (i 0) (i sym_size);
            Let ("n", call "packet_bytes" [ v "addr"; i sym_size ]);
            If (v "n" >: i 0, [ st64 (ring_pn (v "pn")) (v "pn") ], []);
            ret0;
          ]))

let parse_rs =
  func "fec_parse_rs" [ "buf"; "buflen" ]
    [
      If (v "buflen" <: i hdr, [ ret0 ], []);
      Let ("symlen", ld16 (v "buf" +: i 17));
      If (v "symlen" +: i hdr >: v "buflen", [ ret0 ], []);
      ret (v "symlen" +: i hdr);
    ]

let mat_at r m = v "st" +: i 632 +: (r *: i 8) +: m
let miss_pn m = v "st" +: i 696 +: (m *: i 8)
let rs_idx r = v "st" +: i 552 +: (r *: i 8)
let rs_vec r = fld 616 +: (r *: i sym_size)

(* process_frame[FEC_RS]: store the repair symbol and attempt recovery. *)
let process_rs ~code =
  let solve : Plc.Ast.stmt list =
    match code with
    | Xor ->
      [
        (* XOR recovers exactly one missing packet: fold the repair symbol
           with every present protected packet *)
        If (v "missing" >: i 1, [ ret0 ], []);
        Let ("rec", fld 624);
        pl_memset (v "rec") (i 0) (i sym_size);
        callv "gf256_mulvec" [ v "rec"; rs_vec (i 0); i 1; v "symlen" ];
        For
          ( "b2",
            i 0,
            i 60,
            [
              If
                ( bit_set (fld 528) (v "b2"),
                  [
                    Let ("pnb2", fld 520 +: v "b2");
                    If
                      ( ld64 (ring_pn (v "pnb2")) =: v "pnb2",
                        [
                          callv "gf256_mulvec"
                            [ v "rec"; ring_sym (v "pnb2"); i 1; v "symlen" ];
                        ],
                        [] );
                  ],
                  [] );
            ] );
        (* feed the ring so later repair symbols see it as present *)
        Let ("mp", ld64 (miss_pn (i 0)));
        pl_memset (ring_sym (v "mp")) (i 0) (i sym_size);
        pl_memcpy (ring_sym (v "mp")) (v "rec") (v "symlen");
        st64 (ring_pn (v "mp")) (v "mp");
        callv "recover_packet" [ v "rec"; v "symlen" ];
        ret0;
      ]
    | Rlc ->
      [
        (* subtract the known packets from every equation, then build the
           coefficient matrix over the missing ones *)
        For
          ( "r",
            i 0,
            v "nrs",
            [
              Let ("row", rs_vec (v "r"));
              Let ("ridx", ld64 (rs_idx (v "r")));
              For
                ( "b3",
                  i 0,
                  i 60,
                  [
                    If
                      ( bit_set (fld 528) (v "b3"),
                        [
                          Let ("pnb3", fld 520 +: v "b3");
                          If
                            ( ld64 (ring_pn (v "pnb3")) =: v "pnb3",
                              [
                                Let
                                  ( "coef",
                                    call "rng_coef"
                                      [ fld 536; v "pnb3"; v "ridx" ] );
                                callv "gf256_mulvec"
                                  [ v "row"; ring_sym (v "pnb3"); v "coef";
                                    v "symlen" ];
                              ],
                              [] );
                        ],
                        [] );
                  ] );
              For
                ( "m",
                  i 0,
                  v "missing",
                  [
                    st8 (mat_at (v "r") (v "m"))
                      (call "rng_coef"
                         [ fld 536; ld64 (miss_pn (v "m")); v "ridx" ]);
                  ] );
            ] );
        (* Gauss-Jordan elimination; the while loop makes this pluglet's
           termination unprovable by the checker, as in the paper *)
        Let ("col", i 0);
        Let ("rowi", i 0);
        While
          ( (v "col" <: v "missing") &&: (v "rowi" <: v "nrs"),
            [
              Let ("piv", Const (-1L));
              For
                ( "r4",
                  v "rowi",
                  v "nrs",
                  [
                    If
                      ( (ld8 (mat_at (v "r4") (v "col")) <>: i 0)
                        &&: (v "piv" =: Const (-1L)),
                        [ Assign ("piv", v "r4") ],
                        [] );
                  ] );
              (* No pivot: the equations are reduced in place and cannot
                 be reduced again, so drop them and wait for fresh ones. *)
              If (v "piv" =: Const (-1L), [ set_fld 544 (i 0); ret0 ], []);
              If
                ( v "piv" <>: v "rowi",
                  [
                    (* swap matrix rows and symbol vectors *)
                    For
                      ( "m5",
                        i 0,
                        v "missing",
                        [
                          Let ("t", ld8 (mat_at (v "rowi") (v "m5")));
                          st8 (mat_at (v "rowi") (v "m5"))
                            (ld8 (mat_at (v "piv") (v "m5")));
                          st8 (mat_at (v "piv") (v "m5")) (v "t");
                        ] );
                    pl_memcpy (fld 624) (rs_vec (v "rowi")) (v "symlen");
                    pl_memcpy (rs_vec (v "rowi")) (rs_vec (v "piv")) (v "symlen");
                    pl_memcpy (rs_vec (v "piv")) (fld 624) (v "symlen");
                  ],
                  [] );
              Let ("inv", call "gf256_inv" [ ld8 (mat_at (v "rowi") (v "col")) ]);
              callv "gf256_scalevec" [ rs_vec (v "rowi"); v "inv"; v "symlen" ];
              For
                ( "m6",
                  i 0,
                  v "missing",
                  [
                    st8 (mat_at (v "rowi") (v "m6"))
                      (call "gf256_mul"
                         [ ld8 (mat_at (v "rowi") (v "m6")); v "inv" ]);
                  ] );
              For
                ( "r7",
                  i 0,
                  v "nrs",
                  [
                    If
                      ( (v "r7" <>: v "rowi")
                        &&: (ld8 (mat_at (v "r7") (v "col")) <>: i 0),
                        [
                          Let ("cf", ld8 (mat_at (v "r7") (v "col")));
                          callv "gf256_mulvec"
                            [ rs_vec (v "r7"); rs_vec (v "rowi"); v "cf";
                              v "symlen" ];
                          For
                            ( "m8",
                              i 0,
                              v "missing",
                              [
                                st8 (mat_at (v "r7") (v "m8"))
                                  (Bin
                                     ( Plc.Ast.Xor,
                                       ld8 (mat_at (v "r7") (v "m8")),
                                       call "gf256_mul"
                                         [ v "cf";
                                           ld8 (mat_at (v "rowi") (v "m8"));
                                         ] ));
                              ] );
                        ],
                        [] );
                  ] );
              Assign ("col", v "col" +: i 1);
              Assign ("rowi", v "rowi" +: i 1);
            ] );
        (* rows 0..missing-1 now hold the solutions *)
        For
          ( "m9",
            i 0,
            v "missing",
            [
              Let ("mp9", ld64 (miss_pn (v "m9")));
              pl_memset (ring_sym (v "mp9")) (i 0) (i sym_size);
              pl_memcpy (ring_sym (v "mp9")) (rs_vec (v "m9")) (v "symlen");
              st64 (ring_pn (v "mp9")) (v "mp9");
              callv "recover_packet" [ rs_vec (v "m9"); v "symlen" ];
            ] );
        ret0;
      ]
  in
  func "fec_process_rs" [ "buf"; "consumed"; "pn" ]
    (r_state
       (ensure_receiver_slabs
        @ [
            Let ("base", ld32 (v "buf"));
            Let ("mask", ld64 (v "buf" +: i 4));
            Let ("idx", ld8 (v "buf" +: i 12));
            Let ("seed", ld32 (v "buf" +: i 13));
            Let ("symlen", ld16 (v "buf" +: i 17));
            If ((v "symlen" =: i 0) ||: (v "symlen" >: i sym_size), [ ret0 ], []);
            (* a new window resets the repair-symbol set *)
            If
              ( (v "base" <>: fld 520) ||: (v "mask" <>: fld 528),
                [
                  set_fld 520 (v "base");
                  set_fld 528 (v "mask");
                  set_fld 536 (v "seed");
                  set_fld 544 (i 0);
                ],
                [] );
            Let ("nrs", fld 544);
            If (v "nrs" >=: i 8, [ ret0 ], []);
            Let ("slotv", rs_vec (v "nrs"));
            pl_memset (v "slotv") (i 0) (i sym_size);
            pl_memcpy (v "slotv") (v "buf" +: i hdr) (v "symlen");
            st64 (rs_idx (v "nrs")) (v "idx");
            Assign ("nrs", v "nrs" +: i 1);
            set_fld 544 (v "nrs");
            (* enumerate the missing protected packets *)
            Let ("missing", i 0);
            For
              ( "b",
                i 0,
                i 60,
                [
                  If
                    ( bit_set (v "mask") (v "b"),
                      [
                        Let ("pnb", v "base" +: v "b");
                        If
                          ( ld64 (ring_pn (v "pnb")) <>: v "pnb",
                            [
                              If
                                ( v "missing" <: i 8,
                                  [ st64 (miss_pn (v "missing")) (v "pnb") ],
                                  [] );
                              Assign ("missing", v "missing" +: i 1);
                            ],
                            [] );
                      ],
                      [] );
                ] );
            If (v "missing" =: i 0, [ ret0 ], []);
            If ((v "missing" >: v "nrs") ||: (v "missing" >: i 8), [ ret0 ], []);
          ]
        @ solve))

(* ---------------------------------------------------------------- *)

let build ?(k = default_k) ?(r = default_r) ~code ~mode () : Pluginop.Plugin.t =
  (* state-layout limits: per-slot pn array (96 + 8k <= 512), repair slab
     (5 slots), receiver equations (8), window pn span (60 bits) *)
  if k < 2 || k > 50 then invalid_arg "Fec.build: k must be in [2, 50]";
  if r < 1 || r > 5 then invalid_arg "Fec.build: r must be in [1, 5]";
  {
    Pluginop.Plugin.name = plugin_name ~k ~r ~code ~mode ();
    pluglets =
      [
        pluglet ~op:Pluginop.Protoop.packet_was_sent ~anchor:Pluginop.Protoop.Post
          (capture ~k_window:k ~code ~mode);
        pluglet ~op:op_fec_flush ~anchor:Pluginop.Protoop.Replace
          (flush ~r_repair:r ~code);
        pluglet ~op:Pluginop.Protoop.write_frame ~param:frame_type
          ~anchor:Pluginop.Protoop.Replace write_rs;
        pluglet ~op:Pluginop.Protoop.notify_frame ~param:frame_type
          ~anchor:Pluginop.Protoop.Replace notify_rs;
        pluglet ~op:Pluginop.Protoop.stream_bytes_max ~anchor:Pluginop.Protoop.Replace
          cap_stream_bytes;
        pluglet ~op:Pluginop.Protoop.received_packet ~anchor:Pluginop.Protoop.Post
          recv_store;
        pluglet ~op:Pluginop.Protoop.parse_frame ~param:frame_type
          ~anchor:Pluginop.Protoop.Replace parse_rs;
        pluglet ~op:Pluginop.Protoop.process_frame ~param:frame_type
          ~anchor:Pluginop.Protoop.Replace (process_rs ~code);
      ];
  }

let xor_full = build ~code:Xor ~mode:Full ()
let xor_eos = build ~code:Xor ~mode:Eos ()
let rlc_full = build ~code:Rlc ~mode:Full ()
let rlc_eos = build ~code:Rlc ~mode:Eos ()
