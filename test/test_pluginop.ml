(* Plugin instances sized by use: the heap's backing grows under the
   pluglets without moving their addresses, stops at what was allocated,
   and building and attaching an instance from a prepared template costs
   a bounded number of words. *)

module Topology = Netsim.Topology
module C = Pquic.Connection

let check = Alcotest.check

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let make_conn () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  C.create ~sim:topo.Topology.sim ~net:topo.Topology.net
    ~cfg:C.default_config ~role:C.Client
    ~local_addr:(List.hd topo.Topology.client_addrs)
    ~remote_addr:topo.Topology.server_addr ~local_cid:1L ~remote_cid:2L
    ~local_params:Quic.Transport_params.default ()

(* ---- heap growth ---------------------------------------------------- *)

let op_grow = 150
let op_read = 151
let sentinel = 0x5e47_1e1L

(* Pluglet A allocates past the initial 4 KiB backing and writes a
   sentinel near the end of its block; pluglet B, another PRE of the same
   instance, loads 64 bits from whatever address it is handed. *)
let grow_plugin =
  let open Plugins.Dsl in
  let open Plc.Ast in
  {
    Pluginop.Plugin.name = "org.test.heap-grow";
    pluglets =
      [
        pluglet ~op:op_grow ~anchor:Pluginop.Protoop.Replace
          (func "grow" []
             [
               Let ("p", pl_malloc (i 8192));
               st64 (v "p" +: i 8184) (Const sentinel);
               ret (v "p" +: i 8184);
             ]);
        pluglet ~op:op_read ~anchor:Pluginop.Protoop.Replace
          (func "read" [ "addr" ] [ ret (ld64 (v "addr")) ]);
      ];
  }

let test_grown_heap_seen_by_every_pre () =
  let c = make_conn () in
  (match C.inject_plugin c grow_plugin with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let addr = C.run_op c op_grow [||] in
  check Alcotest.bool "allocation succeeded" true (addr <> 0L);
  check Alcotest.int64 "the other PRE reads the sentinel" sentinel
    (C.run_op c op_read [| C.I addr |]);
  (* 128 KiB into the heap: inside the 256 KiB cap, past the 8 KiB
     backing the allocation grew *)
  let beyond = Int64.add addr (Int64.of_int (128 * 1024)) in
  ignore (C.run_op c op_read [| C.I beyond |]);
  check Alcotest.bool "plugin removed" false
    (C.has_plugin c grow_plugin.Pluginop.Plugin.name);
  check Alcotest.int "one sanction" 1 (C.stats c).C.plugin_sanctions;
  match C.state c with
  | C.Failed msg ->
    check Alcotest.bool "memory violation named" true
      (contains msg "memory violation")
  | _ -> Alcotest.fail "read past the backing was not sanctioned"

(* ---- allocation gates ----------------------------------------------- *)

(* Minor words to build a Monitoring instance from a warm template and
   attach it to a fresh connection. *)
let attach_words tpl =
  let conns = Array.init 4 (fun _ -> make_conn ()) in
  ignore (C.attach_instance (make_conn ()) (C.build_instance tpl));
  let w0 = Gc.minor_words () in
  Array.iter (fun c -> ignore (C.attach_instance c (C.build_instance tpl))) conns;
  (Gc.minor_words () -. w0) /. float_of_int (Array.length conns)

(* Words an instance holds on its own: reachable from it but from neither
   the template it shares programs with nor the connection its helpers
   close over. Measured once the instance is detached, as the node caches
   it for reuse. *)
let own_words tpl =
  let c = make_conn () in
  let inst = C.attach_instance c (C.build_instance tpl) in
  C.remove_plugin c Plugins.Monitoring.name;
  let shared = Obj.repr (tpl, c) in
  Obj.reachable_words (Obj.repr (inst, shared)) - Obj.reachable_words shared

(* Ceilings at about twice the figures measured when templates, the
   grown-on-demand heap and the per-attach helper table came in: 3,044
   minor words per build and attach, 3,770 words per instance. Building
   every instance from the plugin itself, over an eager 256 KiB heap with
   helpers bound per PRE, measured 25,251 minor words and 49,790 words
   (the heap alone is 32,768). *)
let test_attach_allocation () =
  let tpl = C.prepare Plugins.Monitoring.plugin in
  let words = attach_words tpl in
  if words > 6_000. then
    Alcotest.failf "build and attach: %.0f minor words, ceiling 6000" words;
  let own = own_words tpl in
  if own > 7_500 then
    Alcotest.failf "instance holds %d words, ceiling 7500" own

let tests =
  [
    ( "heap",
      [
        Alcotest.test_case "grown heap seen by every PRE, bounded by use"
          `Quick test_grown_heap_seen_by_every_pre;
      ] );
    ( "alloc",
      [
        Alcotest.test_case "build and attach from a template" `Quick
          test_attach_allocation;
      ] );
  ]
