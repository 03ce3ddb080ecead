(* eBPF substrate tests: wire encoding, static verifier, interpreter
   semantics and the runtime memory monitor. *)

module I = Ebpf.Insn
module V = Ebpf.Verifier
module Vm = Ebpf.Vm

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let i64 = Alcotest.int64

(* --------------------------- generators ----------------------------- *)

let gen_reg = QCheck2.Gen.int_range 0 10
let gen_wreg = QCheck2.Gen.int_range 0 9 (* writable registers *)

let gen_alu_op =
  QCheck2.Gen.oneofl
    [ I.Add; I.Sub; I.Mul; I.Div; I.Or; I.And; I.Lsh; I.Rsh; I.Neg; I.Mod;
      I.Xor; I.Mov; I.Arsh ]

let gen_cond =
  QCheck2.Gen.oneofl
    [ I.Jeq; I.Jgt; I.Jge; I.Jset; I.Jne; I.Jsgt; I.Jsge; I.Jlt; I.Jle;
      I.Jslt; I.Jsle ]

let gen_size = QCheck2.Gen.oneofl [ I.W8; I.W16; I.W32; I.W64 ]

let gen_operand =
  QCheck2.Gen.(
    oneof
      [ map (fun r -> I.Reg r) gen_reg;
        map (fun v -> I.Imm (Int32.of_int v)) (int_range (-10000) 10000) ])

let gen_insn =
  QCheck2.Gen.(
    oneof
      [
        map3 (fun op d o -> I.Alu64 (op, d, o)) gen_alu_op gen_wreg gen_operand;
        map3 (fun op d o -> I.Alu32 (op, d, o)) gen_alu_op gen_wreg gen_operand;
        map2 (fun d v -> I.Ld_imm64 (d, v)) gen_wreg
          (map Int64.of_int (int_range min_int max_int));
        map3 (fun sz d (s, off) -> I.Ldx (sz, d, s, off)) gen_size gen_wreg
          (pair gen_reg (int_range (-256) 255));
        map3 (fun sz d (off, s) -> I.Stx (sz, d, off, s)) gen_size gen_reg
          (pair (int_range (-256) 255) gen_reg);
        map3 (fun sz d (off, v) -> I.St (sz, d, off, Int32.of_int v)) gen_size
          gen_reg (pair (int_range (-256) 255) (int_range (-1000) 1000));
        map (fun off -> I.Ja off) (int_range (-100) 100);
        map (fun ((c, d), (o, off)) -> I.Jcond (c, d, o, off))
          (pair (pair gen_cond gen_reg) (pair gen_operand (int_range (-100) 100)));
        map (fun id -> I.Call id) (int_range 0 30);
        return I.Exit;
      ])

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* ----------------------------- encoding ----------------------------- *)

let encode_roundtrip =
  qcheck "encode/decode roundtrip" QCheck2.Gen.(list_size (int_range 1 64) gen_insn)
    (fun insns ->
      let prog = Array.of_list insns in
      let decoded = I.decode (I.encode prog) in
      decoded = prog)

let test_slots () =
  check int "lddw takes two slots" 2 (I.slots (I.Ld_imm64 (0, 42L)));
  check int "alu takes one slot" 1 (I.slots (I.Alu64 (I.Add, 0, I.Imm 1l)));
  check int "program slots" 3
    (I.program_slots [| I.Ld_imm64 (0, 1L); I.Exit |])

let test_decode_garbage () =
  Alcotest.check_raises "odd length rejected" (I.Decode_error "bytecode length not a multiple of 8")
    (fun () -> ignore (I.decode "abc"));
  (* an unknown opcode byte *)
  let bad = String.make 8 '\xff' in
  (match I.decode bad with
  | exception I.Decode_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted")

(* ----------------------------- verifier ----------------------------- *)

let verify prog = V.verify ~known_helper:(fun id -> id < 100) (Array.of_list prog)

let test_verifier_no_exit () =
  match verify [ I.Alu64 (I.Mov, 0, I.Imm 0l) ] with
  | Error errs -> check bool "no-exit reported" true (List.mem V.No_exit errs)
  | Ok () -> Alcotest.fail "program without exit accepted"

let test_verifier_write_fp () =
  match verify [ I.Alu64 (I.Mov, 10, I.Imm 0l); I.Exit ] with
  | Error errs ->
    check bool "read-only register write reported" true
      (List.exists (function V.Write_read_only _ -> true | _ -> false) errs)
  | Ok () -> Alcotest.fail "write to r10 accepted"

let test_verifier_div_zero () =
  match verify [ I.Alu64 (I.Div, 0, I.Imm 0l); I.Exit ] with
  | Error errs ->
    check bool "div by zero reported" true
      (List.exists (function V.Div_by_zero _ -> true | _ -> false) errs)
  | Ok () -> Alcotest.fail "constant division by zero accepted"

let test_verifier_bad_jump () =
  match verify [ I.Ja 100; I.Exit ] with
  | Error errs ->
    check bool "out-of-range jump reported" true
      (List.exists (function V.Bad_jump _ -> true | _ -> false) errs)
  | Ok () -> Alcotest.fail "jump out of program accepted"

let test_verifier_jump_into_lddw () =
  (* slot 1 is the second half of the lddw: not an instruction start *)
  match verify [ I.Ja 1; I.Ld_imm64 (0, 42L); I.Exit ] with
  | Error errs ->
    check bool "jump into lddw reported" true
      (List.exists (function V.Bad_jump _ -> true | _ -> false) errs)
  | Ok () -> Alcotest.fail "jump into lddw immediate accepted"

let test_verifier_stack_oob () =
  match
    V.verify ~stack_size:512
      [| I.Stx (I.W64, I.fp, -520, 0); I.Exit |]
  with
  | Error errs ->
    check bool "stack out of bounds reported" true
      (List.exists (function V.Bad_stack_access _ -> true | _ -> false) errs)
  | Ok () -> Alcotest.fail "stack access below frame accepted"

let test_verifier_stack_above_fp () =
  match V.verify ~stack_size:512 [| I.Stx (I.W64, I.fp, -4, 0); I.Exit |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "store crossing the frame pointer accepted"

let test_verifier_unknown_helper () =
  match verify [ I.Call 999; I.Exit ] with
  | Error errs ->
    check bool "unknown helper reported" true
      (List.exists (function V.Unknown_helper _ -> true | _ -> false) errs)
  | Ok () -> Alcotest.fail "unknown helper accepted"

let test_verifier_accepts_loop () =
  (* the relaxed verifier allows backward jumps, unlike the kernel's *)
  match
    verify
      [
        I.Alu64 (I.Mov, 0, I.Imm 10l);
        I.Alu64 (I.Sub, 0, I.Imm 1l);
        I.Jcond (I.Jne, 0, I.Imm 0l, -2);
        I.Exit;
      ]
  with
  | Ok () -> ()
  | Error errs ->
    Alcotest.failf "loop rejected: %s"
      (String.concat "; " (List.map V.error_to_string errs))

(* verifier must reject or the VM must survive any random mutation *)
let fuzz_mutations =
  qcheck ~count:300 "random bytecode is rejected or runs safely"
    QCheck2.Gen.(list_size (int_range 8 200) (int_range 0 255))
    (fun byte_list ->
      let n = List.length byte_list - (List.length byte_list mod 8) in
      let bytes =
        String.init n (fun i -> Char.chr (List.nth byte_list i))
      in
      match I.decode bytes with
      | exception I.Decode_error _ -> true
      | prog -> (
        match V.verify ~known_helper:(fun _ -> false) prog with
        | Error _ -> true
        | Ok () -> (
          let vm = Vm.create ~max_insns:10_000 () in
          match Vm.run vm prog with
          | _ -> true
          | exception
              ( Vm.Memory_violation _ | Vm.Fuel_exhausted
              | Vm.Helper_failure _ ) ->
            true)))

(* --------------------------- interpreter ----------------------------- *)

let run ?(args = [||]) prog =
  let vm = Vm.create () in
  Vm.run vm ~args (Array.of_list prog)

let test_arith () =
  check i64 "mov+add" 7L
    (run [ I.Alu64 (I.Mov, 0, I.Imm 3l); I.Alu64 (I.Add, 0, I.Imm 4l); I.Exit ]);
  check i64 "mul" 12L
    (run [ I.Alu64 (I.Mov, 0, I.Imm 3l); I.Alu64 (I.Mul, 0, I.Imm 4l); I.Exit ]);
  check i64 "div by zero yields 0" 0L
    (run
       [
         I.Alu64 (I.Mov, 0, I.Imm 7l);
         I.Alu64 (I.Mov, 1, I.Imm 0l);
         I.Alu64 (I.Div, 0, I.Reg 1);
         I.Exit;
       ]);
  check i64 "mod by zero keeps dst" 7L
    (run
       [
         I.Alu64 (I.Mov, 0, I.Imm 7l);
         I.Alu64 (I.Mov, 1, I.Imm 0l);
         I.Alu64 (I.Mod, 0, I.Reg 1);
         I.Exit;
       ])

let test_alu32_zero_extends () =
  check i64 "alu32 add wraps and zero-extends" 0L
    (run
       [
         I.Ld_imm64 (0, 0xFFFFFFFFL);
         I.Alu32 (I.Add, 0, I.Imm 1l);
         I.Exit;
       ]);
  check i64 "mov32 truncates" 0xFFFFFFFFL
    (run [ I.Ld_imm64 (0, -1L); I.Alu32 (I.Mov, 0, I.Reg 0); I.Exit ])

(* 64-bit ALU semantics against the OCaml Int64 reference *)
let alu64_reference =
  qcheck ~count:500 "alu64 matches Int64 reference"
    QCheck2.Gen.(
      triple gen_alu_op
        (map Int64.of_int (int_range min_int max_int))
        (map Int64.of_int (int_range min_int max_int)))
    (fun (op, a, b) ->
      let expected =
        let open Int64 in
        match op with
        | I.Add -> add a b
        | I.Sub -> sub a b
        | I.Mul -> mul a b
        | I.Div -> if b = 0L then 0L else unsigned_div a b
        | I.Mod -> if b = 0L then a else unsigned_rem a b
        | I.Or -> logor a b
        | I.And -> logand a b
        | I.Xor -> logxor a b
        | I.Lsh -> shift_left a (to_int (logand b 63L))
        | I.Rsh -> shift_right_logical a (to_int (logand b 63L))
        | I.Arsh -> shift_right a (to_int (logand b 63L))
        | I.Mov -> b
        | I.Neg -> neg a
      in
      let got =
        run
          [
            I.Ld_imm64 (0, a);
            I.Ld_imm64 (1, b);
            I.Alu64 (op, 0, I.Reg 1);
            I.Exit;
          ]
      in
      got = expected)

let jump_reference =
  qcheck ~count:500 "conditional jumps match comparison reference"
    QCheck2.Gen.(
      triple gen_cond
        (map Int64.of_int (int_range min_int max_int))
        (map Int64.of_int (int_range min_int max_int)))
    (fun (c, a, b) ->
      let expected =
        let u = Int64.unsigned_compare a b and s = Int64.compare a b in
        match c with
        | I.Jeq -> a = b
        | I.Jne -> a <> b
        | I.Jgt -> u > 0
        | I.Jge -> u >= 0
        | I.Jlt -> u < 0
        | I.Jle -> u <= 0
        | I.Jsgt -> s > 0
        | I.Jsge -> s >= 0
        | I.Jslt -> s < 0
        | I.Jsle -> s <= 0
        | I.Jset -> Int64.logand a b <> 0L
      in
      let got =
        run
          [
            I.Ld_imm64 (0, a);
            I.Ld_imm64 (1, b);
            I.Jcond (c, 0, I.Reg 1, 2);
            I.Alu64 (I.Mov, 0, I.Imm 0l);
            I.Exit;
            I.Alu64 (I.Mov, 0, I.Imm 1l);
            I.Exit;
          ]
      in
      (* careful: Jcond offset counts slots; Ld_imm64 above are before it *)
      got = if expected then 1L else 0L)

let test_loop_sum () =
  (* sum 1..10 with a backward jump *)
  check i64 "loop sum" 55L
    (run
       [
         I.Alu64 (I.Mov, 0, I.Imm 0l);
         I.Alu64 (I.Mov, 1, I.Imm 10l);
         I.Alu64 (I.Add, 0, I.Reg 1);
         I.Alu64 (I.Sub, 1, I.Imm 1l);
         I.Jcond (I.Jne, 1, I.Imm 0l, -3);
         I.Exit;
       ])

let test_stack_memory () =
  check i64 "stack store/load" 99L
    (run
       [
         I.Alu64 (I.Mov, 1, I.Imm 99l);
         I.Stx (I.W64, I.fp, -8, 1);
         I.Ldx (I.W64, 0, I.fp, -8);
         I.Exit;
       ])

let test_fuel () =
  let vm = Vm.create ~max_insns:100 () in
  match Vm.run vm [| I.Ja (-1); I.Exit |] with
  | exception Vm.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "infinite loop not stopped"

let test_memory_violation () =
  let vm = Vm.create () in
  match
    Vm.run vm [| I.Ld_imm64 (1, 0xDEAD0000L); I.Ldx (I.W64, 0, 1, 0); I.Exit |]
  with
  | exception Vm.Memory_violation _ -> ()
  | _ -> Alcotest.fail "unmapped load allowed"

let test_readonly_region () =
  let vm = Vm.create () in
  let base = Vm.map_arg vm 0 ~perm:Vm.Ro (Bytes.make 64 'x') ~off:0 ~len:64 in
  let prog =
    [| I.Ld_imm64 (1, base); I.Stx (I.W64, 1, 0, 0); I.Exit |]
  in
  (match Vm.run vm prog with
  | exception Vm.Memory_violation _ -> ()
  | _ -> Alcotest.fail "write to read-only region allowed");
  (* reading is fine *)
  let prog = [| I.Ld_imm64 (1, base); I.Ldx (I.W8, 0, 1, 0); I.Exit |] in
  check i64 "read-only read works" (Int64.of_int (Char.code 'x')) (Vm.run vm prog)

let test_region_bounds () =
  let vm = Vm.create () in
  Vm.set_heap vm (Bytes.make 16 '\000');
  (* access straddling the end of the region *)
  let prog =
    [| I.Ld_imm64 (1, Int64.add Vm.heap_base 12L); I.Ldx (I.W64, 0, 1, 0); I.Exit |]
  in
  match Vm.run vm prog with
  | exception Vm.Memory_violation _ -> ()
  | _ -> Alcotest.fail "straddling access allowed"

let test_helper_call () =
  let vm = Vm.create () in
  Vm.register_helper vm 1 (fun vm -> Vm.ret vm (Int64.add (Vm.arg vm 1) (Vm.arg vm 2)));
  let prog =
    [|
      I.Alu64 (I.Mov, 1, I.Imm 20l);
      I.Alu64 (I.Mov, 2, I.Imm 22l);
      I.Call 1;
      I.Exit;
    |]
  in
  check i64 "helper result in r0" 42L (Vm.run vm prog)

let test_helper_clobbers () =
  let vm = Vm.create () in
  Vm.register_helper vm 1 (fun _ -> ());
  (* r1 must not survive a call *)
  let prog =
    [|
      I.Alu64 (I.Mov, 1, I.Imm 55l);
      I.Call 1;
      I.Alu64 (I.Mov, 0, I.Reg 1);
      I.Exit;
    |]
  in
  check i64 "r1 clobbered by call" 0L (Vm.run vm prog)

let test_missing_helper () =
  let vm = Vm.create () in
  match Vm.run vm [| I.Call 1; I.Exit |] with
  | exception Vm.Helper_failure _ -> ()
  | _ -> Alcotest.fail "missing helper did not fail"

let test_args_passed () =
  let vm = Vm.create () in
  let prog = [| I.Alu64 (I.Mov, 0, I.Reg 3); I.Exit |] in
  check i64 "third argument reaches r3" 33L
    (Vm.run vm ~args:[| 11L; 22L; 33L |] prog)

let test_stack_isolated_between_runs () =
  let vm = Vm.create () in
  (* write to the stack, return the value read on a *second* run *)
  let write = [| I.St (I.W64, I.fp, -8, 77l); I.Exit |] in
  let read = [| I.Ldx (I.W64, 0, I.fp, -8); I.Exit |] in
  ignore (Vm.run vm write);
  check i64 "fresh stack per run" 0L (Vm.run vm read)

(* The fixed memory map: argument slot k is window 3 + k on every call,
   a cleared slot faults on both tiers while the heap stays mapped, and
   through [Dispatch] a pluglet that keeps an argument pointer in its
   heap cannot load through it on a later exec. *)
let fixed_map_op = 152

let fixed_map_plugin =
  let open Plugins.Dsl in
  {
    Pluginop.Plugin.name = "org.test.fixed-map";
    pluglets =
      [
        (* a = 0: load through the kept pointer; otherwise keep b, the
           address of argument 1, and return it *)
        pluglet ~op:fixed_map_op ~anchor:Pluginop.Protoop.Replace
          (func "keep" [ "a"; "b" ]
             (with_state ~id:1 ~size:8
                [
                  Plc.Ast.If (v "a" =: i 0, [ ret (ld8 (fld 0)) ], []);
                  set_fld 0 (v "b");
                  ret (v "b");
                ]));
      ];
  }

let test_fixed_memory_map () =
  let vm = Vm.create () in
  Vm.set_heap vm (Bytes.make 8 'h');
  let load = [| I.Ldx (I.W8, 0, 1, 0); I.Exit |] in
  let jp = Vm.jit load in
  let tiers =
    [ ("run", fun args -> Vm.run vm ~args load);
      ("run_jit", fun args -> Vm.run_jit vm ~args jp) ]
  in
  let map_all () =
    List.init 5 (fun k ->
        Vm.map_arg vm k ~perm:Vm.Ro (Bytes.make 8 (Char.chr (48 + k))) ~off:0 ~len:8)
  in
  let bases = map_all () in
  List.iteri
    (fun k b ->
      check i64 "argument k at window 3 + k" (Int64.shift_left (Int64.of_int (3 + k)) 32) b)
    bases;
  List.iter
    (fun (tier, run) ->
      List.iteri
        (fun k b -> check i64 (tier ^ ": slot mapped") (Int64.of_int (48 + k)) (run [| b |]))
        bases;
      Vm.clear_args vm;
      List.iter
        (fun b ->
          match run [| b |] with
          | exception Vm.Memory_violation _ -> ()
          | v -> Alcotest.failf "%s: cleared slot read %Ld" tier v)
        bases;
      check i64 (tier ^ ": heap stays mapped") 104L (run [| Vm.heap_base |]);
      check (Alcotest.list i64) (tier ^ ": same addresses when mapped again") bases
        (map_all ()))
    tiers;
  (* through Dispatch: argument 1 sits at window 4 whatever earlier calls
     mapped, and a kept pointer to it is dead on the next exec *)
  let module C = Pquic.Connection in
  let conn () =
    let topo =
      Netsim.Topology.single_path ~seed:7L
        { Netsim.Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
    in
    let c =
      C.create ~sim:topo.Netsim.Topology.sim ~net:topo.Netsim.Topology.net
        ~cfg:C.default_config ~role:C.Client
        ~local_addr:(List.hd topo.Netsim.Topology.client_addrs)
        ~remote_addr:topo.Netsim.Topology.server_addr ~local_cid:1L
        ~remote_cid:2L ~local_params:Quic.Transport_params.default ()
    in
    (match C.inject_plugin c fixed_map_plugin with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    c
  in
  let c = conn () in
  let buf () = C.Buf (Bytes.make 8 'b', `Ro) in
  List.iter
    (fun args ->
      check i64 "argument 1 at window 4" 0x4_0000_0000L
        (C.run_op c fixed_map_op args))
    [ [| C.I 1L; buf () |]; [| buf (); buf () |]; [| C.I 1L; buf () |] ];
  ignore (C.run_op c fixed_map_op [| C.I 0L |]);
  check bool "plugin removed" false
    (C.has_plugin c fixed_map_plugin.Pluginop.Plugin.name);
  (match C.state c with
  | C.Failed msg ->
    check Alcotest.string "sanction names the violation"
      "plugin org.test.fixed-map misbehaved: memory violation: access of 1 \
       bytes at 0x400000000 outside any region"
      msg
  | _ -> Alcotest.fail "a kept argument pointer was readable");
  match C.run_op (conn ()) fixed_map_op (Array.make 6 (C.I 1L)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a sixth argument was accepted"

(* ---------------- execution tiers (run, jit) ------------------------- *)

(* [Vm.run] is the executable specification of pluglet semantics and the
   JIT's deoptimisation target; [Vm.jit] + [Vm.run_jit] is the
   closure-compiled tier the PREs execute. Both must agree on results, on
   traps and on instruction accounting for every program the verifier
   admits, and for the unverified shapes the JIT deoptimises on. *)

type outcome = Value of int64 | Trap of string

let outcome_to_string = function
  | Value v -> Printf.sprintf "value %Ld" v
  | Trap s -> "trap [" ^ s ^ "]"

(* Two helpers are registered; helper 7 is known to the verifier but never
   registered, so calling it traps [Helper_failure] at runtime. *)
let diff_known_helper id = id = 1 || id = 2 || id = 7

let diff_vm ?(max_insns = 2_000) () =
  let vm = Vm.create ~max_insns () in
  Vm.register_helper vm 1 (fun vm -> Vm.ret vm (Int64.add (Vm.arg vm 1) (Vm.arg vm 2)));
  Vm.register_helper vm 2 (fun vm -> Vm.ret vm (Int64.mul (Vm.arg vm 1) 3L));
  (* rw is the heap (window 2), ro argument 0 (window 3) *)
  Vm.set_heap vm (Bytes.init 64 (fun i -> Char.chr (i * 7 mod 256)));
  let ro =
    Vm.map_arg vm 0 ~perm:Vm.Ro
      (Bytes.init 32 (fun i -> Char.chr (255 - i)))
      ~off:0 ~len:32
  in
  (vm, [| Vm.heap_base; ro |])

let observe vm f =
  let before = Vm.executed vm in
  let outcome =
    match f () with
    | v -> Value v
    | exception Vm.Memory_violation m -> Trap ("memory: " ^ m)
    | exception Vm.Fuel_exhausted -> Trap "fuel"
    | exception Vm.Helper_failure m -> Trap ("helper: " ^ m)
    (* a bad register operand or falling off the end: the reference
       interpreter's own array bounds check *)
    | exception Invalid_argument m -> Trap ("invalid: " ^ m)
  in
  (outcome, Vm.executed vm - before)

(* Run [prog] through both tiers on identically prepared VMs (same region
   layout, hence identical base addresses passed as r1/r2). [vm] makes
   each VM and its arguments (default [diff_vm]); [stack_size] is the one
   the JIT compiles for. *)
let differential ?(vm = fun () -> diff_vm ()) ?stack_size prog =
  let vm_ref, args_ref = vm () in
  let vm_jit, args_jit = vm () in
  assert (args_ref = args_jit);
  let o_ref = observe vm_ref (fun () -> Vm.run vm_ref ~args:args_ref prog) in
  let o_jit =
    observe vm_jit (fun () ->
        Vm.run_jit vm_jit ~args:args_jit (Vm.jit ?stack_size prog))
  in
  (o_ref, o_jit)

let diff_case ?vm ?stack_size name prog =
  let (o_ref, e_ref), (o_jit, e_jit) =
    differential ?vm ?stack_size (Array.of_list prog)
  in
  check bool
    (Printf.sprintf "%s: %s = %s (jit)" name (outcome_to_string o_ref)
       (outcome_to_string o_jit))
    true (o_ref = o_jit);
  check int (name ^ ": jit executed-insn accounting") e_ref e_jit

(* Instructions biased towards what the verifier admits and towards the
   interesting memory cases: accesses through r1 (rw region), r2 (ro
   region) and fp, with offsets that sometimes leave the region. *)
let gen_diff_insn =
  QCheck2.Gen.(
    frequency
      [
        (5, map3 (fun op d o -> I.Alu64 (op, d, o)) gen_alu_op gen_wreg gen_operand);
        (3, map3 (fun op d o -> I.Alu32 (op, d, o)) gen_alu_op gen_wreg gen_operand);
        ( 2,
          map2 (fun d v -> I.Ld_imm64 (d, v)) gen_wreg
            (map Int64.of_int (int_range min_int max_int)) );
        ( 2,
          map3 (fun sz d (s, off) -> I.Ldx (sz, d, s, off)) gen_size gen_wreg
            (pair (oneofl [ 1; 2; 10 ]) (int_range (-32) 8)) );
        ( 2,
          map3 (fun sz (d, off) s -> I.Stx (sz, d, off, s)) gen_size
            (pair (oneofl [ 1; 10 ]) (int_range (-32) 8)) gen_reg );
        ( 1,
          map3 (fun sz (d, off) v -> I.St (sz, d, off, Int32.of_int v)) gen_size
            (pair (oneofl [ 1; 10 ]) (int_range (-32) 8)) (int_range (-1000) 1000) );
        (* negative offsets make loops: back edges, self-loops, and runs
           that exhaust their fuel mid-block and deoptimise *)
        (1, map (fun off -> I.Ja off) (int_range (-4) 3));
        ( 2,
          map (fun ((c, d), (o, off)) -> I.Jcond (c, d, o, off))
            (pair (pair gen_cond gen_reg) (pair gen_operand (int_range (-4) 3))) );
        (1, oneofl [ I.Call 1; I.Call 2; I.Call 7 ]);
      ])

let jit_matches_reference =
  qcheck ~count:500 "jit matches the reference"
    QCheck2.Gen.(list_size (int_range 1 25) gen_diff_insn)
    (fun insns ->
      let prog = Array.of_list (insns @ [ I.Exit ]) in
      match V.verify ~known_helper:diff_known_helper prog with
      | Error _ -> true (* not admitted: nothing to compare *)
      | Ok () ->
        let (o_ref, e_ref), (o_jit, e_jit) = differential prog in
        if o_ref = o_jit && e_ref = e_jit then true
        else
          QCheck2.Test.fail_reportf
            "reference: %s after %d insns@.jit:       %s after %d insns"
            (outcome_to_string o_ref) e_ref (outcome_to_string o_jit) e_jit)

let test_differential_traps () =
  (* fuel: a self-jump that never terminates *)
  diff_case "fuel exhaustion"
    [ I.Alu64 (I.Mov, 0, I.Imm 1l); I.Jcond (I.Jne, 0, I.Imm 0l, -1); I.Exit ];
  (* memory: load from a window no region occupies *)
  diff_case "unmapped load"
    [ I.Ld_imm64 (1, 0xBEEF_0000_0000L); I.Ldx (I.W64, 0, 1, 0); I.Exit ];
  (* memory: store into the read-only region (base arrives in r2) *)
  diff_case "read-only write"
    [ I.Alu64 (I.Mov, 0, I.Imm 5l); I.Stx (I.W8, 2, 0, 0); I.Exit ];
  (* memory: access straddling the end of the 64-byte rw region *)
  diff_case "straddling access" [ I.Ldx (I.W64, 0, 1, 60); I.Exit ];
  (* helper: id 7 passes verification but is not registered *)
  diff_case "unregistered helper" [ I.Call 7; I.Exit ];
  (* a clean run for contrast: loop, memory traffic and a helper call *)
  diff_case "clean mixed program"
    [
      I.Alu64 (I.Mov, 0, I.Imm 0l);
      I.Alu64 (I.Mov, 3, I.Imm 10l);
      I.Alu64 (I.Add, 0, I.Reg 3);
      I.Alu64 (I.Sub, 3, I.Imm 1l);
      I.Jcond (I.Jne, 3, I.Imm 0l, -3);
      I.Stx (I.W64, 1, 8, 0);
      I.Ldx (I.W32, 1, 1, 8);
      I.Alu64 (I.Mov, 2, I.Imm 100l);
      I.Call 1;
      I.Exit;
    ]

let test_lazy_jump_trap () =
  (* an out-of-range target on a conditional jump only traps when the jump
     is taken: compiling must not reject the program eagerly (r0 starts 0) *)
  diff_case "invalid jump not taken"
    [ I.Jcond (I.Jeq, 0, I.Imm 1l, 100); I.Exit ];
  diff_case "invalid jump taken" [ I.Jcond (I.Jeq, 0, I.Imm 0l, 100); I.Exit ];
  let vm, args = diff_vm () in
  match
    Vm.run_jit vm ~args (Vm.jit [| I.Jcond (I.Jeq, 0, I.Imm 0l, 100); I.Exit |])
  with
  | exception Vm.Memory_violation "jump to invalid slot" -> ()
  | exception e ->
    Alcotest.failf "wrong trap for taken invalid jump: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "taken invalid jump did not trap"

(* Every way the JIT leaves its compiled code must land in the reference
   interpreter at the exact instruction, with the same registers, stack
   and instruction count. *)
let test_deopt_parity () =
  (* fuel running out inside a prepaid block: a loop of 8-instruction
     bodies, with every budget that ends the run at a different point of
     the body (a block head finding less fuel than the block needs hands
     over to the reference loop, which spends the rest) *)
  let loop =
    [
      I.Alu64 (I.Mov, 0, I.Imm 0l);
      I.Alu64 (I.Mov, 3, I.Imm 5l);
      I.Alu64 (I.Add, 0, I.Reg 3);
      I.Stx (I.W64, I.fp, -8, 0);
      I.Ldx (I.W64, 4, I.fp, -8);
      I.Alu64 (I.Mul, 4, I.Imm 3l);
      I.Stx (I.W64, 1, 0, 4);
      I.Alu64 (I.Add, 0, I.Reg 4);
      I.Alu64 (I.Sub, 3, I.Imm 1l);
      I.Jcond (I.Jne, 3, I.Imm 0l, -8);
      I.Exit;
    ]
  in
  for max_insns = 1 to 45 do
    diff_case
      ~vm:(fun () -> diff_vm ~max_insns ())
      (Printf.sprintf "fuel %d in a prepaid block" max_insns)
      loop
  done;
  (* the VM's stack size differs from the compiled one: the whole run
     falls back to the reference interpreter *)
  diff_case ~stack_size:64 "stack size mismatch"
    [ I.St (I.W64, I.fp, -300, 9l); I.Ldx (I.W64, 0, I.fp, -300); I.Exit ];
  (* a conditional jump with an invalid target deoptimises even when not
     taken: the reference loop re-evaluates it on the registers handed
     over, then finishes the run *)
  diff_case "invalid jump target not taken, run completes"
    [
      I.Alu64 (I.Mov, 0, I.Imm 4l);
      I.Alu64 (I.Mov, 3, I.Imm 9l);
      I.Stx (I.W64, I.fp, -8, 3);
      I.Jcond (I.Jeq, 0, I.Imm 5l, 100);
      I.Ldx (I.W64, 4, I.fp, -8);
      I.Alu64 (I.Add, 0, I.Reg 4);
      I.Alu64 (I.Add, 0, I.Reg 3);
      I.Exit;
    ];
  (* an invalid jump target, reached after work in earlier blocks *)
  diff_case "invalid jump target after work"
    [
      I.Alu64 (I.Mov, 0, I.Imm 4l);
      I.Stx (I.W64, I.fp, -8, 0);
      I.Jcond (I.Jeq, 0, I.Imm 7l, 1);
      I.Ja 50;
      I.Exit;
    ];
  (* bad register operands, as destination and as source, mid-block *)
  diff_case "bad destination register"
    [ I.Alu64 (I.Mov, 0, I.Imm 1l); I.Alu64 (I.Mov, 11, I.Imm 2l); I.Exit ];
  diff_case "bad source register"
    [
      I.Alu64 (I.Mov, 0, I.Imm 1l);
      I.Stx (I.W64, I.fp, -8, 0);
      I.Alu64 (I.Add, 0, I.Reg 12);
      I.Exit;
    ];
  (* falling off the end of the program: the sentinel block *)
  diff_case "fall off the end" [ I.Alu64 (I.Mov, 0, I.Imm 1l) ]

(* Every pluglet the repository ships, through both tiers on VMs with
   deterministic stub helpers and two argument buffers: whatever each
   pluglet computes or traps on, the tiers must agree, down to the
   instruction count. *)
let test_real_pluglets () =
  let mk_vm stack_size =
    let vm = Vm.create ~stack_size ~max_insns:200_000 () in
    for id = 0 to 127 do
      Vm.register_helper vm id (fun vm ->
          let h = ref (Int64.of_int (id * 2654435761)) in
          for k = 1 to 5 do
            h := Int64.mul (Int64.logxor !h (Vm.arg vm k)) 0x100000001b3L
          done;
          Vm.ret vm !h)
    done;
    Vm.set_heap vm (Bytes.init 256 (fun i -> Char.chr (i * 11 mod 256)));
    let buf2 =
      Vm.map_arg vm 0 ~perm:Vm.Ro
        (Bytes.init 128 (fun i -> Char.chr (255 - i)))
        ~off:0 ~len:128
    in
    (vm, [| Vm.heap_base; buf2; 7L; 1300L; 3L |])
  in
  let plugins =
    [
      Plugins.Monitoring.plugin;
      Plugins.Datagram.plugin;
      Plugins.Multipath.plugin;
      Plugins.Fec.rlc_full;
      Plugins.Fec.xor_full;
      Plugins.Extras.Tlp.plugin;
      Plugins.Extras.Ecn.plugin;
      Plugins.Extras.Aimd.plugin;
    ]
  in
  List.iter
    (fun (p : Pluginop.Plugin.t) ->
      List.iteri
        (fun i (pl : Pluginop.Plugin.pluglet) ->
          let prog, stack_size = Pluginop.Plugin.compiled pl in
          diff_case
            ~vm:(fun () -> mk_vm stack_size)
            ~stack_size
            (Printf.sprintf "%s[%d] op=%d" p.name i pl.op)
            (Array.to_list prog))
        p.pluglets)
    plugins

(* Edge cases aimed at the jit's block structure: backward edges and
   self-loops (cell dispatch and fuel accounting), traps in the middle of
   a block (the [executed] reconstruction at each instruction), and
   accesses that leave the argument regions' windows in both directions. *)
let test_jit_block_edges () =
  (* backward jump spanning several blocks, with memory traffic inside *)
  diff_case "backward jump with stores"
    [
      I.Alu64 (I.Mov, 3, I.Imm 6l);
      I.Alu64 (I.Mov, 0, I.Imm 0l);
      I.Stx (I.W64, 1, 0, 3);
      I.Ldx (I.W32, 4, 1, 0);
      I.Alu64 (I.Add, 0, I.Reg 4);
      I.Alu64 (I.Sub, 3, I.Imm 1l);
      I.Jcond (I.Jne, 3, I.Imm 0l, -5);
      I.Exit;
    ];
  (* unconditional jump to self: pure fuel burn, trap accounting must
     agree down to the instruction *)
  diff_case "jump to self" [ I.Ja (-1); I.Exit ];
  (* conditional jump to itself that never flips: same, via the
     conditional cell path *)
  diff_case "conditional self-loop"
    [ I.Alu64 (I.Mov, 3, I.Imm 1l); I.Jcond (I.Jne, 3, I.Imm 0l, -1); I.Exit ];
  (* trap on a load with more work after it in the same block *)
  diff_case "trap mid-block, work after it"
    [
      I.Alu64 (I.Mov, 3, I.Imm 2l);
      I.Ldx (I.W64, 0, 1, 60);
      I.Alu64 (I.Add, 0, I.Reg 3);
      I.Exit;
    ];
  (* a store lands, then the next load in the block straddles the ro
     region *)
  diff_case "trap mid-block, after a store"
    [
      I.Alu64 (I.Mov, 3, I.Imm 9l);
      I.Stx (I.W64, 1, 0, 3);
      I.Ldx (I.W64, 0, 2, 28);
      I.Exit;
    ];
  (* leaving the argument buffer's window on both sides *)
  diff_case "arg buffer overrun" [ I.Ldx (I.W64, 0, 1, 4096); I.Exit ];
  diff_case "arg buffer underrun" [ I.Ldx (I.W64, 0, 1, -8); I.Exit ]

(* Regression input (shrunk from the datagram plugin's parse pluglet): a
   block holding a sub-64-bit load branches into a mov/ja block that
   leads to a jeq block. When an earlier JIT inlined that jeq into its
   predecessor's terminator, the compare read the stale register file
   instead of a pending mov commit. Every block now compiles to a
   per-instruction closure chain that writes the register file as it
   runs, and the program stays as a differential case for register state
   across block edges. *)
let test_jit_pending_commit_regression () =
  diff_case "per-insn head into threaded mov/jeq chain"
    [
      I.Stx (I.W64, I.fp, -8, 1);
      I.Stx (I.W64, I.fp, -16, 2);
      I.Ldx (I.W64, 0, I.fp, -8);
      I.Ldx (I.W16, 0, 0, 0);
      I.Stx (I.W64, I.fp, -24, 0);
      I.Ldx (I.W64, 0, I.fp, -24);
      I.Stx (I.W64, I.fp, -32, 0);
      I.Alu64 (I.Mov, 0, I.Imm 2l);
      I.Alu64 (I.Mov, 1, I.Reg 0);
      I.Ldx (I.W64, 0, I.fp, -32);
      I.Alu64 (I.Add, 0, I.Reg 1);
      I.Stx (I.W64, I.fp, -32, 0);
      I.Ldx (I.W64, 0, I.fp, -16);
      I.Alu64 (I.Mov, 1, I.Reg 0);
      I.Ldx (I.W64, 0, I.fp, -32);
      I.Jcond (I.Jgt, 0, I.Reg 1, 2);
      I.Alu64 (I.Mov, 0, I.Imm 0l);
      I.Ja 1;
      I.Alu64 (I.Mov, 0, I.Imm 1l);
      I.Jcond (I.Jeq, 0, I.Imm 0l, 3);
      I.Alu64 (I.Mov, 0, I.Imm 0l);
      I.Exit;
      I.Ja 0;
      I.Ldx (I.W64, 0, I.fp, -24);
      I.Exit;
    ]

let test_tiers_basics () =
  let prog = [| I.Alu64 (I.Mov, 0, I.Reg 3); I.Exit |] in
  let jp = Vm.jit prog in
  let vm = Vm.create () in
  let args = [| 11L; 22L; 33L |] in
  check i64 "args reach r3 (run)" 33L (Vm.run vm ~args prog);
  check i64 "args reach r3 (jit)" 33L (Vm.run_jit vm ~args jp);
  (* both tiers wipe the persistent stack between runs, whichever ran
     before *)
  let write = [| I.St (I.W64, I.fp, -8, 77l); I.Exit |] in
  let read = [| I.Ldx (I.W64, 0, I.fp, -8); I.Exit |] in
  ignore (Vm.run_jit vm ~args:[||] (Vm.jit write));
  check i64 "fresh stack for run after jit" 0L (Vm.run vm read);
  ignore (Vm.run vm write);
  check i64 "fresh stack for jit after run" 0L (Vm.run_jit vm ~args:[||] (Vm.jit read));
  (* both tiers account into the same [executed] counter *)
  let before = Vm.executed vm in
  ignore (Vm.run vm prog);
  ignore (Vm.run_jit vm ~args:[||] jp);
  check int "executed counts both tiers" 4 (Vm.executed vm - before)

let test_jit_basics () =
  let vm = Vm.create () in
  let jp = Vm.jit [| I.Alu64 (I.Mov, 0, I.Reg 3); I.Exit |] in
  check i64 "args reach r3" 33L (Vm.run_jit vm ~args:[| 11L; 22L; 33L |] jp);
  check i64 "jitted program reusable" 33L
    (Vm.run_jit vm ~args:[| 11L; 22L; 33L |] jp);
  (* a clone is the compiled program over fresh run state, and runs on
     another VM while the original keeps running on its own *)
  let c = Vm.jit_clone jp in
  let vm2 = Vm.create () in
  check i64 "clone runs" 22L (Vm.run_jit vm2 ~args:[| 0L; 0L; 22L |] c);
  check i64 "original still runs" 33L
    (Vm.run_jit vm ~args:[| 11L; 22L; 33L |] jp);
  (* the persistent stack is wiped between runs, as in the other tiers *)
  let write = Vm.jit [| I.St (I.W64, I.fp, -8, 77l); I.Exit |] in
  let read = Vm.jit [| I.Ldx (I.W64, 0, I.fp, -8); I.Exit |] in
  ignore (Vm.run_jit vm ~args:[||] write);
  check i64 "fresh stack per jit run" 0L (Vm.run_jit vm ~args:[||] read)

(* The PREs' content-addressed program cache: admitting the same bytecode
   twice verifies and compiles once (no second miss), and hands out clones
   that share the compiled program but not their run environments. *)
let test_program_cache () =
  let module P = Pluginop.Plugin in
  let module Pre = Pluginop.Pre in
  let prog = [| I.Alu64 (I.Mov, 0, I.Imm 7l); I.Exit |] in
  let mk () =
    Pre.instantiate ~plugin_name:"org.test.cache"
      (Pre.admit
         {
           P.op = 150;
           param = None;
           anchor = Pluginop.Protoop.Replace;
           code = P.Bytecode (prog, 64);
         })
      ~heap:(Bytes.create 64)
  in
  let a = mk () in
  let c0 = Pre.cache_counters () in
  let b = mk () in
  let c1 = Pre.cache_counters () in
  check int "second admission hits the cache" (c0.Pre.hits + 1) c1.Pre.hits;
  check int "second admission compiles nothing" c0.Pre.misses c1.Pre.misses;
  check int "no new cache entry" c0.Pre.entries c1.Pre.entries;
  check bool "the key is content-addressed" true
    (P.code_key prog 64 = P.code_key (Array.copy prog) 64);
  check bool "stack size is part of the key" true
    (P.code_key prog 64 <> P.code_key prog 128);
  check i64 "first instance runs" 7L (Pre.run a ~args:[||]);
  check i64 "cached instance runs" 7L (Pre.run b ~args:[||])

(* ---------------- helper calling convention ------------------------- *)

(* A helper reads r1..r5 and writes r0 in the VM's register file, on both
   tiers and across a deopt: the call sets r0 to 0 first (a helper that
   writes nothing returns 0) and clears r1..r5 after it. The program
   stores r0..r5 as they stand after the call into a buffer. *)
let test_helper_abi_tiers () =
  let prog ~deopt =
    [
      I.Alu64 (I.Mov, 6, I.Reg 1);
      I.Alu64 (I.Mov, 0, I.Imm 99l);
      I.Alu64 (I.Mov, 1, I.Imm 11l);
      I.Alu64 (I.Mov, 2, I.Imm 22l);
      I.Alu64 (I.Mov, 3, I.Imm 33l);
      I.Alu64 (I.Mov, 4, I.Imm 44l);
      I.Alu64 (I.Mov, 5, I.Imm 55l);
    ]
    (* an invalid target on a jump not taken: the JIT hands the run to
       the reference interpreter here, before the call *)
    @ (if deopt then [ I.Jcond (I.Jeq, 0, I.Imm 1l, 100) ] else [])
    @ [ I.Call 3 ]
    @ List.init 6 (fun r -> I.Stx (I.W64, 6, 8 * r, r))
    @ [ I.Alu64 (I.Mov, 0, I.Imm 7l); I.Exit ]
    |> Array.of_list
  in
  let run_tier name tier ~deopt =
    let vm = Vm.create () in
    let seen = ref [] in
    Vm.register_helper vm 3 (fun vm ->
        seen := List.init 5 (fun k -> Vm.arg vm (k + 1)));
    let out = Bytes.make 48 '\xff' in
    let args = [| Vm.map_arg vm 0 ~perm:Vm.Rw out ~off:0 ~len:48 |] in
    let p = prog ~deopt in
    let v =
      match tier with
      | `Run -> Vm.run vm ~args p
      | `Jit -> Vm.run_jit vm ~args (Vm.jit p)
    in
    check i64 (name ^ ": exits normally") 7L v;
    check (Alcotest.list i64) (name ^ ": helper reads r1-r5")
      [ 11L; 22L; 33L; 44L; 55L ] !seen;
    for reg = 0 to 5 do
      check i64
        (Printf.sprintf "%s: r%d is 0 after the call" name reg)
        0L (Bytes.get_int64_le out (8 * reg))
    done
  in
  run_tier "run" `Run ~deopt:false;
  run_tier "run_jit" `Jit ~deopt:false;
  run_tier "run_jit, deopt before the call" `Jit ~deopt:true;
  (* a helper's result lands in r0 on both tiers *)
  let vm = Vm.create () in
  Vm.register_helper vm 1 (fun vm ->
      Vm.ret_int vm (Vm.arg_int vm 1 - Vm.arg_int vm 2));
  let p = [| I.Alu64 (I.Mov, 1, I.Imm 50l); I.Alu64 (I.Mov, 2, I.Imm 8l); I.Call 1; I.Exit |] in
  check i64 "ret_int (run)" 42L (Vm.run vm p);
  check i64 "ret_int (jit)" 42L (Vm.run_jit vm ~args:[||] (Vm.jit p));
  match Vm.arg vm 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Vm.arg accepted r0"

(* A run wipes only the stack bytes earlier runs may have written. Each
   way of writing the stack that does not show in the JIT's compile-time
   stack-direct stores — a computed pointer, [fill_bytes], a writable
   [direct] borrow, the reference interpreter, a deopt — must still be
   wiped: a different program on the same VM then reads zero everywhere,
   whichever tier runs it. Each dirtier ends by loading the stack's
   lowest byte to prove it wrote there. *)
let test_stack_wipe_no_leak () =
  let low = [ I.Ldx (I.W64, 0, I.fp, -512); I.Exit ] in
  let computed =
    (* r1 = r10 - 512, then 64 stores of -1 through it *)
    [
      I.Alu64 (I.Mov, 1, I.Reg I.fp);
      I.Alu64 (I.Add, 1, I.Imm (-512l));
      I.Alu64 (I.Mov, 3, I.Imm (-1l));
      I.Alu64 (I.Mov, 4, I.Imm 64l);
      I.Stx (I.W64, 1, 0, 3);
      I.Alu64 (I.Add, 1, I.Imm 8l);
      I.Alu64 (I.Sub, 4, I.Imm 1l);
      I.Jcond (I.Jne, 4, I.Imm 0l, -4);
    ]
    @ low
  in
  let via_helper id =
    [ I.Alu64 (I.Mov, 1, I.Reg I.fp); I.Alu64 (I.Add, 1, I.Imm (-512l)); I.Call id ]
    @ low
  in
  let dirtiers =
    [
      ("computed pointer", computed);
      ("fill_bytes", via_helper 5);
      ("direct ~write:true", via_helper 6);
      ("deopt", I.Jcond (I.Jeq, 0, I.Imm 1l, 100) :: computed);
    ]
  in
  (* OR of all 64 stack words *)
  let reader =
    Array.of_list
      ((I.Alu64 (I.Mov, 0, I.Imm 0l)
        :: List.concat
             (List.init 64 (fun k ->
                  [ I.Ldx (I.W64, 2, I.fp, -8 * (k + 1)); I.Alu64 (I.Or, 0, I.Reg 2) ])))
      @ [ I.Exit ])
  in
  let tier_name = function `Run -> "run" | `Jit -> "run_jit" in
  let exec vm tier prog =
    match tier with
    | `Run -> Vm.run vm prog
    | `Jit -> Vm.run_jit vm ~args:[||] (Vm.jit prog)
  in
  List.iter
    (fun (name, dirty) ->
      List.iter
        (fun dirty_tier ->
          List.iter
            (fun read_tier ->
              let vm = Vm.create () in
              Vm.register_helper vm 5 (fun vm ->
                  Vm.fill_bytes vm (Vm.arg vm 1) 512 '\xff');
              Vm.register_helper vm 6 (fun vm ->
                  let b, off = Vm.direct vm ~write:true (Vm.arg vm 1) 512 in
                  Bytes.fill b off 512 '\xff');
              let what =
                Printf.sprintf "%s under %s, read under %s" name
                  (tier_name dirty_tier) (tier_name read_tier)
              in
              check i64 (what ^ ": stack dirtied") (-1L)
                (exec vm dirty_tier (Array.of_list dirty));
              check i64 (what ^ ": no leak") 0L (exec vm read_tier reader))
            [ `Run; `Jit ])
        [ `Run; `Jit ])
    dirtiers

(* The helper convention allocates nothing: a jitted program making 16
   calls to a helper that uses [arg_int]/[ret_int] allocates no more
   minor words than the same program without the calls. This runs in the
   dev profile, where nothing is inlined across modules. *)
let test_helper_call_alloc_free () =
  let call_block with_call =
    [ I.Alu64 (I.Mov, 1, I.Reg 0); I.Alu64 (I.Mov, 2, I.Imm 3l) ]
    @ (if with_call then [ I.Call 1 ] else [])
  in
  let prog with_call =
    Array.of_list
      ((I.Alu64 (I.Mov, 0, I.Imm 1l)
        :: List.concat (List.init 16 (fun _ -> call_block with_call)))
      @ [ I.Exit ])
  in
  let setup with_call =
    let vm = Vm.create () in
    Vm.register_helper vm 1 (fun vm ->
        Vm.ret_int vm (Vm.arg_int vm 1 + Vm.arg_int vm 2));
    (vm, Vm.jit (prog with_call))
  in
  let words with_call =
    let vm, jp = setup with_call in
    let run () = ignore (Sys.opaque_identity (Vm.run_jit vm ~args:[||] jp)) in
    for _ = 1 to 100 do run () done;
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do run () done;
    Gc.minor_words () -. before
  in
  (let vm, jp = setup true in
   check i64 "16 calls compute" 49L (Vm.run_jit vm ~args:[||] jp));
  let without = words false and with_calls = words true in
  if with_calls > without then
    Alcotest.failf "16 helper calls allocate: %.0f minor words over 1000 runs, %.0f without"
      with_calls without

let tests =
  [
    ("encoding", [
      Alcotest.test_case "slots" `Quick test_slots;
      Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
      encode_roundtrip;
    ]);
    ("verifier", [
      Alcotest.test_case "no exit" `Quick test_verifier_no_exit;
      Alcotest.test_case "write r10" `Quick test_verifier_write_fp;
      Alcotest.test_case "div by zero" `Quick test_verifier_div_zero;
      Alcotest.test_case "bad jump" `Quick test_verifier_bad_jump;
      Alcotest.test_case "jump into lddw" `Quick test_verifier_jump_into_lddw;
      Alcotest.test_case "stack oob" `Quick test_verifier_stack_oob;
      Alcotest.test_case "stack above fp" `Quick test_verifier_stack_above_fp;
      Alcotest.test_case "unknown helper" `Quick test_verifier_unknown_helper;
      Alcotest.test_case "loops allowed" `Quick test_verifier_accepts_loop;
      fuzz_mutations;
    ]);
    ("vm", [
      Alcotest.test_case "arith" `Quick test_arith;
      Alcotest.test_case "alu32 zero-extends" `Quick test_alu32_zero_extends;
      Alcotest.test_case "loop sum" `Quick test_loop_sum;
      Alcotest.test_case "stack memory" `Quick test_stack_memory;
      Alcotest.test_case "fuel" `Quick test_fuel;
      Alcotest.test_case "memory violation" `Quick test_memory_violation;
      Alcotest.test_case "read-only region" `Quick test_readonly_region;
      Alcotest.test_case "region bounds" `Quick test_region_bounds;
      Alcotest.test_case "helper call" `Quick test_helper_call;
      Alcotest.test_case "helper clobbers r1-r5" `Quick test_helper_clobbers;
      Alcotest.test_case "missing helper" `Quick test_missing_helper;
      Alcotest.test_case "args in r1-r5" `Quick test_args_passed;
      Alcotest.test_case "stack isolation" `Quick test_stack_isolated_between_runs;
      alu64_reference;
      jump_reference;
      Alcotest.test_case "fixed memory map on both tiers" `Quick
        test_fixed_memory_map;
    ]);
    ("tiers", [
      Alcotest.test_case "basics" `Quick test_tiers_basics;
      Alcotest.test_case "trap parity" `Quick test_differential_traps;
      Alcotest.test_case "lazy invalid jump" `Quick test_lazy_jump_trap;
      Alcotest.test_case "deopt parity" `Quick test_deopt_parity;
      Alcotest.test_case "real pluglets" `Quick test_real_pluglets;
      jit_matches_reference;
      Alcotest.test_case "helper calling convention" `Quick test_helper_abi_tiers;
      Alcotest.test_case "partial stack wipe leaks nothing" `Quick
        test_stack_wipe_no_leak;
      Alcotest.test_case "helper calls allocation-free" `Quick
        test_helper_call_alloc_free;
    ]);
    ("jit", [
      Alcotest.test_case "basics" `Quick test_jit_basics;
      Alcotest.test_case "block edges" `Quick test_jit_block_edges;
      Alcotest.test_case "pending-commit regression" `Quick
        test_jit_pending_commit_regression;
      Alcotest.test_case "program cache" `Quick test_program_cache;
    ]);
  ]
