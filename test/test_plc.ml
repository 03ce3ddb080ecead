(* Plugin-language tests: the compiler is validated against a reference
   interpreter of the AST over randomly generated programs, plus targeted
   control-flow and termination-checker cases. *)

open Plc.Ast

let i64 = Alcotest.int64
let check = Alcotest.check

let compile_and_run ?(helpers = []) ?(args = [||]) f =
  let helper_table = List.map (fun (name, id, _) -> (name, id)) helpers in
  let prog, stack_size = Plc.Compile.compile ~helpers:helper_table f in
  let vm = Ebpf.Vm.create ~stack_size () in
  List.iter (fun (_, id, fn) -> Ebpf.Vm.register_helper vm id fn) helpers;
  (match
     Ebpf.Verifier.verify ~stack_size
       ~known_helper:(fun id -> List.exists (fun (_, i, _) -> i = id) helpers)
       prog
   with
  | Ok () -> ()
  | Error errs ->
    Alcotest.failf "compiled program rejected: %s"
      (String.concat "; " (List.map Ebpf.Verifier.error_to_string errs)));
  Ebpf.Vm.run vm ~args prog

(* ------------------- reference interpreter --------------------------- *)

exception Returned of int64

(* What an effectful program may touch: one mapped region at [base] and
   the helpers of [test_helpers], whose calls are logged as (id, args).
   Any access outside the region traps, as the VM's monitor does. *)
exception Trap

type world = { base : int64; mem : Bytes.t; mutable calls : (int * int64 list) list }

(* name, id, arity; each returns a mix of its id and arguments *)
let test_helpers = [ ("h0", 10, 0); ("h1", 11, 1); ("h2", 12, 2); ("h3", 13, 3); ("h5", 14, 5) ]

let helper_result id args =
  List.fold_left (fun acc a -> Int64.add (Int64.mul acc 31L) a) (Int64.of_int id) args

let region_offset w sz addr =
  let off = Int64.sub addr w.base in
  let len = Int64.of_int (Bytes.length w.mem - Ebpf.Insn.size_bytes sz) in
  if off < 0L || off > len then raise Trap else Int64.to_int off

(* Operands, arguments and statements run left to right, as compiled. *)
let rec eval_expr w env e =
  let open Int64 in
  match e with
  | Const v -> v
  | Var x -> Hashtbl.find env x
  | Not e -> if eval_expr w env e = 0L then 1L else 0L
  | Load (sz, a) -> (
    let off = region_offset w sz (eval_expr w env a) in
    match sz with
    | Ebpf.Insn.W8 -> of_int (Bytes.get_uint8 w.mem off)
    | Ebpf.Insn.W16 -> of_int (Bytes.get_uint16_le w.mem off)
    | Ebpf.Insn.W32 -> logand (of_int32 (Bytes.get_int32_le w.mem off)) 0xffffffffL
    | Ebpf.Insn.W64 -> Bytes.get_int64_le w.mem off)
  | Call (f, args) ->
    let args = List.fold_left (fun acc a -> eval_expr w env a :: acc) [] args |> List.rev in
    let _, id, _ = List.find (fun (n, _, _) -> n = f) test_helpers in
    w.calls <- (id, args) :: w.calls;
    helper_result id args
  | Bin (op, a, b) ->
    let a = eval_expr w env a in
    let b = eval_expr w env b in
    let bool v = if v then 1L else 0L in
    let u = unsigned_compare a b and s = compare a b in
    (match op with
    | Add -> add a b
    | Sub -> sub a b
    | Mul -> mul a b
    | Div -> if b = 0L then 0L else unsigned_div a b
    | Mod -> if b = 0L then a else unsigned_rem a b
    | And -> logand a b
    | Or -> logor a b
    | Xor -> logxor a b
    | Shl -> shift_left a (to_int (logand b 63L))
    | Shr -> shift_right_logical a (to_int (logand b 63L))
    | Eq -> bool (a = b)
    | Ne -> bool (a <> b)
    | Lt -> bool (u < 0)
    | Le -> bool (u <= 0)
    | Gt -> bool (u > 0)
    | Ge -> bool (u >= 0)
    | Slt -> bool (s < 0)
    | Sle -> bool (s <= 0)
    | Sgt -> bool (s > 0)
    | Sge -> bool (s >= 0))

let rec eval_block w env b = List.iter (eval_stmt w env) b

and eval_stmt w env = function
  | Let (x, e) | Assign (x, e) -> Hashtbl.replace env x (eval_expr w env e)
  | Expr e -> ignore (eval_expr w env e)
  | Store (sz, a, e) -> (
    let addr = eval_expr w env a in
    let v = eval_expr w env e in
    let off = region_offset w sz addr in
    match sz with
    | Ebpf.Insn.W8 -> Bytes.set_uint8 w.mem off (Int64.to_int v land 0xff)
    | Ebpf.Insn.W16 -> Bytes.set_uint16_le w.mem off (Int64.to_int v land 0xffff)
    | Ebpf.Insn.W32 -> Bytes.set_int32_le w.mem off (Int64.to_int32 v)
    | Ebpf.Insn.W64 -> Bytes.set_int64_le w.mem off v)
  | If (c, t, f) ->
    if eval_expr w env c <> 0L then eval_block w env t else eval_block w env f
  | While (c, body) ->
    while eval_expr w env c <> 0L do
      eval_block w env body
    done
  | For (x, lo, hi, body) ->
    (* v = lo; while v <u hi do body; v := v + 1 — the increment applies
       to whatever the body left in v *)
    let hi = eval_expr w env hi in
    Hashtbl.replace env x (eval_expr w env lo);
    while Int64.unsigned_compare (Hashtbl.find env x) hi < 0 do
      eval_block w env body;
      Hashtbl.replace env x (Int64.add (Hashtbl.find env x) 1L)
    done
  | Return e -> raise (Returned (eval_expr w env e))

(* [Ok r0] or [Error ()] on a trap; [w] holds the region and call log. *)
let eval_func ?(w = { base = 0L; mem = Bytes.empty; calls = [] }) ?(args = []) f =
  let env = Hashtbl.create 16 in
  List.iter2 (Hashtbl.replace env) f.params args;
  try
    eval_block w env f.body;
    Ok 0L
  with
  | Returned v -> Ok v
  | Trap -> Error ()

(* The instruction budget: what a compiler that spills every intermediate
   value to the stack emits (each operand to a temporary, each comparison
   and negation materialised as 0/1 before a test against zero). No
   construct may compile to more. *)
let rec spill_size_expr = function
  | Const _ | Var _ -> 1
  | Bin (op, a, b) ->
    let cmp = match op with Eq | Ne | Lt | Le | Gt | Ge | Slt | Sle | Sgt | Sge -> 7 | _ -> 4 in
    spill_size_expr a + spill_size_expr b + cmp
  | Not e -> spill_size_expr e + 5
  | Load (_, a) -> spill_size_expr a + 1
  | Call (_, args) -> List.fold_left (fun n a -> n + spill_size_expr a + 2) 1 args

let rec spill_size_block b = List.fold_left (fun n s -> n + spill_size_stmt s) 0 b

and spill_size_stmt = function
  | Let (_, e) | Assign (_, e) | Return e -> spill_size_expr e + 1
  | Expr e -> spill_size_expr e
  | Store (_, a, e) -> spill_size_expr a + spill_size_expr e + 5
  | If (c, t, f) -> spill_size_expr c + 2 + spill_size_block t + spill_size_block f
  | While (c, b) -> spill_size_expr c + 2 + spill_size_block b
  | For (_, lo, hi, b) -> spill_size_expr lo + spill_size_expr hi + 9 + spill_size_block b

let spill_size f = List.length f.params + spill_size_block f.body + 2

(* ----------------------- random programs ----------------------------- *)

(* constants at the int32 immediate boundaries and beyond, zero and
   out-of-range divisors and shift counts *)
let gen_const =
  let open QCheck2.Gen in
  frequency
    [ (3, map (fun v -> Const (Int64.of_int v)) (int_range (-1000) 1000));
      (1, map (fun v -> Const v)
            (oneofl [ 0L; 1L; 63L; 64L; 65L; -1L; 0x7fff_ffffL; 0x8000_0000L;
                      -0x8000_0000L; -0x8000_0001L; 0x1_0000_0000L;
                      Int64.max_int; Int64.min_int ])) ]

let binops =
  [ Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge;
    Slt; Sle; Sgt; Sge ]

(* Expressions over [vars]; [extra] adds the effectful constructs, given
   the generator of subexpressions. *)
let gen_expr ~vars ~extra =
  let open QCheck2.Gen in
  let leaf = oneof [ gen_const; map (fun x -> Var x) (oneofl vars) ] in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             ([ leaf;
                map3 (fun op a b -> Bin (op, a, b)) (oneofl binops) sub sub;
                map2 ( &&: ) sub sub;
                map2 ( ||: ) sub sub;
                map (fun e -> Not e) (self (n - 1)) ]
             @ extra sub))

let gen_pure_expr = gen_expr ~vars:[ "x"; "y" ] ~extra:(fun _ -> [])

(* Addresses into the 64-byte region at [buf]: folded displacements in and
   out of range, and computed offsets. *)
let gen_addr sub =
  let open QCheck2.Gen in
  oneof
    [ map (fun k -> v "buf" +: i k) (int_range (-16) 80);
      map (fun k -> v "buf" -: i k) (int_range (-80) 16);
      map (fun e -> v "buf" +: (e %: i 64)) sub;
      map2 (fun e k -> (v "buf" +: (e %: i 64)) +: i k) sub (int_range (-8) 8) ]

let gen_size = QCheck2.Gen.oneofl Ebpf.Insn.[ W8; W16; W32; W64 ]

let gen_call sub =
  let open QCheck2.Gen in
  oneofl test_helpers >>= fun (name, _, arity) ->
  map (fun args -> Call (name, args)) (list_repeat arity sub)

let gen_effect_expr =
  gen_expr ~vars:[ "x"; "y"; "buf" ] ~extra:(fun sub ->
      QCheck2.Gen.[ map2 (fun sz a -> Load (sz, a)) gen_size (gen_addr sub); gen_call sub ])

(* Statements over x and y; "w" counts the iterations of bounded While
   loops, whose condition may add a random conjunct. *)
let gen_stmts ?(extra = []) expr =
  let open QCheck2.Gen in
  let stmt =
    oneof
      ([
        map (fun e -> [ Assign ("x", e) ]) expr;
        map (fun e -> [ Assign ("y", e) ]) expr;
        map3 (fun c a b -> [ If (c, [ Assign ("x", a) ], [ Assign ("y", b) ]) ])
          expr expr expr;
        map2 (fun n e -> [ For ("k", i 0, i (abs n mod 8), [ Assign ("x", Bin (Add, Var "x", e)) ]) ])
          (int_range 0 8) expr;
        (* a body that steps the induction variable itself: the loop
           still ends, as k only grows *)
        map3
          (fun n c e ->
            [ For ("k", i 0, i n,
                   [ Assign ("x", Bin (Add, Var "x", e)); Assign ("k", v "k" +: i c) ]) ])
          (int_range 0 8) (int_range 0 3) expr;
        map3
          (fun n c e ->
            let bound = v "w" <: i n in
            [ Assign ("w", i 0);
              While ((match c with None -> bound | Some c -> bound &&: c),
                     [ Assign ("x", v "x" +: e); Assign ("w", v "w" +: i 1) ]) ])
          (int_range 0 6) (option expr) expr;
      ]
      @ extra)
  in
  map List.concat (list_size (int_range 1 8) stmt)

let gen_effect_stmts =
  let open QCheck2.Gen in
  gen_stmts gen_effect_expr
    ~extra:
      [ map3 (fun sz a e -> [ Store (sz, a, e) ]) gen_size (gen_addr gen_effect_expr)
          gen_effect_expr;
        map (fun c -> [ Expr c ]) (gen_call gen_effect_expr) ]

let program ?(params = []) stmts result =
  { name = "prop"; params;
    body = (Let ("x", i 1) :: Let ("y", i 2) :: Let ("w", i 0) :: stmts) @ [ Return result ] }

let within_budget f =
  let prog, _ = Plc.Compile.compile ~helpers:(List.map (fun (n, id, _) -> (n, id)) test_helpers) f in
  Array.length prog <= spill_size f

let compiler_vs_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"compiled = reference interpreter"
       QCheck2.Gen.(pair (gen_stmts gen_pure_expr) gen_pure_expr)
       (fun (stmts, result) ->
         let f = program stmts result in
         within_budget f && Ok (compile_and_run f) = eval_func f))

(* The effectful fragment on both execution tiers: r0 or the trap, the
   region's bytes and the helper-call log must all match the reference. *)
let run_effectful ~jit f =
  let helper_table = List.map (fun (n, id, _) -> (n, id)) test_helpers in
  let prog, stack_size = Plc.Compile.compile ~helpers:helper_table f in
  (match Ebpf.Verifier.verify ~stack_size prog with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "compiled program rejected");
  let vm = Ebpf.Vm.create ~stack_size () in
  let calls = ref [] in
  List.iter
    (fun (_, id, arity) ->
      Ebpf.Vm.register_helper vm id (fun vm ->
          let args = List.init arity (fun k -> Ebpf.Vm.arg vm (k + 1)) in
          calls := (id, args) :: !calls;
          Ebpf.Vm.ret vm (helper_result id args)))
    test_helpers;
  let mem = Bytes.init 64 (fun k -> Char.chr ((k * 37) land 0xff)) in
  let base = Ebpf.Vm.map_arg vm 0 ~perm:Ebpf.Vm.Rw mem ~off:0 ~len:64 in
  let args = [| base |] in
  let result =
    try Ok (if jit then Ebpf.Vm.run_jit vm ~args (Ebpf.Vm.jit ~stack_size prog)
            else Ebpf.Vm.run vm ~args prog)
    with Ebpf.Vm.Memory_violation _ -> Error ()
  in
  let w = { base; mem = Bytes.init 64 (fun k -> Char.chr ((k * 37) land 0xff)); calls = [] } in
  let expected = eval_func ~w ~args:[ w.base ] f in
  (result, Bytes.to_string mem, List.rev !calls)
  = (expected, Bytes.to_string w.mem, List.rev w.calls)

let effectful_vs_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"loads, stores, calls = reference"
       QCheck2.Gen.(pair gen_effect_stmts gen_effect_expr)
       (fun (stmts, result) ->
         let f = program ~params:[ "buf" ] stmts result in
         within_budget f && run_effectful ~jit:false f && run_effectful ~jit:true f))

(* ------------------------- code shape -------------------------------- *)

(* Instructions a construct adds to an otherwise identical function. *)
let shape ?(params = [ "st"; "a"; "i"; "pad" ]) body =
  let len b =
    Array.length (fst (Plc.Compile.compile ~helpers:[ ("get", 7) ] { name = "s"; params; body = b }))
  in
  len body - len []

let test_shapes () =
  let ck what n body = check Alcotest.int what n (shape body) in
  ck "state field load" 2 [ Expr (Load (Ebpf.Insn.W64, v "st" +: i 8)) ];
  ck "state field store of a constant" 2 [ Store (Ebpf.Insn.W64, v "st" -: i 16, i 3) ];
  ck "compare with an immediate" 2 [ If (v "a" <: i 5, [], []) ];
  ck "compare two locals" 3 [ If (v "a" <: v "i", [], []) ];
  ck "get with a local index" 3 [ Expr (Call ("get", [ i 4; v "i" ])) ];
  ck "add an immediate" 3 [ Assign ("a", v "a" +: i 1) ];
  ck "boolean x <> 0 is x" 2 [ If ((v "a" <: i 5) <>: i 0, [], []) ];
  ck "pure && short-circuits" 4 [ If (v "a" <: i 5 &&: (v "i" >: i 2), [], []) ];
  check Alcotest.int "stored slot forwarded to the next load" 2
    (shape [ Let ("t", v "a" +: i 1); Return (v "t") ] - shape [ Return (i 0) ])


(* ------------------------- targeted cases ----------------------------- *)

let test_arith () =
  let f = { name = "t"; params = []; body = [ Return ((i 2 +: i 3) *: i 7) ] } in
  check i64 "arith" 35L (compile_and_run f)

let test_params () =
  let f = { name = "t"; params = [ "a"; "b" ]; body = [ Return (v "a" -: v "b") ] } in
  check i64 "params" 5L (compile_and_run ~args:[| 12L; 7L |] f)

let test_if_else () =
  let f cond =
    { name = "t"; params = [];
      body = [ If (cond, [ Return (i 1) ], [ Return (i 2) ]) ] }
  in
  check i64 "then" 1L (compile_and_run (f (i 3 <: i 5)));
  check i64 "else" 2L (compile_and_run (f (i 5 <: i 3)))

let test_for_loop () =
  let f =
    { name = "t"; params = [];
      body =
        [
          Let ("acc", i 0);
          For ("k", i 1, i 11, [ Assign ("acc", v "acc" +: v "k") ]);
          Return (v "acc");
        ] }
  in
  check i64 "sum 1..10" 55L (compile_and_run f);
  (* a body that reassigns the induction variable: the increment applies
     to the value it left (k = 5, then 6, which ends the loop) *)
  let f =
    { name = "t"; params = [];
      body = [ For ("k", i 0, i 3, [ Assign ("k", v "k" +: i 5) ]); Return (v "k") ] }
  in
  check i64 "reassigned induction variable" 6L (compile_and_run f);
  check Alcotest.bool "reference agrees" true (eval_func f = Ok 6L)

let test_nested_for () =
  let f =
    { name = "t"; params = [];
      body =
        [
          Let ("acc", i 0);
          For ("a", i 0, i 5,
               [ For ("b", i 0, i 5, [ Assign ("acc", v "acc" +: i 1) ]) ]);
          Return (v "acc");
        ] }
  in
  check i64 "5x5 nested loop" 25L (compile_and_run f)

let test_while_loop () =
  let f =
    { name = "t"; params = [];
      body =
        [
          Let ("n", i 100);
          Let ("steps", i 0);
          While (v "n" >: i 1,
                 [
                   If (v "n" %: i 2 =: i 0,
                       [ Assign ("n", v "n" /: i 2) ],
                       [ Assign ("n", (v "n" *: i 3) +: i 1) ]);
                   Assign ("steps", v "steps" +: i 1);
                 ]);
          Return (v "steps");
        ] }
  in
  check i64 "collatz(100)" 25L (compile_and_run f)

let test_memory_ops () =
  (* write then read through a mapped region passed as a parameter *)
  let f =
    { name = "t"; params = [ "buf" ];
      body =
        [
          Store (Ebpf.Insn.W32, v "buf", i 0xCAFE);
          Store (Ebpf.Insn.W8, v "buf" +: i 6, i 0x7F);
          Return (Load (Ebpf.Insn.W32, v "buf") +: Load (Ebpf.Insn.W8, v "buf" +: i 6));
        ] }
  in
  let prog, stack = Plc.Compile.compile ~helpers:[] f in
  let vm = Ebpf.Vm.create ~stack_size:stack () in
  Ebpf.Vm.set_heap vm (Bytes.make 16 '\000');
  check i64 "store/load" (Int64.of_int (0xCAFE + 0x7F))
    (Ebpf.Vm.run vm ~args:[| Ebpf.Vm.heap_base |] prog)

let test_helper_call () =
  let f =
    { name = "t"; params = [];
      body = [ Return (Call ("double", [ i 21 ])) ] }
  in
  check i64 "helper" 42L
    (compile_and_run
       ~helpers:[ ("double", 5, fun vm -> Ebpf.Vm.ret vm (Int64.mul (Ebpf.Vm.arg vm 1) 2L)) ]
       f)

let test_call_arg_order () =
  let f =
    { name = "t"; params = [];
      body = [ Return (Call ("sub", [ i 50; i 8 ])) ] }
  in
  check i64 "argument order" 42L
    (compile_and_run
       ~helpers:[ ("sub", 5, fun vm -> Ebpf.Vm.ret vm (Int64.sub (Ebpf.Vm.arg vm 1) (Ebpf.Vm.arg vm 2))) ]
       f)

let test_unknown_helper_error () =
  let f = { name = "t"; params = []; body = [ Return (Call ("nope", [])) ] } in
  match Plc.Compile.compile ~helpers:[] f with
  | exception Plc.Compile.Error _ -> ()
  | _ -> Alcotest.fail "unknown helper compiled"

let test_unbound_variable_error () =
  let f = { name = "t"; params = []; body = [ Return (v "ghost") ] } in
  match Plc.Compile.compile ~helpers:[] f with
  | exception Plc.Compile.Error _ -> ()
  | _ -> Alcotest.fail "unbound variable compiled"

let test_too_many_params () =
  let f =
    { name = "t"; params = [ "a"; "b"; "c"; "d"; "e"; "f" ];
      body = [ Return (i 0) ] }
  in
  match Plc.Compile.compile ~helpers:[] f with
  | exception Plc.Compile.Error _ -> ()
  | _ -> Alcotest.fail "six parameters compiled"

let test_implicit_return () =
  let f = { name = "t"; params = []; body = [ Let ("x", i 9) ] } in
  check i64 "falls through to return 0" 0L (compile_and_run f)

(* ------------------------- termination ------------------------------- *)

let test_terminate_for () =
  let f =
    { name = "t"; params = [];
      body = [ For ("k", i 0, i 10, []); Return (i 0) ] }
  in
  Alcotest.(check bool) "for loop proven" true (Plc.Terminate.is_proven f)

let test_terminate_while () =
  let f =
    { name = "t"; params = [];
      body = [ While (i 1, []); Return (i 0) ] }
  in
  Alcotest.(check bool) "while loop unproven" false (Plc.Terminate.is_proven f)

let test_terminate_reassigned_var () =
  let f =
    { name = "t"; params = [];
      body = [ For ("k", i 0, i 10, [ Assign ("k", i 0) ]); Return (i 0) ] }
  in
  Alcotest.(check bool) "reassigned induction var unproven" false
    (Plc.Terminate.is_proven f)

let test_terminate_nested () =
  let f =
    { name = "t"; params = [];
      body =
        [
          For ("a", i 0, i 10,
               [ If (v "a" =: i 5, [ While (i 1, []) ], []) ]);
          Return (i 0);
        ] }
  in
  Alcotest.(check bool) "nested while found" false (Plc.Terminate.is_proven f)

let test_loc_counts_lines () =
  let f =
    { name = "t"; params = [];
      body = [ Let ("x", i 1); Return (v "x") ] }
  in
  Alcotest.(check bool) "loc positive" true (Plc.Ast.lines_of_code f >= 3)

let tests =
  [
    ("compile", [
      Alcotest.test_case "arith" `Quick test_arith;
      Alcotest.test_case "params" `Quick test_params;
      Alcotest.test_case "if/else" `Quick test_if_else;
      Alcotest.test_case "for loop" `Quick test_for_loop;
      Alcotest.test_case "nested for" `Quick test_nested_for;
      Alcotest.test_case "while loop" `Quick test_while_loop;
      Alcotest.test_case "memory ops" `Quick test_memory_ops;
      Alcotest.test_case "helper call" `Quick test_helper_call;
      Alcotest.test_case "call arg order" `Quick test_call_arg_order;
      Alcotest.test_case "unknown helper" `Quick test_unknown_helper_error;
      Alcotest.test_case "unbound variable" `Quick test_unbound_variable_error;
      Alcotest.test_case "too many params" `Quick test_too_many_params;
      Alcotest.test_case "implicit return" `Quick test_implicit_return;
      Alcotest.test_case "code shapes" `Quick test_shapes;
      compiler_vs_reference;
      effectful_vs_reference;
    ]);
    ("terminate", [
      Alcotest.test_case "for proven" `Quick test_terminate_for;
      Alcotest.test_case "while unproven" `Quick test_terminate_while;
      Alcotest.test_case "reassignment unproven" `Quick test_terminate_reassigned_var;
      Alcotest.test_case "nested while" `Quick test_terminate_nested;
      Alcotest.test_case "loc" `Quick test_loc_counts_lines;
    ]);
  ]
