module Insn = Ebpf.Insn
(* Compilation of the plugin language to eBPF bytecode, shaped like what
   clang emits for the paper's C pluglets. Locals live in fixed
   frame-pointer-relative slots; results are produced in r0, with r1 the
   scratch register for a second operand. Locals and 32-bit constants are
   used in place as register or immediate operands, so only a complex
   operand evaluated before another complex one is spilled to a temporary
   slot above the locals (depth is known statically, so the Verifier's
   stack check covers every access). Conditions compile to direct jumps,
   [base +/- k] addresses fold into the load/store offset, helper arguments
   load straight into r1..r5 (calls clobber r1-r5), and a load of the slot
   just stored is forwarded. Every Load and Call runs exactly once and in
   source order: only locals and constants, which no expression can change,
   are read out of order. Jumps are emitted against labels and resolved at
   the end, since Ld_imm64 occupies two slots. *)

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type jitem =
  | Ins of Insn.t
  | Lbl of int
  | Ja_l of int
  | Jcond_l of Insn.cond * Insn.reg * Insn.operand * int

type env = {
  helpers : (string * int) list;        (* helper name -> id *)
  mutable locals : (string * int) list; (* name -> slot index *)
  mutable nlocals : int;
  mutable max_depth : int;
  mutable next_label : int;
  buf : jitem list ref;
}

(* Store-to-load forwarding: a 64-bit load of the stack slot that the
   previous instruction just wrote (no label, hence no jump target, in
   between) reads the value still in a register. *)
let emit env it =
  match (it, !(env.buf)) with
  | Ins (Insn.Ldx (Insn.W64, r, b, off)), Ins (Insn.Stx (Insn.W64, b', off', r')) :: _
    when b = Insn.fp && b' = Insn.fp && off = off' ->
    if r <> r' then env.buf := Ins (Insn.Alu64 (Insn.Mov, r, Insn.Reg r')) :: !(env.buf)
  | Ins (Insn.Ldx (Insn.W64, r, b, off)), Ins (Insn.St (Insn.W64, b', off', k)) :: _
    when b = Insn.fp && b' = Insn.fp && off = off' ->
    env.buf := Ins (Insn.Alu64 (Insn.Mov, r, Insn.Imm k)) :: !(env.buf)
  | _ -> env.buf := it :: !(env.buf)

let ins env i = emit env (Ins i)

let fresh_label env =
  let l = env.next_label in
  env.next_label <- l + 1;
  l

let local_offset slot = -8 * (slot + 1)

let temp_offset env depth =
  let off = -8 * (env.nlocals + depth + 1) in
  if depth + 1 > env.max_depth then env.max_depth <- depth + 1;
  off

let lookup_local env x =
  match List.assoc_opt x env.locals with
  | Some slot -> slot
  | None -> err "unbound variable %s" x

(* Scoping is flat per function: re-declaring a name (e.g. the induction
   variable of two successive For loops) reuses its slot. *)
let declare_local env x =
  match List.assoc_opt x env.locals with
  | Some slot -> slot
  | None ->
    let slot = env.nlocals in
    env.locals <- (x, slot) :: env.locals;
    env.nlocals <- env.nlocals + 1;
    slot

let imm_fits_i32 v = v >= -0x8000_0000L && v <= 0x7fff_ffffL

let load_const env r vv =
  if imm_fits_i32 vv then ins env (Insn.Alu64 (Insn.Mov, r, Insn.Imm (Int64.to_int32 vv)))
  else ins env (Insn.Ld_imm64 (r, vv))

let ldx_local env r x =
  ins env (Insn.Ldx (Insn.W64, r, Insn.fp, local_offset (lookup_local env x)))

(* Locals and constants: operands that need no evaluation and have no
   effect, so they may be read in any order. *)
let simple = function Ast.Const _ | Ast.Var _ -> true | _ -> false

let load_simple env r = function
  | Ast.Const k -> load_const env r k
  | Ast.Var x -> ldx_local env r x
  | _ -> assert false

let rec pure = function
  | Ast.Const _ | Ast.Var _ -> true
  | Ast.Bin (_, a, b) -> pure a && pure b
  | Ast.Not e -> pure e
  | Ast.Load _ | Ast.Call _ -> false

let cond_of_binop = function
  | Ast.Eq -> Some Insn.Jeq | Ast.Ne -> Some Insn.Jne
  | Ast.Lt -> Some Insn.Jlt | Ast.Le -> Some Insn.Jle
  | Ast.Gt -> Some Insn.Jgt | Ast.Ge -> Some Insn.Jge
  | Ast.Slt -> Some Insn.Jslt | Ast.Sle -> Some Insn.Jsle
  | Ast.Sgt -> Some Insn.Jsgt | Ast.Sge -> Some Insn.Jsge
  | _ -> None

let negate = function
  | Insn.Jeq -> Insn.Jne | Insn.Jne -> Insn.Jeq
  | Insn.Jlt -> Insn.Jge | Insn.Jge -> Insn.Jlt
  | Insn.Jle -> Insn.Jgt | Insn.Jgt -> Insn.Jle
  | Insn.Jslt -> Insn.Jsge | Insn.Jsge -> Insn.Jslt
  | Insn.Jsle -> Insn.Jsgt | Insn.Jsgt -> Insn.Jsle
  | Insn.Jset -> assert false (* no binop compiles to Jset *)

(* [b c a] holds exactly when [a c b] does. *)
let swap = function
  | Insn.Jlt -> Insn.Jgt | Insn.Jgt -> Insn.Jlt
  | Insn.Jle -> Insn.Jge | Insn.Jge -> Insn.Jle
  | Insn.Jslt -> Insn.Jsgt | Insn.Jsgt -> Insn.Jslt
  | Insn.Jsle -> Insn.Jsge | Insn.Jsge -> Insn.Jsle
  | c -> c

(* Expressions whose value is always 0 or 1. *)
let rec is_bool = function
  | Ast.Bin (op, a, b) -> (
    match op with
    | Ast.And | Ast.Or | Ast.Xor -> is_bool a && is_bool b
    | _ -> cond_of_binop op <> None)
  | Ast.Not _ -> true
  | _ -> false

(* [p && q] and [p || q] of 0/1 values may skip [q] only when skipping it
   skips no effect. *)
let short_circuits = function
  | Ast.Bin ((Ast.And | Ast.Or), p, q) -> is_bool p && is_bool q && pure q
  | _ -> false

let alu_of_binop = function
  | Ast.Add -> Insn.Add | Ast.Sub -> Insn.Sub | Ast.Mul -> Insn.Mul
  | Ast.Div -> Insn.Div | Ast.Mod -> Insn.Mod | Ast.And -> Insn.And
  | Ast.Or -> Insn.Or | Ast.Xor -> Insn.Xor | Ast.Shl -> Insn.Lsh
  | Ast.Shr -> Insn.Rsh
  | op -> err "binop %s is not an ALU operation" (Ast.binop_name op)

(* The verifier rejects an immediate divisor of 0 and an immediate shift
   outside 0-63; those constants go through a register, where the VM
   defines the result. *)
let imm_ok op k =
  match op with
  | Ast.Div | Ast.Mod -> k <> 0L
  | Ast.Shl | Ast.Shr -> k >= 0L && k <= 63L
  | _ -> true

(* An address [base +/- k] with a 16-bit displacement folds into the
   load/store offset. *)
let split_addr =
  let disp k = k > -0x8000L && k < 0x8000L in
  function
  | Ast.Bin (Ast.Add, base, Ast.Const k) when disp k -> (base, Int64.to_int k)
  | Ast.Bin (Ast.Sub, base, Ast.Const k) when disp k -> (base, -Int64.to_int k)
  | addr -> (addr, 0)

(* Evaluate [e]; result in r0. [depth] temporaries are live below. *)
let rec compile_expr env depth e =
  match e with
  | Ast.Const vv -> load_const env 0 vv
  | Ast.Var x -> ldx_local env 0 x
  | Ast.Bin ((Ast.Ne | Ast.Eq) as op, x, Ast.Const 0L) when is_bool x ->
    compile_expr env depth (if op = Ast.Ne then x else Ast.Not x)
  | Ast.Bin (op, a, b) when cond_of_binop op = None && not (short_circuits e) ->
    let commutes = List.mem op Ast.[ Add; Mul; And; Or; Xor ] in
    let o, _ = operands env depth ~commutes ~imm_ok:(imm_ok op) a b in
    ins env (Insn.Alu64 (alu_of_binop op, 0, o))
  | Ast.Bin _ | Ast.Not _ ->
    (* a condition: branch, then materialise 0/1 *)
    let l_false = fresh_label env and l_end = fresh_label env in
    compile_cond env depth e ~jump_if:false l_false;
    ins env (Insn.Alu64 (Insn.Mov, 0, Insn.Imm 1l));
    emit env (Ja_l l_end);
    emit env (Lbl l_false);
    ins env (Insn.Alu64 (Insn.Mov, 0, Insn.Imm 0l));
    emit env (Lbl l_end)
  | Ast.Load (sz, addr) ->
    let base, off = split_addr addr in
    compile_expr env depth base;
    ins env (Insn.Ldx (sz, 0, 0, off))
  | Ast.Call (fname, args) ->
    let nargs = List.length args in
    if nargs > 5 then err "helper %s called with %d arguments (max 5)" fname nargs;
    let id =
      match List.assoc_opt fname env.helpers with
      | Some id -> id
      | None -> err "unknown helper %s" fname
    in
    let args = List.mapi (fun k a -> (k + 1, a)) args in
    let complex = List.filter (fun (_, a) -> not (simple a)) args in
    let last = List.length complex - 1 in
    (* Complex arguments run in order; all but the last are spilled. *)
    List.iteri
      (fun j (r, a) ->
        compile_expr env (depth + j) a;
        ins env
          (if j = last then Insn.Alu64 (Insn.Mov, r, Insn.Reg 0)
           else Insn.Stx (Insn.W64, Insn.fp, temp_offset env (depth + j), 0)))
      complex;
    List.iteri
      (fun j (r, _) ->
        if j < last then ins env (Insn.Ldx (Insn.W64, r, Insn.fp, temp_offset env (depth + j))))
      complex;
    List.iter (fun (r, a) -> if simple a then load_simple env r a) args;
    ins env (Insn.Call id)

(* Evaluate [a] into r0 and [b] as a second operand (an immediate when
   [imm_ok] accepts the constant, else r1). When [commutes], a simple [a]
   may take the operand role instead: the result says whether it did. *)
and operands env depth ~commutes ~imm_ok a b =
  let operand = function
    | Ast.Const k when imm_fits_i32 k && imm_ok k -> Insn.Imm (Int64.to_int32 k)
    | e ->
      load_simple env 1 e;
      Insn.Reg 1
  in
  let b_to_r1 () = ins env (Insn.Alu64 (Insn.Mov, 1, Insn.Reg 0)) in
  if simple b then (compile_expr env depth a; (operand b, false))
  else if simple a && commutes then (compile_expr env depth b; (operand a, true))
  else if simple a then (compile_expr env depth b; b_to_r1 (); load_simple env 0 a; (Insn.Reg 1, false))
  else begin
    compile_expr env depth a;
    let tmp = temp_offset env depth in
    ins env (Insn.Stx (Insn.W64, Insn.fp, tmp, 0));
    compile_expr env (depth + 1) b;
    b_to_r1 ();
    ins env (Insn.Ldx (Insn.W64, 0, Insn.fp, tmp));
    (Insn.Reg 1, false)
  end

(* Jump to [label] when the truth of [e] (non-zero) equals [jump_if];
   fall through otherwise. *)
and compile_cond env depth e ~jump_if label =
  match e with
  | Ast.Const k -> if (k <> 0L) = jump_if then emit env (Ja_l label)
  | Ast.Not e -> compile_cond env depth e ~jump_if:(not jump_if) label
  | Ast.Bin (Ast.Ne, x, Ast.Const 0L) -> compile_cond env depth x ~jump_if label
  | Ast.Bin (Ast.Eq, x, Ast.Const 0L) -> compile_cond env depth x ~jump_if:(not jump_if) label
  | Ast.Bin (op, p, q) when short_circuits e ->
    let decisive = op = Ast.Or in
    if decisive = jump_if then begin
      compile_cond env depth p ~jump_if label;
      compile_cond env depth q ~jump_if label
    end
    else begin
      let l_skip = fresh_label env in
      compile_cond env depth p ~jump_if:decisive l_skip;
      compile_cond env depth q ~jump_if label;
      emit env (Lbl l_skip)
    end
  | Ast.Bin (op, a, b) when cond_of_binop op <> None ->
    let c = Option.get (cond_of_binop op) in
    let o, swapped = operands env depth ~commutes:true ~imm_ok:(fun _ -> true) a b in
    let c = if swapped then swap c else c in
    emit env (Jcond_l ((if jump_if then c else negate c), 0, o, label))
  | e ->
    compile_expr env depth e;
    emit env (Jcond_l ((if jump_if then Insn.Jne else Insn.Jeq), 0, Insn.Imm 0l, label))

(* [slot] is asked for after [e] is compiled: a [Let] brings its name
   into scope only after its initialiser. *)
let store_local env slot = function
  | Ast.Const k when imm_fits_i32 k ->
    ins env (Insn.St (Insn.W64, Insn.fp, local_offset (slot ()), Int64.to_int32 k))
  | e ->
    compile_expr env 0 e;
    ins env (Insn.Stx (Insn.W64, Insn.fp, local_offset (slot ()), 0))

let ends_in_return b = match List.rev b with Ast.Return _ :: _ -> true | _ -> false

let rec compile_stmt env s =
  match s with
  | Ast.Let (x, e) -> store_local env (fun () -> declare_local env x) e
  | Ast.Assign (x, e) ->
    let slot = lookup_local env x in
    store_local env (fun () -> slot) e
  | Ast.Store (sz, addr, value) ->
    (* the address is evaluated first unless it is a local or constant *)
    let base, off = split_addr addr in
    if simple value then begin
      compile_expr env 0 base;
      match value with
      | Ast.Const k when imm_fits_i32 k -> ins env (Insn.St (sz, 0, off, Int64.to_int32 k))
      | _ -> load_simple env 1 value; ins env (Insn.Stx (sz, 0, off, 1))
    end
    else begin
      if simple base then (compile_expr env 0 value; load_simple env 1 base)
      else begin
        compile_expr env 0 base;
        ins env (Insn.Stx (Insn.W64, Insn.fp, temp_offset env 0, 0));
        compile_expr env 1 value;
        ins env (Insn.Ldx (Insn.W64, 1, Insn.fp, temp_offset env 0))
      end;
      ins env (Insn.Stx (sz, 1, off, 0))
    end
  | Ast.If (c, t, f) ->
    let l_else = fresh_label env in
    compile_cond env 0 c ~jump_if:false l_else;
    List.iter (compile_stmt env) t;
    if f = [] then emit env (Lbl l_else)
    else begin
      let l_end = fresh_label env in
      if not (ends_in_return t) then emit env (Ja_l l_end);
      emit env (Lbl l_else);
      List.iter (compile_stmt env) f;
      emit env (Lbl l_end)
    end
  | Ast.While (c, body) ->
    (* rotated: the test sits at the bottom, one jump per iteration *)
    let l_top = fresh_label env and l_test = fresh_label env in
    emit env (Ja_l l_test);
    emit env (Lbl l_top);
    List.iter (compile_stmt env) body;
    emit env (Lbl l_test);
    compile_cond env 0 c ~jump_if:true l_top
  | Ast.For (x, lo, hi, body) ->
    (* The bound is evaluated once, before [lo], into a hidden local the
       program cannot name (a constant bound needs none), so the trip count
       is fixed before the loop starts. *)
    let bound =
      match hi with
      | Ast.Const k when imm_fits_i32 k -> Ast.Const k
      | _ ->
        let bound = Printf.sprintf "%s#bound" x in
        compile_stmt env (Ast.Let (bound, hi));
        Ast.Var bound
    in
    compile_stmt env (Ast.Let (x, lo));
    let xslot = lookup_local env x in
    let l_top = fresh_label env and l_end = fresh_label env in
    let test c l =
      let o, _ = operands env 0 ~commutes:false ~imm_ok:(fun _ -> true) (Ast.Var x) bound in
      emit env (Jcond_l (c, 0, o, l))
    in
    test Insn.Jge l_end;
    emit env (Lbl l_top);
    List.iter (compile_stmt env) body;
    ldx_local env 0 x;
    ins env (Insn.Alu64 (Insn.Add, 0, Insn.Imm 1l));
    ins env (Insn.Stx (Insn.W64, Insn.fp, local_offset xslot, 0));
    test Insn.Jlt l_top;
    emit env (Lbl l_end)
  | Ast.Return e ->
    compile_expr env 0 e;
    ins env Insn.Exit
  | Ast.Expr e -> compile_expr env 0 e

(* Resolve labels to slot-relative offsets. *)
let resolve items =
  let slot_of_label = Hashtbl.create 16 in
  let advance pos = function
    | Lbl l -> Hashtbl.replace slot_of_label l pos; pos
    | Ins i -> pos + Insn.slots i
    | Ja_l _ | Jcond_l _ -> pos + 1
  in
  ignore (List.fold_left advance 0 items);
  let rel pos l = Hashtbl.find slot_of_label l - (pos + 1) in
  let pos = ref 0 in
  List.filter_map
    (fun it ->
      let p = !pos in
      pos := advance p it;
      match it with
      | Lbl _ -> None
      | Ins i -> Some i
      | Ja_l l -> Some (Insn.Ja (rel p l))
      | Jcond_l (c, r, o, l) -> Some (Insn.Jcond (c, r, o, rel p l)))
    items
  |> Array.of_list

(* Compile a pluglet function. Parameters arrive in r1..r5 and are spilled
   into locals immediately (helper calls clobber r1-r5). *)
let compile ~helpers (f : Ast.func) =
  if List.length f.params > 5 then err "%s: too many parameters" f.name;
  let env = { helpers; locals = []; nlocals = 0; max_depth = 0; next_label = 0; buf = ref [] } in
  List.iteri
    (fun k p ->
      let slot = declare_local env p in
      ins env (Insn.Stx (Insn.W64, Insn.fp, local_offset slot, k + 1)))
    f.params;
  List.iter (compile_stmt env) f.body;
  (* Guarantee the exit instruction the verifier requires. *)
  ins env (Insn.Alu64 (Insn.Mov, 0, Insn.Imm 0l));
  ins env Insn.Exit;
  let prog = resolve (List.rev !(env.buf)) in
  let stack_size =
    let words = env.nlocals + env.max_depth + 1 in
    max 512 (((words * 8) + 511) / 512 * 512)
  in
  (prog, stack_size)
