(* eBPF instruction set: typed representation and 8-byte wire encoding.

   Encoding follows the kernel layout: one 64-bit slot per instruction,
   [opcode:8 | dst:4 | src:4 | off:16 | imm:32], little-endian fields.
   [Ld_imm64] (opcode 0x18) occupies two consecutive slots. *)

type reg = int (* 0..10; r10 is the read-only frame pointer *)

let fp = 10
let max_reg = 10

type alu_op =
  | Add | Sub | Mul | Div | Or | And | Lsh | Rsh | Neg | Mod | Xor
  | Mov | Arsh

type size = W8 | W16 | W32 | W64

type cond =
  | Jeq | Jgt | Jge | Jset | Jne | Jsgt | Jsge | Jlt | Jle | Jslt | Jsle

type operand = Reg of reg | Imm of int32

type t =
  | Alu64 of alu_op * reg * operand
  | Alu32 of alu_op * reg * operand
  | Ld_imm64 of reg * int64
  | Ldx of size * reg * reg * int        (* dst <- *(src + off) *)
  | Stx of size * reg * int * reg        (* *(dst + off) <- src *)
  | St of size * reg * int * int32       (* *(dst + off) <- imm *)
  | Ja of int
  | Jcond of cond * reg * operand * int
  | Call of int                          (* helper id in imm *)
  | Exit

(* Number of 64-bit slots an instruction occupies in the encoded form. *)
let slots = function Ld_imm64 _ -> 2 | _ -> 1

let program_slots prog = Array.fold_left (fun acc i -> acc + slots i) 0 prog

(* Encoded slot position of each instruction, plus the total slot count.
   Slot arithmetic lives here, next to the encoding that defines it; the
   verifier and the VM linker both build on this when turning slot-relative
   jump offsets into instruction indices. *)
let slot_positions prog =
  let n = Array.length prog in
  let pos = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    pos.(i) <- !total;
    total := !total + slots prog.(i)
  done;
  (pos, !total)

let alu_code = function
  | Add -> 0x0 | Sub -> 0x1 | Mul -> 0x2 | Div -> 0x3 | Or -> 0x4
  | And -> 0x5 | Lsh -> 0x6 | Rsh -> 0x7 | Neg -> 0x8 | Mod -> 0x9
  | Xor -> 0xa | Mov -> 0xb | Arsh -> 0xc

let alu_of_code = function
  | 0x0 -> Some Add | 0x1 -> Some Sub | 0x2 -> Some Mul | 0x3 -> Some Div
  | 0x4 -> Some Or | 0x5 -> Some And | 0x6 -> Some Lsh | 0x7 -> Some Rsh
  | 0x8 -> Some Neg | 0x9 -> Some Mod | 0xa -> Some Xor | 0xb -> Some Mov
  | 0xc -> Some Arsh | _ -> None

let cond_code = function
  | Jeq -> 0x1 | Jgt -> 0x2 | Jge -> 0x3 | Jset -> 0x4 | Jne -> 0x5
  | Jsgt -> 0x6 | Jsge -> 0x7 | Jlt -> 0xa | Jle -> 0xb | Jslt -> 0xc
  | Jsle -> 0xd

let cond_of_code = function
  | 0x1 -> Some Jeq | 0x2 -> Some Jgt | 0x3 -> Some Jge | 0x4 -> Some Jset
  | 0x5 -> Some Jne | 0x6 -> Some Jsgt | 0x7 -> Some Jsge | 0xa -> Some Jlt
  | 0xb -> Some Jle | 0xc -> Some Jslt | 0xd -> Some Jsle | _ -> None

let size_code = function W32 -> 0x00 | W16 -> 0x08 | W8 -> 0x10 | W64 -> 0x18

let size_of_code = function
  | 0x00 -> Some W32 | 0x08 -> Some W16 | 0x10 -> Some W8 | 0x18 -> Some W64
  | _ -> None

let size_bytes = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

(* Instruction classes *)
let _cls_ld = 0x00
let cls_ldx = 0x01
let cls_st = 0x02
let cls_stx = 0x03
let cls_alu32 = 0x04
let cls_jmp = 0x05
let cls_alu64 = 0x07

let mode_mem = 0x60
let _mode_imm = 0x00

exception Decode_error of string

(* Pack one raw slot. *)
let pack ~opcode ~dst ~src ~off ~imm =
  let open Int64 in
  let off16 = off land 0xffff in
  let imm32 = Int32.to_int imm land 0xffffffff in
  logor
    (of_int (opcode land 0xff))
    (logor
       (shift_left (of_int ((dst land 0xf) lor ((src land 0xf) lsl 4))) 8)
       (logor
          (shift_left (of_int off16) 16)
          (shift_left (of_int imm32) 32)))

let unpack slot =
  let open Int64 in
  let opcode = to_int (logand slot 0xffL) in
  let regs = to_int (logand (shift_right_logical slot 8) 0xffL) in
  let dst = regs land 0xf and src = (regs lsr 4) land 0xf in
  let off =
    let v = to_int (logand (shift_right_logical slot 16) 0xffffL) in
    if v >= 0x8000 then v - 0x10000 else v
  in
  let imm = Int64.to_int32 (shift_right_logical slot 32) in
  (opcode, dst, src, off, imm)

let encode_insn buf i =
  let put slot = Buffer.add_int64_le buf slot in
  match i with
  | Alu64 (op, dst, operand) | Alu32 (op, dst, operand) ->
    let cls = (match i with Alu64 _ -> cls_alu64 | _ -> cls_alu32) in
    let src_bit, src, imm =
      match operand with
      | Reg r -> (0x08, r, 0l)
      | Imm v -> (0x00, 0, v)
    in
    put (pack ~opcode:(cls lor src_bit lor (alu_code op lsl 4))
           ~dst ~src ~off:0 ~imm)
  | Ld_imm64 (dst, v) ->
    let lo = Int64.to_int32 (Int64.logand v 0xffffffffL) in
    let hi = Int64.to_int32 (Int64.shift_right_logical v 32) in
    put (pack ~opcode:0x18 ~dst ~src:0 ~off:0 ~imm:lo);
    put (pack ~opcode:0 ~dst:0 ~src:0 ~off:0 ~imm:hi)
  | Ldx (sz, dst, src, off) ->
    put (pack ~opcode:(cls_ldx lor size_code sz lor mode_mem)
           ~dst ~src ~off ~imm:0l)
  | Stx (sz, dst, off, src) ->
    put (pack ~opcode:(cls_stx lor size_code sz lor mode_mem)
           ~dst ~src ~off ~imm:0l)
  | St (sz, dst, off, imm) ->
    put (pack ~opcode:(cls_st lor size_code sz lor mode_mem)
           ~dst ~src:0 ~off ~imm)
  | Ja off -> put (pack ~opcode:0x05 ~dst:0 ~src:0 ~off ~imm:0l)
  | Jcond (c, dst, operand, off) ->
    let src_bit, src, imm =
      match operand with Reg r -> (0x08, r, 0l) | Imm v -> (0x00, 0, v)
    in
    put (pack ~opcode:(cls_jmp lor src_bit lor (cond_code c lsl 4))
           ~dst ~src ~off ~imm)
  | Call id -> put (pack ~opcode:0x85 ~dst:0 ~src:0 ~off:0 ~imm:(Int32.of_int id))
  | Exit -> put (pack ~opcode:0x95 ~dst:0 ~src:0 ~off:0 ~imm:0l)

let encode prog =
  let buf = Buffer.create (16 * Array.length prog) in
  Array.iter (encode_insn buf) prog;
  Buffer.contents buf

let decode bytes =
  let n = String.length bytes in
  if n mod 8 <> 0 then raise (Decode_error "bytecode length not a multiple of 8");
  let slots_count = n / 8 in
  let slot i = String.get_int64_le bytes (i * 8) in
  let out = ref [] in
  let i = ref 0 in
  while !i < slots_count do
    let opcode, dst, src, off, imm = unpack (slot !i) in
    let cls = opcode land 0x07 in
    let insn =
      if opcode = 0x18 then begin
        if !i + 1 >= slots_count then raise (Decode_error "truncated lddw");
        let _, _, _, _, hi = unpack (slot (!i + 1)) in
        incr i;
        let lo64 = Int64.logand (Int64.of_int32 imm) 0xffffffffL in
        let hi64 = Int64.shift_left (Int64.logand (Int64.of_int32 hi) 0xffffffffL) 32 in
        Ld_imm64 (dst, Int64.logor hi64 lo64)
      end
      else if opcode = 0x85 then Call (Int32.to_int imm)
      else if opcode = 0x95 then Exit
      else if opcode = 0x05 then Ja off
      else if cls = cls_alu64 || cls = cls_alu32 then begin
        match alu_of_code (opcode lsr 4) with
        | None -> raise (Decode_error (Printf.sprintf "bad ALU opcode 0x%02x" opcode))
        | Some op ->
          let operand = if opcode land 0x08 <> 0 then Reg src else Imm imm in
          if cls = cls_alu64 then Alu64 (op, dst, operand)
          else Alu32 (op, dst, operand)
      end
      else if cls = cls_jmp then begin
        match cond_of_code (opcode lsr 4) with
        | None -> raise (Decode_error (Printf.sprintf "bad JMP opcode 0x%02x" opcode))
        | Some c ->
          let operand = if opcode land 0x08 <> 0 then Reg src else Imm imm in
          Jcond (c, dst, operand, off)
      end
      else if cls = cls_ldx && opcode land 0xe0 = mode_mem then begin
        match size_of_code (opcode land 0x18) with
        | None -> raise (Decode_error "bad LDX size")
        | Some sz -> Ldx (sz, dst, src, off)
      end
      else if cls = cls_stx && opcode land 0xe0 = mode_mem then begin
        match size_of_code (opcode land 0x18) with
        | None -> raise (Decode_error "bad STX size")
        | Some sz -> Stx (sz, dst, off, src)
      end
      else if cls = cls_st && opcode land 0xe0 = mode_mem then begin
        match size_of_code (opcode land 0x18) with
        | None -> raise (Decode_error "bad ST size")
        | Some sz -> St (sz, dst, off, imm)
      end
      else raise (Decode_error (Printf.sprintf "unknown opcode 0x%02x" opcode))
    in
    out := insn :: !out;
    incr i
  done;
  Array.of_list (List.rev !out)

let pp_reg ppf r = if r = fp then Fmt.string ppf "fp" else Fmt.pf ppf "r%d" r

let alu_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Or -> "or"
  | And -> "and" | Lsh -> "lsh" | Rsh -> "rsh" | Neg -> "neg" | Mod -> "mod"
  | Xor -> "xor" | Mov -> "mov" | Arsh -> "arsh"

let cond_name = function
  | Jeq -> "jeq" | Jgt -> "jgt" | Jge -> "jge" | Jset -> "jset" | Jne -> "jne"
  | Jsgt -> "jsgt" | Jsge -> "jsge" | Jlt -> "jlt" | Jle -> "jle"
  | Jslt -> "jslt" | Jsle -> "jsle"

let size_name = function W8 -> "b" | W16 -> "h" | W32 -> "w" | W64 -> "dw"

let pp_operand ppf = function
  | Reg r -> pp_reg ppf r
  | Imm v -> Fmt.pf ppf "%ld" v

let pp ppf = function
  | Alu64 (op, d, o) -> Fmt.pf ppf "%s %a, %a" (alu_name op) pp_reg d pp_operand o
  | Alu32 (op, d, o) -> Fmt.pf ppf "%s32 %a, %a" (alu_name op) pp_reg d pp_operand o
  | Ld_imm64 (d, v) -> Fmt.pf ppf "lddw %a, %Ld" pp_reg d v
  | Ldx (sz, d, s, off) ->
    Fmt.pf ppf "ldx%s %a, [%a%+d]" (size_name sz) pp_reg d pp_reg s off
  | Stx (sz, d, off, s) ->
    Fmt.pf ppf "stx%s [%a%+d], %a" (size_name sz) pp_reg d off pp_reg s
  | St (sz, d, off, v) ->
    Fmt.pf ppf "st%s [%a%+d], %ld" (size_name sz) pp_reg d off v
  | Ja off -> Fmt.pf ppf "ja %+d" off
  | Jcond (c, d, o, off) ->
    Fmt.pf ppf "%s %a, %a, %+d" (cond_name c) pp_reg d pp_operand o off
  | Call id -> Fmt.pf ppf "call %d" id
  | Exit -> Fmt.string ppf "exit"
