(* Static checks on a decoded program, mirroring the paper's PRE admission
   checks (Section 2.1): (i) an exit instruction is present, (ii) all
   instructions are valid (guaranteed by successful decoding; re-checked
   structurally here), (iii) no trivially wrong operation (constant division
   or modulo by zero, shifts past the word size), (iv) all jumps land on an
   instruction boundary inside the program, and (v) read-only registers (r10,
   the frame pointer) are never written. Additionally, frame-pointer-relative
   memory accesses are statically checked against the stack bounds.

   Unlike the kernel verifier this one is deliberately relaxed: backward
   jumps (loops) are allowed, program size is generous. Runtime memory
   monitoring (Vm) catches what static checks cannot. *)

type error =
  | No_exit
  | Bad_register of int * string
  | Write_read_only of int            (* insn index *)
  | Div_by_zero of int
  | Bad_shift of int
  | Bad_jump of int                    (* insn index with out-of-range target *)
  | Bad_stack_access of int * int      (* insn index, offset *)
  | Program_too_large of int
  | Unknown_helper of int * int        (* insn index, helper id *)

let pp_error ppf = function
  | No_exit -> Fmt.string ppf "program contains no exit instruction"
  | Bad_register (i, what) -> Fmt.pf ppf "insn %d: invalid register (%s)" i what
  | Write_read_only i -> Fmt.pf ppf "insn %d: write to read-only register" i
  | Div_by_zero i -> Fmt.pf ppf "insn %d: constant division by zero" i
  | Bad_shift i -> Fmt.pf ppf "insn %d: shift amount out of range" i
  | Bad_jump i -> Fmt.pf ppf "insn %d: jump target out of program" i
  | Bad_stack_access (i, off) ->
    Fmt.pf ppf "insn %d: stack access at offset %d out of bounds" i off
  | Program_too_large n -> Fmt.pf ppf "program too large (%d slots)" n
  | Unknown_helper (i, id) -> Fmt.pf ppf "insn %d: unknown helper %d" i id

let error_to_string e = Fmt.str "%a" pp_error e

let max_slots = 65536

let check_reg i errs ~what r =
  if r < 0 || r > Insn.max_reg then errs := Bad_register (i, what) :: !errs

let check_writable i errs r =
  if r = Insn.fp then errs := Write_read_only i :: !errs

(* [stack_size] is the pluglet stack size in bytes; fp points one past the
   top, so valid offsets are [-stack_size, -size_of_access]. *)
let verify ?(stack_size = 512) ?(known_helper = fun _ -> true) prog =
  let errs = ref [] in
  let total = Insn.program_slots prog in
  if total > max_slots then errs := [ Program_too_large total ]
  else begin
    let has_exit = Array.exists (fun i -> i = Insn.Exit) prog in
    if not has_exit then errs := No_exit :: !errs;
    let targets = Insn.jump_targets prog in
    let check_jump i = if targets.(i) < 0 then errs := Bad_jump i :: !errs in
    let check_stack i sz base off =
      if base = Insn.fp then begin
        let bytes = Insn.size_bytes sz in
        if off < -stack_size || off + bytes > 0 then
          errs := Bad_stack_access (i, off) :: !errs
      end
    in
    Array.iteri
      (fun i insn ->
         match insn with
         | Insn.Alu64 (op, dst, operand) | Insn.Alu32 (op, dst, operand) ->
           check_reg i errs ~what:"dst" dst;
           check_writable i errs dst;
           (match operand with
            | Insn.Reg r -> check_reg i errs ~what:"src" r
            | Insn.Imm v ->
              (match op with
               | Insn.Div | Insn.Mod ->
                 if v = 0l then errs := Div_by_zero i :: !errs
               | Insn.Lsh | Insn.Rsh | Insn.Arsh ->
                 let bits =
                   match insn with Insn.Alu32 _ -> 32l | _ -> 64l
                 in
                 if v < 0l || v >= bits then errs := Bad_shift i :: !errs
               | _ -> ()))
         | Insn.Ld_imm64 (dst, _) ->
           check_reg i errs ~what:"dst" dst;
           check_writable i errs dst
         | Insn.Ldx (sz, dst, src, off) ->
           check_reg i errs ~what:"dst" dst;
           check_reg i errs ~what:"src" src;
           check_writable i errs dst;
           check_stack i sz src off
         | Insn.Stx (sz, dst, off, src) ->
           check_reg i errs ~what:"dst" dst;
           check_reg i errs ~what:"src" src;
           check_stack i sz dst off
         | Insn.St (sz, dst, off, _) ->
           check_reg i errs ~what:"dst" dst;
           check_stack i sz dst off
         | Insn.Ja _ -> check_jump i
         | Insn.Jcond (_, dst, operand, _) ->
           check_reg i errs ~what:"dst" dst;
           (match operand with
            | Insn.Reg r -> check_reg i errs ~what:"src" r
            | Insn.Imm _ -> ());
           check_jump i
         | Insn.Call id ->
           if not (known_helper id) then errs := Unknown_helper (i, id) :: !errs
         | Insn.Exit -> ())
      prog
  end;
  match List.rev !errs with [] -> Ok () | es -> Error es
