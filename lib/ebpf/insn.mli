(** eBPF instruction set: typed representation and 8-byte wire encoding.

    The encoding follows the kernel layout — one 64-bit slot per
    instruction, [opcode:8 | dst:4 | src:4 | off:16 | imm:32],
    little-endian fields; {!Ld_imm64} occupies two consecutive slots.
    Jump offsets are expressed in {e slots} relative to the next
    instruction, as in real eBPF. *)

(** Register index, [0]..[10]. *)
type reg = int

val fp : reg
(** The frame pointer, register 10. Read-only: writes are rejected by the
    {!Verifier}. *)

val max_reg : reg

(** 64-bit / 32-bit ALU operations. *)
type alu_op =
  | Add | Sub | Mul | Div | Or | And | Lsh | Rsh | Neg | Mod | Xor
  | Mov | Arsh

(** Memory access widths. *)
type size = W8 | W16 | W32 | W64

(** Conditional-jump predicates; [Jgt]/[Jge]/[Jlt]/[Jle] are unsigned,
    the [Js*] variants signed, [Jset] tests [dst land src <> 0]. *)
type cond =
  | Jeq | Jgt | Jge | Jset | Jne | Jsgt | Jsge | Jlt | Jle | Jslt | Jsle

(** Second operand of ALU and jump instructions. *)
type operand = Reg of reg | Imm of int32

(** A decoded instruction. *)
type t =
  | Alu64 of alu_op * reg * operand
  | Alu32 of alu_op * reg * operand  (** operates on, and zero-extends, the low 32 bits *)
  | Ld_imm64 of reg * int64          (** two-slot 64-bit immediate load *)
  | Ldx of size * reg * reg * int    (** [dst <- mem[src + off]], zero-extending *)
  | Stx of size * reg * int * reg    (** [mem[dst + off] <- src] *)
  | St of size * reg * int * int32   (** [mem[dst + off] <- imm] *)
  | Ja of int                        (** unconditional jump, slot-relative *)
  | Jcond of cond * reg * operand * int
  | Call of int                      (** host helper call by id; args r1-r5, result r0 *)
  | Exit

val slots : t -> int
(** Number of 64-bit slots the instruction occupies when encoded. *)

val program_slots : t array -> int

val jump_targets : t array -> int array
(** [jump_targets prog] is, for each instruction, the index of the
    instruction its jump lands on; [-1] for a non-jump and for a jump whose
    target is not an instruction boundary inside the program. The
    verifier's jump check, the reference interpreter and the JIT all
    resolve jumps through it. *)

val size_bytes : size -> int

exception Decode_error of string

val encode : t array -> string
(** Serialize a program to kernel-format bytecode. *)

val decode : string -> t array
(** Parse bytecode back to instructions.
    @raise Decode_error on malformed input. *)

val pp : t Fmt.t
