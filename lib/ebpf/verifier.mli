(** Static verification of decoded eBPF programs — the PRE admission checks
    of the paper's Section 2.1: an exit instruction is present, all
    instructions are valid, no trivially wrong operation (constant division
    by zero, out-of-range shifts), all jumps land on instruction boundaries
    inside the program, read-only registers are never written, and
    frame-pointer-relative accesses stay inside the stack.

    Deliberately {e relaxed} compared to the kernel verifier: backward
    jumps (loops) are allowed and program size limits are generous; the
    {!Vm}'s runtime memory monitor catches what static checks cannot. *)

type error =
  | No_exit
  | Bad_register of int * string  (** instruction index, which operand *)
  | Write_read_only of int
  | Div_by_zero of int
  | Bad_shift of int
  | Bad_jump of int
  | Bad_stack_access of int * int (** instruction index, offset *)
  | Program_too_large of int
  | Unknown_helper of int * int   (** instruction index, helper id *)

val pp_error : error Fmt.t
val error_to_string : error -> string

val max_slots : int

val verify :
  ?stack_size:int ->
  ?known_helper:(int -> bool) ->
  Insn.t array ->
  (unit, error list) result
(** Run every check; returns all violations found rather than the first.
    [stack_size] (default 512) bounds fp-relative accesses; [known_helper]
    (default: accept all) restricts callable helper ids. *)
