(** Compilation of the plugin language to eBPF bytecode.

    Register-operand code in the shape clang emits: locals live in fixed
    frame-pointer-relative slots and the few spilled temporaries above
    them, so every stack access is statically checkable by the
    {!Ebpf.Verifier}; constants become immediates, conditions direct jumps
    and [base +/- k] addresses load/store offsets. Results are produced in
    r0; helper calls follow the eBPF convention (args r1..r5, result r0). *)

exception Error of string

val compile : helpers:(string * int) list -> Ast.func -> Ebpf.Insn.t array * int
(** [compile ~helpers f] resolves helper names against [helpers] and
    returns the program plus the stack size it needs (a multiple of 512
    covering locals and the deepest expression). The generated program
    always ends in an [Exit] (an implicit [return 0]).
    @raise Error on unbound variables, unknown helpers, more than five
    parameters or arguments. *)
