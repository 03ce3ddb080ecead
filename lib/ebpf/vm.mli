(** eBPF virtual machine with runtime memory monitoring.

    The paper's PRE injects bounds-checking instructions when JITing
    pluglet bytecode; both execution tiers here perform the same checks
    on every load and store instead. A VM's address space is fixed: each
    region sits in its own 4 GiB window of synthetic 64-bit addresses —
    window 1 the pluglet stack, window 2 the plugin heap ({!set_heap}),
    windows 3-7 the five argument slots of a protoop call ({!map_arg}).
    Windows are never allocated or recycled. Any access outside a mapped
    region (window 0 and empty slots included), or a write to a read-only
    region, raises {!Memory_violation} — the host reacts by removing the
    plugin and terminating the connection.

    There are two execution tiers. Production callers compile a verified
    program once with {!jit} and execute it with {!run_jit}. {!run}
    interprets the decoded form directly: it is the executable
    specification the JIT is differentially tested against, and the
    target the JIT deoptimises into. On both, helpers work on the VM's
    registers and box nothing ({!helper}). *)

type perm = Ro | Rw

exception Memory_violation of string
exception Fuel_exhausted
(** The per-run instruction budget ran out — the backstop against pluglets
    whose termination could not be proven. *)

exception Helper_failure of string
(** A host helper rejected the call (missing helper, bad arguments, policy
    violation such as writing a read-only connection field). *)

type t

(** A host function callable from bytecode: receives the VM, through
    which it reads its arguments ({!arg}), writes its result ({!ret}) and
    performs region-checked memory access. The call opcode sets r0 to 0
    before the call, so a helper that writes no result returns 0, and
    clears r1..r5 after it. *)
type helper = t -> unit

val arg : t -> int -> int64
(** [arg vm k] is argument register [rk], [k] in 1..5, inside a helper
    call. @raise Invalid_argument for any other [k]. *)

val ret : t -> int64 -> unit
(** Set the helper's result, r0. *)

val arg_int : t -> int -> int
val ret_int : t -> int -> unit
(** {!arg} and {!ret} on [int]s: they box nothing, even uninlined. *)

val create : ?stack_size:int -> ?max_insns:int -> unit -> t
(** [stack_size] defaults to 512 bytes, [max_insns] (the per-run fuel) to
    4,000,000. The pluglet stack is a persistent region mapped at creation
    (window 1, so every PRE of an instance has the same layout) and zeroed
    between runs; the heap and argument slots start empty. *)

type helper_table
(** A dense table of helpers by id. Every VM starts with an empty table of
    its own; {!set_helpers} points a VM at another one, so many VMs can
    share one table (the PREs of a plugin instance do). *)

val helper_table : unit -> helper_table

val add_helper : helper_table -> int -> helper -> unit
(** Bind a helper id to its implementation; re-adding an id replaces the
    previous binding, for every VM using the table. Helper ids are
    non-negative. *)

val set_helpers : t -> helper_table -> unit
(** Make the VM call the helpers of the given table. *)

val register_helper : t -> int -> helper -> unit
(** {!add_helper} on the VM's current table. *)

val heap_base : int64
(** The address of heap byte 0 (window 2), the same in every VM. *)

val set_heap : t -> Bytes.t -> unit
(** Map the whole of [mem], read-write, as the plugin heap, in place of
    any previous heap. Heap addresses pluglets hold stay valid, so a heap
    that grows is mapped again at its new backing. Trap messages name the
    region [plugin_heap]. *)

val map_arg :
  t -> int -> perm:perm -> Bytes.t -> off:int -> len:int -> int64
(** [map_arg vm k ~perm mem ~off ~len] maps [mem.[off .. off+len-1]] into
    argument slot [k] (0..4, window [3 + k], region name [argk]) and
    returns its base: bytecode address [base + i] reaches [mem.[off + i]]
    for [i < len]. This is how host-owned wire buffers are exposed
    without a copy. The slot's previous mapping, if any, is replaced.
    @raise Invalid_argument on a slot outside 0..4 or a view outside [mem]. *)

val clear_args : t -> unit
(** Empty every argument slot, so pointers into them fault. The host
    calls it when a protoop call returns; sound because a VM is never
    re-entered while its pluglet runs. *)

val fill_bytes : t -> int64 -> int -> char -> unit
(** Region-checked fill used by the [pl_memset] helper: the range must
    lie inside one mapped region.
    @raise Memory_violation otherwise, or on a read-only region. *)

val direct : t -> write:bool -> int64 -> int -> Bytes.t * int
(** [direct vm ~write addr len] performs the monitor checks of a bytecode
    access of [len] bytes at [addr] (inside one mapped region, and
    writable when [write]) and returns the backing buffer and the
    translated offset, so helpers can blit straight between regions and
    host buffers without a copy. The borrow is valid only until the
    region's window is mapped again or cleared.
    @raise Memory_violation on an out-of-region or read-only access. *)

val run : t -> ?args:int64 array -> Insn.t array -> int64
(** Execute a program with up to five arguments in r1..r5; returns r0. The
    stack is all zero when the run starts, so stack contents never leak
    between runs. This is the reference interpreter: it resolves jumps
    through freshly built slot maps on every invocation — production callers use
    {!jit} and {!run_jit}.
    @raise Memory_violation on an out-of-region or read-only access
    @raise Fuel_exhausted when the instruction budget is spent
    @raise Helper_failure when a helper rejects a call *)

type jit_prog
(** A program compiled by the closure-template JIT: basic blocks become
    chains of OCaml closures specialised per opcode and operand kind,
    threaded by direct closure reference, with stack bounds checks
    resolved at compile time where the frame pointer is provably never
    rewritten. A [jit_prog] holds no VM state beyond an idle placeholder
    its environments start from, so one compilation is shared by every
    VM running the same bytecode (the content-addressed plugin cache
    relies on this) — but execution is not re-entrant: one run at a
    time per [jit_prog]. *)

val jit : ?stack_size:int -> Insn.t array -> jit_prog
(** Compile a program for {!run_jit}. [stack_size] (default 512) must
    match the stack size of the VMs the program will run on; a mismatch
    is detected at run time and the program runs in {!run} instead.
    Compilation is total: shapes the JIT does not specialise (invalid
    jump targets, bad register operands, falling off the end) and a run
    whose remaining fuel does not cover the next block deoptimise into
    {!run} at the exact instruction, so execution agrees with {!run} even
    on unverified programs. Big-endian hosts run every program in {!run}. *)

val jit_clone : jit_prog -> jit_prog
(** Same compiled closures over a fresh mutable run environment: cheap
    (two small allocations, no recompilation), and gives each holder its
    own non-re-entrancy domain. This is how the content-addressed program
    cache hands one compilation to many PREs. *)

val run_jit : t -> args:int64 array -> jit_prog -> int64
(** Execute a jitted program with up to five arguments in r1..r5 (a
    required [args]: an optional one is boxed on every run); semantics
    (results, traps, {!executed} accounting) are identical to {!run} on
    the program it was compiled from. Not re-entrant (helpers must not
    re-run the same VM or [jit_prog]).
    @raise Memory_violation on an out-of-region or read-only access
    @raise Fuel_exhausted when the instruction budget is spent
    @raise Helper_failure when a helper rejects a call *)

val executed : t -> int
(** Instructions executed over the VM's lifetime (overhead accounting),
    on any execution path. *)
