(** eBPF virtual machine with runtime memory monitoring.

    The paper's PRE injects bounds-checking instructions when JITing
    pluglet bytecode; both execution tiers here perform the same checks
    on every load and store instead. Memory is organized as disjoint
    {e regions} (pluglet stack, plugin heap, host-provided buffers) mapped
    at synthetic 64-bit base addresses; any access outside a mapped
    region, or a write to a read-only region, raises {!Memory_violation}
    — the host reacts by removing the plugin and terminating the
    connection.

    There are two execution tiers. Production callers compile a verified
    program once with {!jit} and execute it with {!run_jit}. {!run}
    interprets the decoded form directly: it is the executable
    specification the JIT is differentially tested against, and the
    target the JIT deoptimises into. *)

type perm = Ro | Rw

type region = {
  rid : int;
  rname : string;
  base : int64;   (** address pluglets use to reach the region *)
  window : int;   (** [base lsr 32]: index into the VM's region table *)
  mem : Bytes.t;
  roff : int;     (** first byte of the mapped sub-view within [mem] *)
  rlen : int;     (** view length: bytecode addresses span [base, base+rlen) *)
  perm : perm;
}

exception Memory_violation of string
exception Fuel_exhausted
(** The per-run instruction budget ran out — the backstop against pluglets
    whose termination could not be proven. *)

exception Helper_failure of string
(** A host helper rejected the call (missing helper, bad arguments, policy
    violation such as writing a read-only connection field). *)

type t

(** A host function callable from bytecode: receives the VM (for
    region-checked memory access) and the five argument registers. The
    argument array is only valid for the duration of the call. *)
type helper = t -> int64 array -> int64

val create : ?stack_size:int -> ?max_insns:int -> unit -> t
(** [stack_size] defaults to 512 bytes, [max_insns] (the per-run fuel) to
    4,000,000. The pluglet stack is a persistent region mapped at creation
    (always the first window, so every PRE of an instance has the same
    layout) and zeroed between runs. *)

type helper_table
(** A dense table of helpers by id. Every VM starts with an empty table of
    its own; {!set_helpers} points a VM at another one, so many VMs can
    share one table (the PREs of a plugin instance do). *)

val helper_table : unit -> helper_table

val add_helper : ?arity:int -> helper_table -> int -> helper -> unit
(** Bind a helper id to its implementation; re-adding an id replaces the
    previous binding, for every VM using the table. Helper ids are
    non-negative. [arity] (0–5, default 5) declares how many argument
    registers the helper reads: the call opcode copies only that many into
    the argument array and zeroes the rest, so helpers with a declared
    arity never observe stale register contents — and the common one- and
    two-argument helpers skip most of the per-call r1–r5 boxing. *)

val set_helpers : t -> helper_table -> unit
(** Make the VM call the helpers of the given table. *)

val register_helper : ?arity:int -> t -> int -> helper -> unit
(** {!add_helper} on the VM's current table. *)

val map_region :
  t -> name:string -> perm:perm -> ?off:int -> ?len:int -> Bytes.t -> region
(** Make [mem] addressable from bytecode; each region gets its own 4 GiB
    window of synthetic address space, so regions never abut. Windows of
    unmapped regions are recycled, keeping the region table dense under
    the per-call map/unmap traffic of protoop argument buffers.
    [off]/[len] restrict the mapping to a sub-view of [mem] (default: the
    whole buffer): bytecode address [base + k] reaches [mem.[off + k]] and
    the monitor bounds accesses to [k < len] — this is how host-owned wire
    buffers are exposed zero-copy with the bounds of the old copied slice. *)

val remap : t -> region -> Bytes.t -> region
(** Point a mapped region at a new backing buffer: the region keeps its
    rid, window and base (addresses into it stay valid) and its view now
    spans the whole new buffer. Returns the updated region.
    @raise Invalid_argument if the region is not mapped in this VM. *)

val map_sub :
  t -> name:string -> perm:perm -> Bytes.t -> off:int -> len:int -> region
(** {!map_region} with required sub-view bounds — the alloc-free form the
    per-call protoop marshalling uses (no optional-argument boxing). *)

val rid_mark : t -> int
(** A monotonic mark covering every region mapped so far. *)

val unmap_above : t -> int -> unit
(** Unmap every region mapped at or after the given {!rid_mark}. Sound for
    per-call transient regions because a VM is never re-entered while its
    pluglet runs. *)

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
    region is unmapped.
    @raise Memory_violation on an out-of-region or read-only access. *)

val run : t -> ?args:int64 array -> Insn.t array -> int64
(** Execute a program with up to five arguments in r1..r5; returns r0. The
    stack is zeroed before the run, so stack contents never leak between
    runs. This is the reference interpreter: it resolves jumps through
    freshly built slot maps on every invocation — production callers use
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

val run_jit : t -> ?args:int64 array -> jit_prog -> int64
(** Execute a jitted program; semantics (results, traps, {!executed}
    accounting) are identical to {!run} on the program it was compiled
    from. Not re-entrant (helpers must not re-run the same VM or
    [jit_prog]).
    @raise Memory_violation on an out-of-region or read-only access
    @raise Fuel_exhausted when the instruction budget is spent
    @raise Helper_failure when a helper rejects a call *)

val executed : t -> int
(** Instructions executed over the VM's lifetime (overhead accounting),
    on any execution path. *)
