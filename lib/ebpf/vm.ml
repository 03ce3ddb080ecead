(* eBPF virtual machine with runtime memory monitoring.

   The paper's PRE injects bounds-checking instructions when JITing pluglet
   bytecode; both execution tiers here perform the same checks on every
   load and store instead. Memory is organized as disjoint *regions*
   (pluglet stack, plugin heap, host-provided input/output buffers) mapped
   at synthetic 64-bit base addresses. Any access outside a mapped region,
   or a write to a read-only region, raises [Memory_violation] — the host
   reacts by removing the plugin and terminating the connection
   (Section 2.1).

   Execution comes in two tiers sharing the ALU/jump/monitor semantics:

   - [run], the reference interpreter: resolves the jump targets
     ([Insn.jump_targets]) on each invocation and executes the decoded
     [Insn.t] array. It is the executable specification the JIT is
     differentially tested against, and the JIT's deoptimisation target.
   - [jit] + [run_jit], the production path: the same [Insn.t] array is
     compiled once, with no intermediate program form, into a graph of
     OCaml closures, one per instruction, and each run enters it with no
     per-run setup work. A closure is specialised to its instruction's
     shape only where that pays in-engine (see the JIT below); a
     big-endian host compiles none and interprets every program.

   Each region occupies its own 4 GiB-aligned window of address space, so
   the window index [addr lsr 32] identifies the region, and the windows
   are fixed: 1 is the pluglet stack, 2 the plugin heap and 3-7 the five
   argument slots of a protoop call (Section 2.1's three kinds of PRE
   memory). A region lookup is one read of an 8-entry table; window 0,
   windows past 7 and empty slots fault. Nothing is allocated or recycled:
   the host points the heap at its backing with [set_heap] and fills the
   argument slots around each call with [map_arg] and [clear_args], so an
   argument's address depends only on its position. *)

type perm = Ro | Rw

type region = {
  rname : string; (* for trap messages *)
  mem : Bytes.t;
  roff : int; (* first byte of the mapped sub-view within [mem] *)
  rlen : int; (* view length: pluglet addresses cover base..base+rlen;
                 -1 in an empty slot, so every access faults *)
  perm : perm;
}

exception Memory_violation of string
exception Fuel_exhausted
exception Helper_failure of string

type t = {
  regions : region array; (* indexed by window, [addr lsr 32] *)
  mutable args_mapped : bool; (* an argument slot holds a region *)
  mutable helpers : helper_table; (* may be shared with other VMs *)
  stack : region; (* persistent pluglet stack, zeroed between runs *)
  stack_size : int;
  regb : Bytes.t; (* fast-path register file: 11 x 8 raw bytes, reset per
                     run. Raw bytes rather than an [int64 array] so the
                     interpreter loop reads and writes registers through
                     the bytes-access primitives, which the compiler keeps
                     unboxed — an [int64 array] element store allocates a
                     box on every instruction. *)
  fp0 : int64; (* stack base + size: r10's initial value, boxed once at
                  creation — computing it per run boxes two temporaries *)
  mutable stack_lo : int; (* every stack byte below this offset is zero:
                             a run wipes only [stack_lo, stack_size) *)
  max_insns : int;
  mutable executed : int; (* instructions executed over the VM lifetime *)
}

(* The helpers a VM calls. A table is bound once and may be shared: the
   PREs of one plugin instance all point at the table built when the
   instance is attached. *)
and helper_table = {
  mutable fns : helper option array; (* dense, indexed by helper id *)
}

and helper = t -> unit (* works on [regb]: see [arg] and [ret] *)

let region_alignment = 0x0001_0000_0000L (* 4 GiB of address space per region *)

let window_bits = 32

(* The memory map. *)
let stack_window = 1
let heap_window = 2
let first_arg_window = 3
let arg_slots = 5
let windows = first_arg_window + arg_slots

let heap_base = 0x0002_0000_0000L

(* Immutable and shared by every VM: an empty slot. *)
let unmapped = { rname = "unmapped"; mem = Bytes.empty; roff = 0; rlen = -1; perm = Ro }

let helper_table () = { fns = [||] }

(* Window 0 stays empty, so null-ish pluglet pointers fault. The stack
   occupies window 1 from creation: every VM — and therefore every PRE
   of a plugin instance — has the same memory layout, and per-run stack
   setup is a [Bytes.fill] rather than an allocate/map/unmap cycle. *)
let create ?(stack_size = 512) ?(max_insns = 4_000_000) () =
  let stack =
    {
      rname = "stack";
      mem = Bytes.make stack_size '\000';
      roff = 0;
      rlen = stack_size;
      perm = Rw;
    }
  in
  let regions = Array.make windows unmapped in
  regions.(stack_window) <- stack;
  {
    regions;
    args_mapped = false;
    helpers = helper_table ();
    stack;
    stack_size;
    regb = Bytes.make 88 '\000';
    fp0 = Int64.add region_alignment (Int64.of_int stack_size);
    stack_lo = stack_size;
    max_insns;
    executed = 0;
  }

let add_helper tbl id f =
  if id < 0 then invalid_arg "Vm.add_helper: negative helper id";
  if id >= Array.length tbl.fns then begin
    let grown = Array.make (max (id + 1) (max 16 (2 * Array.length tbl.fns))) None in
    Array.blit tbl.fns 0 grown 0 (Array.length tbl.fns);
    tbl.fns <- grown
  end;
  tbl.fns.(id) <- Some f

let set_helpers vm tbl = vm.helpers <- tbl
let register_helper vm id f = add_helper vm.helpers id f

(* Raw native-endian 64-bit access into the register file. Indices come
   from instructions the JIT compiled, which [regs_ok] guarantees name
   r0..r10 only (anything else deoptimises), or from [arg]'s checked
   range, so the unchecked primitives are safe — and unlike an
   [int64 array] element store they keep the value unboxed through the
   whole load/compute/store chain. *)
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline always] rget b r = bytes_get64 b (r lsl 3)
let[@inline always] rset b r v = bytes_set64 b (r lsl 3) v

(* The helper calling convention: both tiers hold r0..r5 in [regb] for
   the duration of a call. [arg_int] and [ret_int] take and return plain
   ints, so they allocate nothing even where they are not inlined. *)
let[@inline] arg vm k =
  if k < 1 || k > 5 then invalid_arg "Vm.arg: argument register outside r1..r5";
  rget vm.regb k

let arg_int vm k = Int64.to_int (arg vm k)
let[@inline] ret vm v = rset vm.regb 0 v
let ret_int vm v = rset vm.regb 0 (Int64.of_int v)

(* The heap is the whole buffer, read-write, at window 2 in every VM, so
   heap pointers have one value in every PRE of an instance and survive
   the backing growing. *)
let set_heap vm mem =
  vm.regions.(heap_window) <-
    { rname = "plugin_heap"; mem; roff = 0; rlen = Bytes.length mem; perm = Rw }

(* String and int64 literals are static: naming a slot and returning its
   base allocate nothing. *)
let arg_name = function
  | 0 -> "arg0" | 1 -> "arg1" | 2 -> "arg2" | 3 -> "arg3" | _ -> "arg4"

let arg_base = function
  | 0 -> 0x0003_0000_0000L
  | 1 -> 0x0004_0000_0000L
  | 2 -> 0x0005_0000_0000L
  | 3 -> 0x0006_0000_0000L
  | _ -> 0x0007_0000_0000L

(* [off]/[len] map a sub-view of [mem]: the pluglet sees addresses
   base..base+len covering mem[off..off+len). Sub-views are how
   host-owned wire buffers are exposed without copying. *)
let map_arg vm k ~perm mem ~off ~len =
  if k < 0 || k >= arg_slots then invalid_arg "Vm.map_arg: slot outside 0..4";
  if off < 0 || len < 0 || off + len > Bytes.length mem then
    invalid_arg "Vm.map_arg: sub-view outside the backing buffer";
  vm.regions.(first_arg_window + k) <-
    { rname = arg_name k; mem; roff = off; rlen = len; perm };
  vm.args_mapped <- true;
  arg_base k

(* Sound for per-call arguments because a VM is never re-entered while
   its pluglet runs (each PRE owns its VM, and re-entering the same
   protoop is sanctioned as a loop). *)
let clear_args vm =
  if vm.args_mapped then begin
    Array.fill vm.regions first_arg_window arg_slots unmapped;
    vm.args_mapped <- false
  end

let out_of_region len addr =
  raise
    (Memory_violation
       (Printf.sprintf "access of %d bytes at 0x%Lx outside any region" len
          addr))

(* The access's window indexes the table; an empty slot's [rlen] of -1
   fails every bounds check. *)
let[@inline always] region_at vm addr len =
  let w = Int64.to_int (Int64.shift_right_logical addr window_bits) in
  if w < windows then Array.unsafe_get vm.regions w else out_of_region len addr

let resolve vm ~write addr len =
  let r = region_at vm addr len in
  (* The window matched, so the offset is just the low 32 bits; a negative
     [len] or an access running past the region end is a violation, exactly
     as the old fits-in-one-region scan decided. *)
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if len < 0 || len > r.rlen - off then out_of_region len addr;
  if write && r.perm = Ro then
    raise
      (Memory_violation
         (Printf.sprintf "write of %d bytes at 0x%Lx in read-only region %s"
            len addr r.rname));
  (* the interpreter's stack writes, [fill_bytes] and [direct] pass here *)
  if write && r == vm.stack && off < vm.stack_lo then vm.stack_lo <- off;
  (r, r.roff + off)

let load vm addr sz =
  let len = Insn.size_bytes sz in
  let r, off = resolve vm ~write:false addr len in
  match sz with
  | Insn.W8 -> Int64.of_int (Char.code (Bytes.get r.mem off))
  | Insn.W16 -> Int64.of_int (Bytes.get_uint16_le r.mem off)
  | Insn.W32 ->
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le r.mem off)) 0xffffffffL
  | Insn.W64 -> Bytes.get_int64_le r.mem off

let store vm addr sz v =
  let len = Insn.size_bytes sz in
  let r, off = resolve vm ~write:true addr len in
  match sz with
  | Insn.W8 -> Bytes.set_uint8 r.mem off (Int64.to_int v land 0xff)
  | Insn.W16 -> Bytes.set_uint16_le r.mem off (Int64.to_int v land 0xffff)
  | Insn.W32 -> Bytes.set_int32_le r.mem off (Int64.to_int32 v)
  | Insn.W64 -> Bytes.set_int64_le r.mem off v

(* [pl_memset] obeys the same monitor as bytecode: the range must lie
   inside one mapped region. *)
let fill_bytes vm addr len c =
  let r, off = resolve vm ~write:true addr len in
  Bytes.fill r.mem off len c

(* Borrow the backing bytes of a range: the monitor checks of a bytecode
   access of [len] bytes, and no copy. The returned offset is valid only
   until the region's window is mapped again or cleared. *)
let direct vm ~write addr len =
  let r, off = resolve vm ~write addr len in
  (r.mem, off)

let u64_of_i32 v = Int64.logand (Int64.of_int32 v) 0xffffffffL

let alu64 op a b =
  let open Int64 in
  match op with
  | Insn.Add -> add a b
  | Insn.Sub -> sub a b
  | Insn.Mul -> mul a b
  | Insn.Div -> if b = 0L then 0L else unsigned_div a b
  | Insn.Mod -> if b = 0L then a else unsigned_rem a b
  | Insn.Or -> logor a b
  | Insn.And -> logand a b
  | Insn.Xor -> logxor a b
  | Insn.Lsh -> shift_left a (to_int (logand b 63L))
  | Insn.Rsh -> shift_right_logical a (to_int (logand b 63L))
  | Insn.Arsh -> shift_right a (to_int (logand b 63L))
  | Insn.Mov -> b
  | Insn.Neg -> neg a

let alu32 op a b =
  let a32 = Int64.to_int32 a and b32 = Int64.to_int32 b in
  let open Int32 in
  let r =
    match op with
    | Insn.Add -> add a32 b32
    | Insn.Sub -> sub a32 b32
    | Insn.Mul -> mul a32 b32
    | Insn.Div -> if b32 = 0l then 0l else unsigned_div a32 b32
    | Insn.Mod -> if b32 = 0l then a32 else unsigned_rem a32 b32
    | Insn.Or -> logor a32 b32
    | Insn.And -> logand a32 b32
    | Insn.Xor -> logxor a32 b32
    | Insn.Lsh -> shift_left a32 (Int32.to_int (logand b32 31l))
    | Insn.Rsh -> shift_right_logical a32 (Int32.to_int (logand b32 31l))
    | Insn.Arsh -> shift_right a32 (Int32.to_int (logand b32 31l))
    | Insn.Mov -> b32
    | Insn.Neg -> neg a32
  in
  u64_of_i32 r

let jump_taken c a b =
  let u = Int64.unsigned_compare a b and s = Int64.compare a b in
  match c with
  | Insn.Jeq -> a = b
  | Insn.Jne -> a <> b
  | Insn.Jgt -> u > 0
  | Insn.Jge -> u >= 0
  | Insn.Jlt -> u < 0
  | Insn.Jle -> u <= 0
  | Insn.Jsgt -> s > 0
  | Insn.Jsge -> s >= 0
  | Insn.Jslt -> s < 0
  | Insn.Jsle -> s <= 0
  | Insn.Jset -> Int64.logand a b <> 0L

(* The stack is persistent but its contents never leak between runs: each
   path that writes it lowers [stack_lo] first (the JIT's stack-direct
   stores in [run_jit]), so a run wipes only what earlier runs touched. *)
let reset_stack vm =
  let lo = vm.stack_lo in
  if lo < vm.stack_size then begin
    Bytes.fill vm.stack.mem lo (vm.stack_size - lo) '\000';
    vm.stack_lo <- vm.stack_size
  end

(* Reference interpreter loop: executes the decoded form directly from
   instruction [pc0] with [fuel0] instructions of budget left, resolving
   every jump through freshly built [Insn.jump_targets]. Returns r0. [run]
   enters it at the top of the program; the JIT enters it mid-program to
   deoptimise (see [jit_resume]). *)
let interp vm prog regs pc0 fuel0 =
  let targets = Insn.jump_targets prog in
  let operand_value = function
    | Insn.Reg r -> regs.(r)
    | Insn.Imm v -> Int64.of_int32 v
  in
  let fuel = ref fuel0 in
  let pc = ref pc0 in
  let result = ref 0L in
  let finished = ref false in
  while not !finished do
    if !fuel <= 0 then raise Fuel_exhausted;
    decr fuel;
    vm.executed <- vm.executed + 1;
    let insn = prog.(!pc) in
    let next = !pc + 1 in
    let goto () =
      let t = targets.(!pc) in
      if t >= 0 then pc := t
      else
        (* Unreachable for verified programs. *)
        raise (Memory_violation "jump to invalid slot")
    in
    match insn with
    | Insn.Alu64 (op, dst, operand) ->
      regs.(dst) <- alu64 op regs.(dst) (operand_value operand);
      pc := next
    | Insn.Alu32 (op, dst, operand) ->
      regs.(dst) <- alu32 op regs.(dst) (operand_value operand);
      pc := next
    | Insn.Ld_imm64 (dst, v) ->
      regs.(dst) <- v;
      pc := next
    | Insn.Ldx (sz, dst, src, off) ->
      regs.(dst) <- load vm (Int64.add regs.(src) (Int64.of_int off)) sz;
      pc := next
    | Insn.Stx (sz, dst, off, src) ->
      store vm (Int64.add regs.(dst) (Int64.of_int off)) sz regs.(src);
      pc := next
    | Insn.St (sz, dst, off, imm) ->
      store vm
        (Int64.add regs.(dst) (Int64.of_int off))
        sz (Int64.of_int32 imm);
      pc := next
    | Insn.Ja _ -> goto ()
    | Insn.Jcond (c, dst, operand, _) ->
      if jump_taken c regs.(dst) (operand_value operand) then goto ()
      else pc := next
    | Insn.Call id -> (
      let h = vm.helpers in
      match (if id >= 0 && id < Array.length h.fns then h.fns.(id) else None) with
      | None -> raise (Helper_failure (Printf.sprintf "helper %d missing" id))
      | Some f ->
        (* Stage the call through [regb] as the JIT holds it: r0 zeroed
           (a helper that writes nothing returns 0), r1..r5 in, r0 out;
           r1-r5 are clobbered by calls, per the eBPF convention. *)
        for r = 0 to 5 do
          rset vm.regb r (if r = 0 then 0L else regs.(r))
        done;
        f vm;
        regs.(0) <- rget vm.regb 0;
        Array.fill regs 1 5 0L;
        pc := next)
    | Insn.Exit ->
      result := regs.(0);
      finished := true
  done;
  !result

let run vm ?(args = [||]) prog =
  reset_stack vm;
  let regs = Array.make 11 0L in
  Array.iteri (fun i v -> if i < 5 then regs.(i + 1) <- v) args;
  regs.(Insn.fp) <- vm.fp0;
  interp vm prog regs 0 vm.max_insns

(* Unsigned 64-bit comparison via sign-bias, using only comparison
   primitives the compiler evaluates on unboxed values
   ([Int64.unsigned_compare] is a plain function whose call would force
   its operands into boxes on the JIT's hottest paths). *)
let[@inline always] ucmp a b =
  Int64.compare (Int64.add a Int64.min_int) (Int64.add b Int64.min_int)

(* [Int64.unsigned_div]/[unsigned_rem] are stdlib functions, so a call
   boxes both operands and the result; this is their exact algorithm
   (signed-div of the halved dividend, then a fixup step) spelled with
   primitives only. *)
let[@inline always] udiv64 n d =
  let open Int64 in
  if d < 0L then (if ucmp n d < 0 then 0L else 1L)
  else begin
    let q = shift_left (div (shift_right_logical n 1) d) 1 in
    let r = sub n (mul q d) in
    if ucmp r d >= 0 then succ q else q
  end

let[@inline always] urem64 n d = Int64.sub n (Int64.mul (udiv64 n d) d)

(* Zero-extending 32-bit register write: each 32-bit ALU branch calls it
   directly so nothing joins in a boxed representation (a local helper
   closure would allocate). *)
let[@inline always] zx32 regb dst r =
  rset regb dst (Int64.logand (Int64.of_int32 r) 0xffffffffL)

(* 32-bit ALU: one closure per operand kind keeps a secondary dispatch on
   the operator (pluglet arithmetic is overwhelmingly 64-bit, and 64-bit
   operators keep a closure each). *)
let[@inline always] alu32_seti regb dst op a b =
  let a32 = Int64.to_int32 a and b32 = Int64.to_int32 b in
  let open Int32 in
  match op with
  | Insn.Add -> zx32 regb dst (add a32 b32)
  | Insn.Sub -> zx32 regb dst (sub a32 b32)
  | Insn.Mul -> zx32 regb dst (mul a32 b32)
  | Insn.Div -> zx32 regb dst (if b32 = 0l then 0l else unsigned_div a32 b32)
  | Insn.Mod -> zx32 regb dst (if b32 = 0l then a32 else unsigned_rem a32 b32)
  | Insn.Or -> zx32 regb dst (logor a32 b32)
  | Insn.And -> zx32 regb dst (logand a32 b32)
  | Insn.Xor -> zx32 regb dst (logxor a32 b32)
  | Insn.Lsh -> zx32 regb dst (shift_left a32 (Int32.to_int (logand b32 31l)))
  | Insn.Rsh ->
    zx32 regb dst (shift_right_logical a32 (Int32.to_int (logand b32 31l)))
  | Insn.Arsh -> zx32 regb dst (shift_right a32 (Int32.to_int (logand b32 31l)))
  | Insn.Mov -> zx32 regb dst b32
  | Insn.Neg -> zx32 regb dst (neg a32)

(* The condition of a conditional jump, on unboxed operands: the JIT's
   two jump closures, one per operand kind, hold their condition and test
   it here. *)
let[@inline always] cond_holds c a b =
  match c with
  | Insn.Jeq -> Int64.equal a b
  | Insn.Jne -> not (Int64.equal a b)
  | Insn.Jgt -> ucmp a b > 0
  | Insn.Jge -> ucmp a b >= 0
  | Insn.Jlt -> ucmp a b < 0
  | Insn.Jle -> ucmp a b <= 0
  | Insn.Jsgt -> Int64.compare a b > 0
  | Insn.Jsge -> Int64.compare a b >= 0
  | Insn.Jslt -> Int64.compare a b < 0
  | Insn.Jsle -> Int64.compare a b <= 0
  | Insn.Jset -> not (Int64.equal (Int64.logand a b) 0L)

let ro_violation len addr r =
  raise
    (Memory_violation
       (Printf.sprintf "write of %d bytes at 0x%Lx in read-only region %s"
          len addr r.rname))

(* Unchecked multi-byte accessors. The stdlib's [Bytes.get_int64_le]
   family are plain functions, so without cross-module inlining every
   memory instruction would pay a call and box its result; these compile
   to single native-endian loads/stores. Bounds are checked by the callers
   below, and native order is the guest's little-endian order because
   [jit] compiles no closures on a big-endian host. *)
external bytes_get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external bytes_get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bytes_set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external bytes_set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* The monitor of the JIT's memory closures, for an access of [len] bytes
   at [addr] in region [r] (its window's entry): the offset of the first
   byte in [r.mem], or a trap. Stores also check the permission and lower
   the stack mark. *)
let[@inline always] checked_off r len addr =
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if len > r.rlen - off then out_of_region len addr;
  r.roff + off

let[@inline always] writable_off vm r len addr =
  let off = checked_off r len addr in
  if r.perm == Ro then ro_violation len addr r;
  if r == vm.stack && off < vm.stack_lo then vm.stack_lo <- off;
  off

(* One accessor per access size, matching the JIT's size-specialised
   memory closures. Pluglet locals dominate memory traffic, the stack is
   mapped at window 1 for the whole VM lifetime, and an in-bounds stack
   access cannot trap — so it needs neither the region record nor an
   [executed] sync. The whole window-plus-bounds test is one subtraction
   and one unsigned compare: [d = addr - stack_base] is below [lim = stack
   length - access size + 1] (precomputed per size at compile time,
   clamped at 0) exactly when the access lies inside the stack; any other
   window under- or overflows the unsigned range. Everything else — other
   windows, out-of-bounds offsets — takes the monitored path: region
   lookup, bounds check, then a straight-line load/store, after syncing
   [vm.executed] because it may raise. *)
let[@inline always] load8_m vm stk lim execd addr =
  let d = Int64.sub addr region_alignment in
  if ucmp d lim < 0 then
    Int64.of_int (Char.code (Bytes.unsafe_get stk (Int64.to_int d)))
  else begin
    vm.executed <- execd;
    let r = region_at vm addr 1 in
    Int64.of_int (Char.code (Bytes.unsafe_get r.mem (checked_off r 1 addr)))
  end

let[@inline always] load16_m vm stk lim execd addr =
  let d = Int64.sub addr region_alignment in
  if ucmp d lim < 0 then Int64.of_int (bytes_get16u stk (Int64.to_int d))
  else begin
    vm.executed <- execd;
    let r = region_at vm addr 2 in
    Int64.of_int (bytes_get16u r.mem (checked_off r 2 addr))
  end

let[@inline always] load32_m vm stk lim execd addr =
  let d = Int64.sub addr region_alignment in
  if ucmp d lim < 0 then
    Int64.logand (Int64.of_int32 (bytes_get32u stk (Int64.to_int d))) 0xffffffffL
  else begin
    vm.executed <- execd;
    let r = region_at vm addr 4 in
    Int64.logand
      (Int64.of_int32 (bytes_get32u r.mem (checked_off r 4 addr)))
      0xffffffffL
  end

let[@inline always] load64_m vm stk lim execd addr =
  let d = Int64.sub addr region_alignment in
  if ucmp d lim < 0 then bytes_get64 stk (Int64.to_int d)
  else begin
    vm.executed <- execd;
    let r = region_at vm addr 8 in
    bytes_get64 r.mem (checked_off r 8 addr)
  end

(* The stack is always [Rw], so the stores' fast path skips the
   permission check too; it lowers the stack mark instead. *)
let[@inline always] stack_write vm d =
  let o = Int64.to_int d in
  if o < vm.stack_lo then vm.stack_lo <- o;
  o

let[@inline always] store8_m vm stk lim execd addr v =
  let d = Int64.sub addr region_alignment in
  if ucmp d lim < 0 then
    Bytes.unsafe_set stk (stack_write vm d)
      (Char.unsafe_chr (Int64.to_int v land 0xff))
  else begin
    vm.executed <- execd;
    let r = region_at vm addr 1 in
    let off = writable_off vm r 1 addr in
    Bytes.unsafe_set r.mem off (Char.unsafe_chr (Int64.to_int v land 0xff))
  end

let[@inline always] store16_m vm stk lim execd addr v =
  let d = Int64.sub addr region_alignment in
  if ucmp d lim < 0 then
    bytes_set16u stk (stack_write vm d) (Int64.to_int v land 0xffff)
  else begin
    vm.executed <- execd;
    let r = region_at vm addr 2 in
    let off = writable_off vm r 2 addr in
    bytes_set16u r.mem off (Int64.to_int v land 0xffff)
  end

let[@inline always] store32_m vm stk lim execd addr v =
  let d = Int64.sub addr region_alignment in
  if ucmp d lim < 0 then bytes_set32u stk (stack_write vm d) (Int64.to_int32 v)
  else begin
    vm.executed <- execd;
    let r = region_at vm addr 4 in
    let off = writable_off vm r 4 addr in
    bytes_set32u r.mem off (Int64.to_int32 v)
  end

let[@inline always] store64_m vm stk lim execd addr v =
  let d = Int64.sub addr region_alignment in
  if ucmp d lim < 0 then bytes_set64 stk (stack_write vm d) v
  else begin
    vm.executed <- execd;
    let r = region_at vm addr 8 in
    let off = writable_off vm r 8 addr in
    bytes_set64 r.mem off v
  end

(* ------------------------------------------------------------------ *)
(* Closure-template JIT                                                *)
(* ------------------------------------------------------------------ *)

(* The program's basic blocks are translated, once, into a graph of OCaml
   closures of type [jit_env -> int64]: each instruction becomes one
   closure holding its operands in its environment, and control threads
   by tail-calling the next closure directly — no fetch, no decode, no
   dispatch table. Closures are specialised only where that pays
   in-engine: each 64-bit ALU operator and operand kind, each memory
   width, and a stack access at a constant in-frame offset get their own
   closure, while 32-bit ALU and conditional jumps get one closure per
   operand kind that dispatches on the operator or condition it holds
   ([alu32_seti], [cond_holds]).
   Instructions write the register file as they run, and a block ends by
   entering its successor's gated cell. All mutable run state lives in
   [jit_env] so the compiled closures are independent of any particular
   VM: the same [jit_prog] is shared by every PRE running the same
   bytecode (the content-addressed plugin cache relies on this). A jitted
   program is not re-entrant — one run at a time per [jit_prog].

   Fuel is prepaid per block: the block head subtracts the whole block
   length once, so instructions inside a block touch no counter, and the
   [executed] value any instruction must expose (to helpers, traps, exit)
   is reconstructed as [jk - jfuel - ci] with [ci] the compile-time
   distance from the instruction to the block end. When a block head
   finds less fuel than the block needs, or compilation meets a shape it
   does not specialise (invalid jump target, bad register operand,
   falling off the end), the run *deoptimises* into the reference
   interpreter at that exact instruction with the fuel its
   per-instruction loop would hold there ([jit_resume]) — both tiers
   then agree bit-for-bit on results, traps and accounting even on
   unverified programs. *)

type jit_env = {
  mutable jvm : t;
  mutable jregb : Bytes.t;
  mutable jstk : Bytes.t;
  mutable jk : int; (* executed + fuel0 + 1: [executed] = jk - fuel - 1 *)
  mutable jfuel : int;
}

type jit_prog = {
  jprog : Insn.t array; (* the source program: deopt target, and the
                          fallback on a stack-size mismatch *)
  jstack : int; (* stack size the stack-direct closures are baked for *)
  jlow : int; (* lowest stack offset a stack-direct store writes *)
  jentry : jit_env -> int64;
  jenv : jit_env; (* swapped to the running VM per run; not re-entrant *)
  jplace : t; (* placeholder [jvm] of a fresh environment until a run
                 binds one; shared by the program's clones *)
}

(* Deoptimisation: resume the reference interpreter at instruction [i]
   holding [fuel], the budget its per-instruction loop would hold on
   reaching [i] (so [executed] is [jk - fuel - 1] there). Registers are
   copied out of the register file; the stack is shared. Used before any
   of [i]'s effects, it is bit-exact. *)
let jit_resume env prog i fuel =
  let vm = env.jvm in
  vm.executed <- env.jk - fuel - 1;
  interp vm prog (Array.init 11 (fun r -> rget vm.regb r)) i fuel

let jit_fresh_env place =
  {
    jvm = place;
    jregb = Bytes.create 88;
    jstk = Bytes.create 0;
    jk = 0;
    jfuel = 0;
  }

(* Every register the instruction names is one of r0..r10. The JIT
   compiles an instruction failing this into a deoptimisation, so the
   reference interpreter raises the trap and the register-file accessors
   only ever index r0..r10. *)
let regs_ok insn =
  let ok r = r >= 0 && r <= Insn.max_reg in
  match insn with
  | Insn.Alu64 (_, d, o) | Insn.Alu32 (_, d, o) | Insn.Jcond (_, d, o, _) -> (
    ok d && match o with Insn.Reg s -> ok s | Insn.Imm _ -> true)
  | Insn.Ld_imm64 (d, _) | Insn.St (_, d, _, _) -> ok d
  | Insn.Ldx (_, d, s, _) | Insn.Stx (_, d, _, s) -> ok d && ok s
  | Insn.Ja _ | Insn.Call _ | Insn.Exit -> true

(* eBPF Div/Mod are unsigned, so by a power-of-two immediate they are
   exactly a logical shift / a mask — and the PLC compiler emits /4 and /8
   on every EWMA-style update. (The sign-extended immediate is positive
   only when the 64-bit divisor is, so the power-of-two test is on the
   value the ALU would use.) *)
let strength_reduce = function
  | Insn.Alu64 (Insn.Div, d, Insn.Imm v)
    when v > 0l && Int32.logand v (Int32.pred v) = 0l ->
    let rec tz k n = if n land 1 = 1 then k else tz (k + 1) (n asr 1) in
    Insn.Alu64 (Insn.Rsh, d, Insn.Imm (Int32.of_int (tz 0 (Int32.to_int v))))
  | Insn.Alu64 (Insn.Mod, d, Insn.Imm v)
    when v > 0l && Int32.logand v (Int32.pred v) = 0l ->
    Insn.Alu64 (Insn.And, d, Insn.Imm (Int32.pred v))
  | insn -> insn

let jit ?(stack_size = 512) prog =
  let place = create ~stack_size:8 () in
  let env = jit_fresh_env place in
  if Sys.big_endian then
    (* The templates read guest memory with native-endian primitives:
       big-endian hosts run every program in the reference interpreter. *)
    {
      jprog = prog;
      jstack = stack_size;
      jlow = stack_size;
      jentry = (fun env -> jit_resume env prog 0 env.jfuel);
      jenv = env;
      jplace = place;
    }
  else begin
    let n = Array.length prog in
    let targets = Insn.jump_targets prog in
    let ss = stack_size in
    (* If no instruction anywhere writes r10, fp is the constant stack top
       for the whole run, so an fp-relative access at a constant offset
       inside the frame compiles to a direct stack bytes op — the bounds
       check is hoisted all the way to compile time. The verifier rejects
       fp writes and out-of-frame stack accesses, so every access an
       admitted pluglet makes through fp qualifies; the conservative
       whole-program scan keeps unverified programs (which [run] accepts)
       correct, and any other access takes the monitored closure. *)
    let fp_written =
      Array.exists
        (function
          | Insn.Alu64 (_, 10, _)
          | Insn.Alu32 (_, 10, _)
          | Insn.Ld_imm64 (10, _)
          | Insn.Ldx (_, 10, _, _) -> true
          | _ -> false)
        prog
    in
    let stack_direct r off len =
      let soff = ss + off in
      r = Insn.fp && (not fp_written) && soff >= 0 && soff + len <= ss
    in
    (* The lowest stack offset a stack-direct store writes: [run_jit]
       lowers the VM's stack mark to it. *)
    let jlow = ref ss in
    let direct_store r off len =
      let ok = stack_direct r off len in
      if ok && ss + off < !jlow then jlow := ss + off;
      ok
    in
    let lim1 = Int64.of_int ss
    and lim2 = Int64.of_int (max 0 (ss - 1))
    and lim4 = Int64.of_int (max 0 (ss - 3))
    and lim8 = Int64.of_int (max 0 (ss - 7)) in
    (* Basic-block leaders: the entry, every jump target, and every
       instruction after a jump or exit. The index [n] is the sentinel
       block (falling off the end). *)
    let leader = Array.make (n + 1) false in
    leader.(0) <- true;
    leader.(n) <- true;
    for i = 0 to n - 1 do
      match prog.(i) with
      | Insn.Exit -> leader.(i + 1) <- true
      | (Insn.Ja _ | Insn.Jcond _) as insn when regs_ok insn ->
        (* a jump naming a bad register deoptimises mid-block instead *)
        leader.(i + 1) <- true;
        if targets.(i) >= 0 then leader.(targets.(i)) <- true
      | _ -> ()
    done;
    let blk_id = Array.make (n + 1) (-1) in
    let nblocks = ref 0 in
    for i = 0 to n do
      if leader.(i) then begin
        blk_id.(i) <- !nblocks;
        incr nblocks
      end
    done;
    (* Blocks are knot-tied through [cells]: closures capture the array
       and their target's block id, and the array is filled as blocks
       compile, so forward references resolve at run time. *)
    let cells = Array.make !nblocks (fun (_ : jit_env) -> 0L) in
    let goto_cell b env = (Array.unsafe_get cells b) env in
    (* Universal escape: resume the reference interpreter at instruction
       [i]. [ci] is the block-end distance [stop - i], which is exactly the
       fuel the reference loop would hold at [i] minus the block's
       remaining prepaid fuel. *)
    let deopt i ci env = jit_resume env prog i (env.jfuel + ci) in
    (* One closure per instruction, specialised on its constructor and
       operand kinds. [ci = stop - i] reconstructs [executed] where it is
       observable; [next] is the successor closure. *)
    let ins i ci (next : jit_env -> int64) : jit_env -> int64 =
      match strength_reduce prog.(i) with
      | insn when not (regs_ok insn) -> deopt i ci
      | Insn.Alu64 (op, d, Insn.Reg s) -> (
        match op with
        | Insn.Add ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.add (rget rb d) (rget rb s));
            next env
        | Insn.Sub ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.sub (rget rb d) (rget rb s));
            next env
        | Insn.Mul ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.mul (rget rb d) (rget rb s));
            next env
        | Insn.Div ->
          fun env ->
            let rb = env.jregb in
            let b = rget rb s in
            rset rb d (if Int64.equal b 0L then 0L else udiv64 (rget rb d) b);
            next env
        | Insn.Mov ->
          fun env ->
            let rb = env.jregb in
            rset rb d (rget rb s);
            next env
        | Insn.Or ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.logor (rget rb d) (rget rb s));
            next env
        | Insn.And ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.logand (rget rb d) (rget rb s));
            next env
        | Insn.Xor ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.logxor (rget rb d) (rget rb s));
            next env
        | Insn.Lsh ->
          fun env ->
            let rb = env.jregb in
            rset rb d
              (Int64.shift_left (rget rb d)
                 (Int64.to_int (Int64.logand (rget rb s) 63L)));
            next env
        | Insn.Rsh ->
          fun env ->
            let rb = env.jregb in
            rset rb d
              (Int64.shift_right_logical (rget rb d)
                 (Int64.to_int (Int64.logand (rget rb s) 63L)));
            next env
        | Insn.Arsh ->
          fun env ->
            let rb = env.jregb in
            rset rb d
              (Int64.shift_right (rget rb d)
                 (Int64.to_int (Int64.logand (rget rb s) 63L)));
            next env
        | Insn.Mod ->
          fun env ->
            let rb = env.jregb in
            let b = rget rb s in
            let a = rget rb d in
            rset rb d (if Int64.equal b 0L then a else urem64 a b);
            next env
        | Insn.Neg ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.neg (rget rb d));
            next env)
      | Insn.Alu64 (op, d, Insn.Imm v) -> (
        let vi = Int32.to_int v in
        let ib = Int64.of_int vi in
        match op with
        | Insn.Add ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.add (rget rb d) ib);
            next env
        | Insn.Sub ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.sub (rget rb d) ib);
            next env
        | Insn.Mul ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.mul (rget rb d) ib);
            next env
        | Insn.Div ->
          fun env ->
            let rb = env.jregb in
            rset rb d (if vi = 0 then 0L else udiv64 (rget rb d) ib);
            next env
        | Insn.Mov ->
          fun env ->
            rset env.jregb d ib;
            next env
        | Insn.Or ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.logor (rget rb d) ib);
            next env
        | Insn.And ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.logand (rget rb d) ib);
            next env
        | Insn.Xor ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.logxor (rget rb d) ib);
            next env
        | Insn.Lsh ->
          let sh = vi land 63 in
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.shift_left (rget rb d) sh);
            next env
        | Insn.Rsh ->
          let sh = vi land 63 in
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.shift_right_logical (rget rb d) sh);
            next env
        | Insn.Arsh ->
          let sh = vi land 63 in
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.shift_right (rget rb d) sh);
            next env
        | Insn.Mod ->
          fun env ->
            let rb = env.jregb in
            let a = rget rb d in
            rset rb d (if vi = 0 then a else urem64 a ib);
            next env
        | Insn.Neg ->
          fun env ->
            let rb = env.jregb in
            rset rb d (Int64.neg (rget rb d));
            next env)
      | Insn.Alu32 (op, d, Insn.Reg s) ->
        fun env ->
          let rb = env.jregb in
          alu32_seti rb d op (rget rb d) (rget rb s);
          next env
      | Insn.Alu32 (op, d, Insn.Imm v) ->
        let ib = Int64.of_int32 v in
        fun env ->
          let rb = env.jregb in
          alu32_seti rb d op (rget rb d) ib;
          next env
      | Insn.Ld_imm64 (d, v) ->
        fun env ->
          rset env.jregb d v;
          next env
      | Insn.Ldx (Insn.W8, d, s, off) ->
        if stack_direct s off 1 then
          let soff = ss + off in
          fun env ->
            rset env.jregb d
              (Int64.of_int (Char.code (Bytes.unsafe_get env.jstk soff)));
            next env
        else
          let off = Int64.of_int off in
          fun env ->
            let rb = env.jregb in
            rset rb d
              (load8_m env.jvm env.jstk lim1
                 (env.jk - env.jfuel - ci)
                 (Int64.add (rget rb s) off));
            next env
      | Insn.Ldx (Insn.W16, d, s, off) ->
        if stack_direct s off 2 then
          let soff = ss + off in
          fun env ->
            rset env.jregb d (Int64.of_int (bytes_get16u env.jstk soff));
            next env
        else
          let off = Int64.of_int off in
          fun env ->
            let rb = env.jregb in
            rset rb d
              (load16_m env.jvm env.jstk lim2
                 (env.jk - env.jfuel - ci)
                 (Int64.add (rget rb s) off));
            next env
      | Insn.Ldx (Insn.W32, d, s, off) ->
        if stack_direct s off 4 then
          let soff = ss + off in
          fun env ->
            rset env.jregb d
              (Int64.logand
                 (Int64.of_int32 (bytes_get32u env.jstk soff))
                 0xffffffffL);
            next env
        else
          let off = Int64.of_int off in
          fun env ->
            let rb = env.jregb in
            rset rb d
              (load32_m env.jvm env.jstk lim4
                 (env.jk - env.jfuel - ci)
                 (Int64.add (rget rb s) off));
            next env
      | Insn.Ldx (Insn.W64, d, s, off) ->
        if stack_direct s off 8 then
          let soff = ss + off in
          fun env ->
            rset env.jregb d (bytes_get64 env.jstk soff);
            next env
        else
          let off = Int64.of_int off in
          fun env ->
            let rb = env.jregb in
            rset rb d
              (load64_m env.jvm env.jstk lim8
                 (env.jk - env.jfuel - ci)
                 (Int64.add (rget rb s) off));
            next env
      | Insn.Stx (Insn.W8, d, off, s) ->
        if direct_store d off 1 then
          let soff = ss + off in
          fun env ->
            Bytes.unsafe_set env.jstk soff
              (Char.unsafe_chr (Int64.to_int (rget env.jregb s) land 0xff));
            next env
        else
          let off = Int64.of_int off in
          fun env ->
            let rb = env.jregb in
            store8_m env.jvm env.jstk lim1
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb d) off)
              (rget rb s);
            next env
      | Insn.Stx (Insn.W16, d, off, s) ->
        if direct_store d off 2 then
          let soff = ss + off in
          fun env ->
            bytes_set16u env.jstk soff
              (Int64.to_int (rget env.jregb s) land 0xffff);
            next env
        else
          let off = Int64.of_int off in
          fun env ->
            let rb = env.jregb in
            store16_m env.jvm env.jstk lim2
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb d) off)
              (rget rb s);
            next env
      | Insn.Stx (Insn.W32, d, off, s) ->
        if direct_store d off 4 then
          let soff = ss + off in
          fun env ->
            bytes_set32u env.jstk soff (Int64.to_int32 (rget env.jregb s));
            next env
        else
          let off = Int64.of_int off in
          fun env ->
            let rb = env.jregb in
            store32_m env.jvm env.jstk lim4
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb d) off)
              (rget rb s);
            next env
      | Insn.Stx (Insn.W64, d, off, s) ->
        if direct_store d off 8 then
          let soff = ss + off in
          fun env ->
            bytes_set64 env.jstk soff (rget env.jregb s);
            next env
        else
          let off = Int64.of_int off in
          fun env ->
            let rb = env.jregb in
            store64_m env.jvm env.jstk lim8
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb d) off)
              (rget rb s);
            next env
      | Insn.St (Insn.W8, d, off, imm) ->
        if direct_store d off 1 then
          let soff = ss + off in
          let c = Char.unsafe_chr (Int32.to_int imm land 0xff) in
          fun env ->
            Bytes.unsafe_set env.jstk soff c;
            next env
        else
          let off = Int64.of_int off and v = Int64.of_int32 imm in
          fun env ->
            let rb = env.jregb in
            store8_m env.jvm env.jstk lim1
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb d) off)
              v;
            next env
      | Insn.St (Insn.W16, d, off, imm) ->
        if direct_store d off 2 then
          let soff = ss + off in
          let iv = Int32.to_int imm land 0xffff in
          fun env ->
            bytes_set16u env.jstk soff iv;
            next env
        else
          let off = Int64.of_int off and v = Int64.of_int32 imm in
          fun env ->
            let rb = env.jregb in
            store16_m env.jvm env.jstk lim2
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb d) off)
              v;
            next env
      | Insn.St (Insn.W32, d, off, imm) ->
        if direct_store d off 4 then
          let soff = ss + off in
          fun env ->
            bytes_set32u env.jstk soff imm;
            next env
        else
          let off = Int64.of_int off and v = Int64.of_int32 imm in
          fun env ->
            let rb = env.jregb in
            store32_m env.jvm env.jstk lim4
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb d) off)
              v;
            next env
      | Insn.St (Insn.W64, d, off, imm) ->
        if direct_store d off 8 then
          let soff = ss + off and v = Int64.of_int32 imm in
          fun env ->
            bytes_set64 env.jstk soff v;
            next env
        else
          let off = Int64.of_int off and v = Int64.of_int32 imm in
          fun env ->
            let rb = env.jregb in
            store64_m env.jvm env.jstk lim8
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb d) off)
              v;
            next env
      | Insn.Ja _ ->
        let t = targets.(i) in
        if t < 0 then deopt i ci
        else
          let tb = blk_id.(t) in
          fun env -> (Array.unsafe_get cells tb) env
      | Insn.Call id ->
        fun env ->
          let vm = env.jvm in
          vm.executed <- env.jk - env.jfuel - ci;
          let h = vm.helpers in
          (match
             (if id >= 0 && id < Array.length h.fns then h.fns.(id) else None)
           with
          | None ->
            raise (Helper_failure (Printf.sprintf "helper %d missing" id))
          | Some f ->
            (* r0 starts at 0: a helper that writes nothing returns 0 *)
            let rb = env.jregb in
            rset rb 0 0L;
            f vm;
            (* r1-r5 are clobbered by calls, per the eBPF convention. *)
            Bytes.fill rb 8 40 '\000');
          next env
      | Insn.Exit ->
        fun env ->
          env.jvm.executed <- env.jk - env.jfuel - ci;
          rget env.jregb 0
      | Insn.Jcond (c, d, operand, _) -> (
        (* Conditional jumps close the block: both arms dispatch through
           [cells]. An invalid taken-target deoptimizes unconditionally —
           the reference loop re-evaluates the condition and traps (or falls
           through) with exact semantics. *)
        let fb = blk_id.(i + 1) in
        let t = targets.(i) in
        if t < 0 then deopt i ci
        else
          let tb = blk_id.(t) in
          match operand with
          | Insn.Reg s ->
            fun env ->
              let rb = env.jregb in
              if cond_holds c (rget rb d) (rget rb s) then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | Insn.Imm v ->
            let ib = Int64.of_int32 v in
            fun env ->
              if cond_holds c (rget env.jregb d) ib then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env)
    in
    let compile_block start stop =
      let blen = stop - start in
      let rec build i next =
        if i < start then next else build (i - 1) (ins i (stop - i) next)
      in
      let body = build (stop - 1) (goto_cell blk_id.(stop)) in
      cells.(blk_id.(start)) <-
        (fun env ->
          let f = env.jfuel in
          if f >= blen then begin
            env.jfuel <- f - blen;
            body env
          end
          else jit_resume env prog start f)
    in
    let start = ref 0 in
    for i = 1 to n do
      if leader.(i) then begin
        compile_block !start i;
        start := i
      end
    done;
    (* Sentinel block: falling off the end. The reference loop's own fuel
       check and failed fetch provide the exact semantics. *)
    cells.(blk_id.(n)) <- (fun env -> jit_resume env prog n env.jfuel);
    let entry = cells.(blk_id.(0)) in
    { jprog = prog; jstack = stack_size; jlow = !jlow; jentry = entry;
      jenv = env; jplace = place }
  end

(* Share one compilation between PREs: the block closures only ever touch
   the [jit_env] they are passed, so a clone is the same closures over a
   fresh mutable environment — each holder gets its own run state (and
   thus its own non-re-entrancy domain) for the cost of two small
   allocations. The content-addressed program cache relies on this. *)
let jit_clone jp =
  { jp with jenv = jit_fresh_env jp.jplace }

(* Execute a jitted program: the same prologue as [run], into the register
   file, then the entry block closure. A VM whose stack size differs from
   the one the stack-direct closures were baked for runs the program in
   the reference interpreter (same semantics, no recompilation). *)
let run_jit vm ~args jp =
  if vm.stack_size <> jp.jstack then run vm ~args jp.jprog
  else begin
    reset_stack vm;
    if jp.jlow < vm.stack_lo then vm.stack_lo <- jp.jlow;
    let regb = vm.regb in
    Bytes.fill regb 0 88 '\000';
    let nargs = Array.length args in
    for k = 0 to (if nargs > 5 then 4 else nargs - 1) do
      rset regb (k + 1) args.(k)
    done;
    rset regb Insn.fp vm.fp0;
    let fuel0 = vm.max_insns in
    let env = jp.jenv in
    (* A PRE runs its program on the same VM every time: skip the three
       pointer stores (and their write barriers) once the env is bound.
       [jregb] and [jstk] are derived from [jvm], so one check covers all. *)
    if env.jvm != vm then begin
      env.jvm <- vm;
      env.jregb <- regb;
      env.jstk <- vm.stack.mem
    end;
    env.jk <- vm.executed + fuel0 + 1;
    env.jfuel <- fuel0;
    jp.jentry env
  end

let executed vm = vm.executed
