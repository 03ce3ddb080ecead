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

   - [run], the reference interpreter: rebuilds the slot maps and resolves
     every jump through them on each invocation. It is the executable
     specification the JIT is differentially tested against, and the
     JIT's deoptimisation target.
   - [jit] + [run_jit], the production path: the program is compiled once
     into a graph of OCaml closures, one per instruction, and each run
     enters it with no per-run setup work.

   Regions occupy disjoint 4 GiB-aligned windows of address space, so the
   window index [addr lsr 32] identifies the region: resolution is a dense
   table lookup plus a last-hit memo, not a list scan. Windows of unmapped
   regions are recycled, which keeps the table small even though transient
   argument buffers are mapped and unmapped around every protoop call. *)

type perm = Ro | Rw

type region = {
  rid : int;
  rname : string;
  base : int64;
  window : int; (* = base lsr 32; regions never span windows *)
  mem : Bytes.t;
  roff : int; (* first byte of the mapped sub-view within [mem] *)
  rlen : int; (* view length: pluglet addresses cover base..base+rlen *)
  perm : perm;
}

exception Memory_violation of string
exception Fuel_exhausted
exception Helper_failure of string

type t = {
  mutable region_tbl : region option array; (* indexed by addr lsr 32 *)
  mutable last_region : region; (* memo for same-region access streaks *)
  mutable free_windows : int list; (* windows recycled after unmap *)
  mutable next_window : int;
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
  mutable next_rid : int;
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

let helper_table () = { fns = [||] }

(* Window 0 is never handed out, so null-ish pluglet pointers fault. The
   stack occupies window 1 from creation: every VM — and therefore every
   PRE of a plugin instance — has the same memory layout, and per-run
   stack setup is a [Bytes.fill] rather than an allocate/map/unmap cycle. *)
let create ?(stack_size = 512) ?(max_insns = 4_000_000) () =
  let stack =
    {
      rid = 0;
      rname = "stack";
      base = region_alignment;
      window = 1;
      mem = Bytes.make stack_size '\000';
      roff = 0;
      rlen = stack_size;
      perm = Rw;
    }
  in
  let region_tbl = Array.make 8 None in
  region_tbl.(1) <- Some stack;
  {
    region_tbl;
    last_region = stack;
    free_windows = [];
    next_window = 2;
    helpers = helper_table ();
    stack;
    stack_size;
    regb = Bytes.make 88 '\000';
    fp0 = Int64.add region_alignment (Int64.of_int stack_size);
    stack_lo = stack_size;
    next_rid = 1;
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
   from linked instructions, which [link] guarantees name r0..r10 only
   (anything else became [f_trap_badreg]), or from [arg]'s checked range,
   so the unchecked primitives are safe — and unlike an [int64 array]
   element store they keep the value unboxed through the whole
   load/compute/store chain. *)
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

(* [off]/[len] map a sub-view of [mem]: the pluglet sees addresses
   base..base+len covering mem[off..off+len). The default is the whole
   buffer. Sub-views are how host-owned wire buffers are exposed without
   copying: the monitor bounds are exactly those of the old copied slice. *)

(* [map_sub] is the required-argument form: the protoop marshalling path
   maps a few regions per pluglet execution and the optional-argument
   boxing of [map_region] is measurable there. *)
let map_sub vm ~name ~perm mem ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length mem then
    invalid_arg "Vm.map_region: sub-view outside the backing buffer";
  let window =
    match vm.free_windows with
    | w :: rest ->
      vm.free_windows <- rest;
      w
    | [] ->
      let w = vm.next_window in
      vm.next_window <- w + 1;
      w
  in
  if window >= Array.length vm.region_tbl then begin
    let grown =
      Array.make (max (window + 1) (2 * Array.length vm.region_tbl)) None
    in
    Array.blit vm.region_tbl 0 grown 0 (Array.length vm.region_tbl);
    vm.region_tbl <- grown
  end;
  let r =
    {
      rid = vm.next_rid;
      rname = name;
      base = Int64.shift_left (Int64.of_int window) window_bits;
      window;
      mem;
      roff = off;
      rlen = len;
      perm;
    }
  in
  vm.next_rid <- vm.next_rid + 1;
  vm.region_tbl.(window) <- Some r;
  r

let map_region vm ~name ~perm ?(off = 0) ?len mem =
  let len = match len with Some l -> l | None -> Bytes.length mem - off in
  map_sub vm ~name ~perm mem ~off ~len

let unmap_region vm r =
  if r.window < Array.length vm.region_tbl then
    match vm.region_tbl.(r.window) with
    | Some r' when r'.rid = r.rid ->
      vm.region_tbl.(r.window) <- None;
      vm.free_windows <- r.window :: vm.free_windows;
      if vm.last_region.rid = r.rid then vm.last_region <- vm.stack
    | _ -> ()

(* Point a mapped region at a new backing buffer, keeping its rid, window
   and base, so addresses pluglets already hold stay valid. The view spans
   the whole new buffer. *)
let remap vm r mem =
  match
    if r.window < Array.length vm.region_tbl then vm.region_tbl.(r.window)
    else None
  with
  | Some cur when cur.rid = r.rid ->
    let r' = { cur with mem; roff = 0; rlen = Bytes.length mem } in
    vm.region_tbl.(r.window) <- Some r';
    if vm.last_region.rid = r.rid then vm.last_region <- r';
    r'
  | _ -> invalid_arg "Vm.remap: region not mapped"

(* Bulk unmap for the marshalling fast path: capture a mark before mapping
   the call's transient regions, unmap everything at-or-above it after —
   no list of region handles to build. Sound because a given VM is never
   re-entered while a pluglet runs (each PRE owns its VM, and re-entering
   the same protoop is sanctioned as a loop), so every region with
   [rid >= mark] belongs to the current call. *)
let rid_mark vm = vm.next_rid

let unmap_above vm mark =
  let tbl = vm.region_tbl in
  if vm.next_rid > mark then
    for w = 0 to Array.length tbl - 1 do
      match tbl.(w) with
      | Some r when r.rid >= mark -> unmap_region vm r
      | _ -> ()
    done

let out_of_region len addr =
  raise
    (Memory_violation
       (Printf.sprintf "access of %d bytes at 0x%Lx outside any region" len
          addr))

(* O(1) region resolution: the access's window indexes the dense table;
   the last-hit memo short-circuits the common same-region streak. *)
let region_at vm addr len =
  let w = Int64.to_int (Int64.shift_right_logical addr window_bits) in
  if vm.last_region.window = w then vm.last_region
  else
    let tbl = vm.region_tbl in
    if w < Array.length tbl then
      match tbl.(w) with
      | Some r ->
        vm.last_region <- r;
        r
      | None -> out_of_region len addr
    else out_of_region len addr

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
   until the region is unmapped. *)
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
   every jump through freshly built slot maps. Returns r0. [run] enters it
   at the top of the program; the JIT enters it mid-program to deoptimise
   (see [jit_resume]). *)
let interp vm prog regs pc0 fuel0 =
  let pos, of_slot, total = Verifier.slot_maps prog in
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
    let goto off =
      let target_slot = pos.(!pc) + Insn.slots insn + off in
      if target_slot >= 0 && target_slot < total && of_slot.(target_slot) >= 0
      then pc := of_slot.(target_slot)
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
    | Insn.Ja off -> goto off
    | Insn.Jcond (c, dst, operand, off) ->
      if jump_taken c regs.(dst) (operand_value operand) then goto off
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

(* ------------------------------------------------------------------ *)
(* Linking: the JIT's decoder                                          *)
(* ------------------------------------------------------------------ *)

(* The linked form of a program is a flat [int array], four slots per
   instruction: [op; a; b; c], one specialised opcode per operation and
   operand kind, so the JIT's templates match on plain ints. Jump targets
   are absolute instruction indices (or -1 for a target the verifier
   would reject, which the JIT deoptimises on so the reference
   interpreter traps lazily); register numbers, offsets and
   32-bit-origin immediates are plain (sign-extended) [int]s. True 64-bit
   [Ld_imm64] payloads live out-of-line in [pool]. Unsigned division and
   modulo by a power-of-two immediate are strength-reduced here. *)
type linked_prog = {
  ops : int array; (* 4 slots per instruction: op, a, b, c *)
  pool : Bytes.t; (* native-endian Ld_imm64 payloads, indexed by byte *)
}

(* Opcode assignments. The JIT's templates match on these literally; they
   are differentially tested against the reference interpreter over every
   instruction class (test_ebpf's generated programs and ALU/jump
   oracles). *)
let f_add64_rr = 0

and f_add64_ri = 1

and f_sub64_rr = 2

and f_sub64_ri = 3

and f_mul64_rr = 4

and f_mul64_ri = 5

and f_div64_rr = 6

and f_div64_ri = 7

and f_mov64_rr = 8

and f_mov64_ri = 9

and f_or64_rr = 10

and f_or64_ri = 11

and f_and64_rr = 12

and f_and64_ri = 13

and f_xor64_rr = 14

and f_xor64_ri = 15

and f_lsh64_rr = 16

and f_lsh64_ri = 17

and f_rsh64_rr = 18

and f_rsh64_ri = 19

and f_arsh64_rr = 20

and f_arsh64_ri = 21

and f_mod64_rr = 22

and f_mod64_ri = 23

and f_neg64 = 24

and f_alu32_rr = 25 (* c = alu_op index *)

and f_alu32_ri = 26 (* c = alu_op index *)

and f_ld_imm64 = 27 (* b = pool byte offset *)

and f_ldx8 = 28 (* a = dst, b = src, c = off *)

and f_ldx16 = 29

and f_ldx32 = 30

and f_ldx64 = 31

and f_stx8 = 32 (* a = dst, b = off, c = src *)

and f_stx16 = 33

and f_stx32 = 34

and f_stx64 = 35

and f_st8 = 36 (* a = dst, b = off, c = imm *)

and f_st16 = 37

and f_st32 = 38

and f_st64 = 39

and f_ja = 40 (* a = target *)

and f_jeq_rr = 41 (* rr: a = dst, b = src, c = target *)

and f_jeq_ri = 42 (* ri: a = dst, b = imm, c = target *)

and f_jne_rr = 43

and f_jne_ri = 44

and f_jgt_rr = 45

and f_jgt_ri = 46

and f_jge_rr = 47

and f_jge_ri = 48

and f_jlt_rr = 49

and f_jlt_ri = 50

and f_jle_rr = 51

and f_jle_ri = 52

and f_jsgt_rr = 53

and f_jsgt_ri = 54

and f_jsge_rr = 55

and f_jsge_ri = 56

and f_jslt_rr = 57

and f_jslt_ri = 58

and f_jsle_rr = 59

and f_jsle_ri = 60

and f_jset_rr = 61

and f_jset_ri = 62

and f_call = 63 (* a = helper id *)

and f_exit = 64

and f_trap_badreg = 65
(* an instruction naming a register outside r0..r10: the JIT deoptimises
   on it, so the reference interpreter raises the trap *)

(* Operator index for the generic 32-bit ALU opcodes; [alu32_seti]
   dispatches on the same numbering. *)
let alu_op_index = function
  | Insn.Add -> 0
  | Insn.Sub -> 1
  | Insn.Mul -> 2
  | Insn.Div -> 3
  | Insn.Or -> 4
  | Insn.And -> 5
  | Insn.Lsh -> 6
  | Insn.Rsh -> 7
  | Insn.Neg -> 8
  | Insn.Mod -> 9
  | Insn.Xor -> 10
  | Insn.Mov -> 11
  | Insn.Arsh -> 12

let reg_ok r = r >= 0 && r <= 10

let link prog =
  let pos, of_slot, total = Verifier.slot_maps prog in
  let target i off =
    let t = pos.(i) + Insn.slots prog.(i) + off in
    if t >= 0 && t < total then of_slot.(t) else -1
  in
  let ops = Array.make (4 * Array.length prog) 0 in
  let pool = Buffer.create 16 in
  Array.iteri
    (fun i insn ->
      let base = 4 * i in
      let set op a b c =
        ops.(base) <- op;
        ops.(base + 1) <- a;
        ops.(base + 2) <- b;
        ops.(base + 3) <- c
      in
      match insn with
      | Insn.Alu64 (op, dst, Insn.Reg src) when reg_ok dst && reg_ok src ->
        let o =
          match op with
          | Insn.Add -> f_add64_rr
          | Insn.Sub -> f_sub64_rr
          | Insn.Mul -> f_mul64_rr
          | Insn.Div -> f_div64_rr
          | Insn.Mov -> f_mov64_rr
          | Insn.Or -> f_or64_rr
          | Insn.And -> f_and64_rr
          | Insn.Xor -> f_xor64_rr
          | Insn.Lsh -> f_lsh64_rr
          | Insn.Rsh -> f_rsh64_rr
          | Insn.Arsh -> f_arsh64_rr
          | Insn.Mod -> f_mod64_rr
          | Insn.Neg -> f_neg64
        in
        set o dst src 0
      | Insn.Alu64 (op, dst, Insn.Imm v) when reg_ok dst -> (
        let vi = Int32.to_int v in
        (* eBPF Div/Mod are unsigned, so by a power-of-two immediate they
           are exactly a logical shift / a mask — and the PLC compiler
           emits /4 and /8 on every EWMA-style update. (The sign-extended
           [vi] is positive only when the 64-bit divisor is, so the
           power-of-two test below is on the value the ALU would use.) *)
        let pow2 = vi > 0 && vi land (vi - 1) = 0 in
        match op with
        | Insn.Div when pow2 ->
          let rec tz k n = if n land 1 = 1 then k else tz (k + 1) (n asr 1) in
          set f_rsh64_ri dst (tz 0 vi) 0
        | Insn.Mod when pow2 -> set f_and64_ri dst (vi - 1) 0
        | _ ->
          let o =
            match op with
            | Insn.Add -> f_add64_ri
            | Insn.Sub -> f_sub64_ri
            | Insn.Mul -> f_mul64_ri
            | Insn.Div -> f_div64_ri
            | Insn.Mov -> f_mov64_ri
            | Insn.Or -> f_or64_ri
            | Insn.And -> f_and64_ri
            | Insn.Xor -> f_xor64_ri
            | Insn.Lsh -> f_lsh64_ri
            | Insn.Rsh -> f_rsh64_ri
            | Insn.Arsh -> f_arsh64_ri
            | Insn.Mod -> f_mod64_ri
            | Insn.Neg -> f_neg64
          in
          set o dst vi 0)
      | Insn.Alu32 (op, dst, Insn.Reg src) when reg_ok dst && reg_ok src ->
        set f_alu32_rr dst src (alu_op_index op)
      | Insn.Alu32 (op, dst, Insn.Imm v) when reg_ok dst ->
        set f_alu32_ri dst (Int32.to_int v) (alu_op_index op)
      | Insn.Ld_imm64 (dst, v) when reg_ok dst ->
        let off = Buffer.length pool in
        Buffer.add_int64_ne pool v;
        set f_ld_imm64 dst off 0
      | Insn.Ldx (sz, dst, src, off) when reg_ok dst && reg_ok src ->
        let o =
          match sz with
          | Insn.W8 -> f_ldx8
          | Insn.W16 -> f_ldx16
          | Insn.W32 -> f_ldx32
          | Insn.W64 -> f_ldx64
        in
        set o dst src off
      | Insn.Stx (sz, dst, off, src) when reg_ok dst && reg_ok src ->
        let o =
          match sz with
          | Insn.W8 -> f_stx8
          | Insn.W16 -> f_stx16
          | Insn.W32 -> f_stx32
          | Insn.W64 -> f_stx64
        in
        set o dst off src
      | Insn.St (sz, dst, off, imm) when reg_ok dst ->
        let o =
          match sz with
          | Insn.W8 -> f_st8
          | Insn.W16 -> f_st16
          | Insn.W32 -> f_st32
          | Insn.W64 -> f_st64
        in
        set o dst off (Int32.to_int imm)
      | Insn.Ja off -> set f_ja (target i off) 0 0
      | Insn.Jcond (c, dst, Insn.Reg src, off) when reg_ok dst && reg_ok src
        ->
        let o =
          match c with
          | Insn.Jeq -> f_jeq_rr
          | Insn.Jne -> f_jne_rr
          | Insn.Jgt -> f_jgt_rr
          | Insn.Jge -> f_jge_rr
          | Insn.Jlt -> f_jlt_rr
          | Insn.Jle -> f_jle_rr
          | Insn.Jsgt -> f_jsgt_rr
          | Insn.Jsge -> f_jsge_rr
          | Insn.Jslt -> f_jslt_rr
          | Insn.Jsle -> f_jsle_rr
          | Insn.Jset -> f_jset_rr
        in
        set o dst src (target i off)
      | Insn.Jcond (c, dst, Insn.Imm v, off) when reg_ok dst ->
        let o =
          match c with
          | Insn.Jeq -> f_jeq_ri
          | Insn.Jne -> f_jne_ri
          | Insn.Jgt -> f_jgt_ri
          | Insn.Jge -> f_jge_ri
          | Insn.Jlt -> f_jlt_ri
          | Insn.Jle -> f_jle_ri
          | Insn.Jsgt -> f_jsgt_ri
          | Insn.Jsge -> f_jsge_ri
          | Insn.Jslt -> f_jslt_ri
          | Insn.Jsle -> f_jsle_ri
          | Insn.Jset -> f_jset_ri
        in
        set o dst (Int32.to_int v) (target i off)
      | Insn.Call id -> set f_call id 0 0
      | Insn.Exit -> set f_exit 0 0 0
      | Insn.Alu64 _ | Insn.Alu32 _ | Insn.Ld_imm64 _ | Insn.Ldx _
      | Insn.Stx _ | Insn.St _ | Insn.Jcond _ ->
        set f_trap_badreg 0 0 0)
    prog;
  { ops; pool = Buffer.to_bytes pool }

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

(* 32-bit ALU keyed by [alu_op_index], for the generic 32-bit ALU
   opcodes of the linked form (the only instruction class that keeps a
   secondary dispatch — pluglet arithmetic is overwhelmingly 64-bit). *)
let[@inline always] alu32_seti regb dst opi a b =
  let a32 = Int64.to_int32 a and b32 = Int64.to_int32 b in
  let open Int32 in
  match opi with
  | 0 -> zx32 regb dst (add a32 b32)
  | 1 -> zx32 regb dst (sub a32 b32)
  | 2 -> zx32 regb dst (mul a32 b32)
  | 3 -> zx32 regb dst (if b32 = 0l then 0l else unsigned_div a32 b32)
  | 9 -> zx32 regb dst (if b32 = 0l then a32 else unsigned_rem a32 b32)
  | 4 -> zx32 regb dst (logor a32 b32)
  | 5 -> zx32 regb dst (logand a32 b32)
  | 10 -> zx32 regb dst (logxor a32 b32)
  | 6 -> zx32 regb dst (shift_left a32 (Int32.to_int (logand b32 31l)))
  | 7 ->
    zx32 regb dst (shift_right_logical a32 (Int32.to_int (logand b32 31l)))
  | 12 -> zx32 regb dst (shift_right a32 (Int32.to_int (logand b32 31l)))
  | 11 -> zx32 regb dst b32
  | _ -> zx32 regb dst (neg a32) (* 8, Neg *)

(* Region resolution for the JIT's monitored accesses: the stack is
   always window 1 (pluglet locals, the dominant traffic), then the
   last-hit memo, then the dense table via [region_at]. *)
let[@inline always] region_for vm addr len =
  let w = Int64.to_int (Int64.shift_right_logical addr window_bits) in
  if w = 1 then vm.stack
  else if vm.last_region.window = w then vm.last_region
  else region_at vm addr len

let ro_violation len addr r =
  raise
    (Memory_violation
       (Printf.sprintf "write of %d bytes at 0x%Lx in read-only region %s"
          len addr r.rname))

(* Unchecked multi-byte accessors. The stdlib's [Bytes.get_int64_le]
   family are plain functions, so without cross-module inlining every
   memory instruction would pay a call and box its result; these compile
   to single loads/stores. Bounds are checked by the callers below, and
   [Sys.big_endian] platforms fall back to the (slow, correct) stdlib
   accessors so the little-endian guest byte order is preserved. *)
external bytes_get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external bytes_get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bytes_set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external bytes_set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* One monitor + accessor per access size, matching the size-specialised
   linked opcodes: region lookup, bounds check, then a straight-line
   load/store with nothing left to dispatch on. *)
let[@inline always] load8_fast vm addr =
  let r = region_for vm addr 1 in
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if 1 > r.rlen - off then out_of_region 1 addr;
  let off = r.roff + off in
  Int64.of_int (Char.code (Bytes.unsafe_get r.mem off))

let[@inline always] load16_fast vm addr =
  let r = region_for vm addr 2 in
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if 2 > r.rlen - off then out_of_region 2 addr;
  let off = r.roff + off in
  if Sys.big_endian then Int64.of_int (Bytes.get_uint16_le r.mem off)
  else Int64.of_int (bytes_get16u r.mem off)

let[@inline always] load32_fast vm addr =
  let r = region_for vm addr 4 in
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if 4 > r.rlen - off then out_of_region 4 addr;
  let off = r.roff + off in
  if Sys.big_endian then
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le r.mem off)) 0xffffffffL
  else Int64.logand (Int64.of_int32 (bytes_get32u r.mem off)) 0xffffffffL

let[@inline always] load64_fast vm addr =
  let r = region_for vm addr 8 in
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if 8 > r.rlen - off then out_of_region 8 addr;
  let off = r.roff + off in
  if Sys.big_endian then Bytes.get_int64_le r.mem off
  else bytes_get64 r.mem off

let[@inline always] store8_fast vm addr v =
  let r = region_for vm addr 1 in
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if 1 > r.rlen - off then out_of_region 1 addr;
  let off = r.roff + off in
  if r.perm == Ro then ro_violation 1 addr r;
  if r == vm.stack && off < vm.stack_lo then vm.stack_lo <- off;
  Bytes.unsafe_set r.mem off (Char.unsafe_chr (Int64.to_int v land 0xff))

let[@inline always] store16_fast vm addr v =
  let r = region_for vm addr 2 in
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if 2 > r.rlen - off then out_of_region 2 addr;
  let off = r.roff + off in
  if r.perm == Ro then ro_violation 2 addr r;
  if r == vm.stack && off < vm.stack_lo then vm.stack_lo <- off;
  if Sys.big_endian then Bytes.set_uint16_le r.mem off (Int64.to_int v land 0xffff)
  else bytes_set16u r.mem off (Int64.to_int v land 0xffff)

let[@inline always] store32_fast vm addr v =
  let r = region_for vm addr 4 in
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if 4 > r.rlen - off then out_of_region 4 addr;
  let off = r.roff + off in
  if r.perm == Ro then ro_violation 4 addr r;
  if r == vm.stack && off < vm.stack_lo then vm.stack_lo <- off;
  if Sys.big_endian then Bytes.set_int32_le r.mem off (Int64.to_int32 v)
  else bytes_set32u r.mem off (Int64.to_int32 v)

let[@inline always] store64_fast vm addr v =
  let r = region_for vm addr 8 in
  let off = Int64.to_int (Int64.logand addr 0xffff_ffffL) in
  if 8 > r.rlen - off then out_of_region 8 addr;
  let off = r.roff + off in
  if r.perm == Ro then ro_violation 8 addr r;
  if r == vm.stack && off < vm.stack_lo then vm.stack_lo <- off;
  if Sys.big_endian then Bytes.set_int64_le r.mem off v
  else bytes_set64 r.mem off v

(* Stack-window fast path for the JIT's memory closures. Pluglet locals
   dominate memory traffic, the stack is mapped at window 1 for the whole
   VM lifetime, and an in-bounds stack access cannot trap — so it needs
   neither the region record nor an [executed] sync. The whole
   window-plus-bounds test is one subtraction and one unsigned compare:
   [d = addr - stack_base] is below [lim = stack length - access size + 1]
   (precomputed per size at compile time, clamped at 0) exactly when the
   access lies inside the stack; any other window under- or overflows the
   unsigned range. Everything else — other windows, out-of-bounds
   offsets, big-endian hosts — drops to the monitored [*_fast] path
   above, syncing [vm.executed] first because it may raise.
   ([Sys.big_endian] folds to a constant, so the check is free.) *)
let[@inline always] load8_m vm stk lim execd addr =
  let d = Int64.sub addr region_alignment in
  if ucmp d lim < 0 then
    Int64.of_int (Char.code (Bytes.unsafe_get stk (Int64.to_int d)))
  else begin
    vm.executed <- execd;
    load8_fast vm addr
  end

let[@inline always] load16_m vm stk lim execd addr =
  let d = Int64.sub addr region_alignment in
  if (not Sys.big_endian) && ucmp d lim < 0 then
    Int64.of_int (bytes_get16u stk (Int64.to_int d))
  else begin
    vm.executed <- execd;
    load16_fast vm addr
  end

let[@inline always] load32_m vm stk lim execd addr =
  let d = Int64.sub addr region_alignment in
  if (not Sys.big_endian) && ucmp d lim < 0 then
    Int64.logand (Int64.of_int32 (bytes_get32u stk (Int64.to_int d))) 0xffffffffL
  else begin
    vm.executed <- execd;
    load32_fast vm addr
  end

let[@inline always] load64_m vm stk lim execd addr =
  let d = Int64.sub addr region_alignment in
  if (not Sys.big_endian) && ucmp d lim < 0 then
    bytes_get64 stk (Int64.to_int d)
  else begin
    vm.executed <- execd;
    load64_fast vm addr
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
    store8_fast vm addr v
  end

let[@inline always] store16_m vm stk lim execd addr v =
  let d = Int64.sub addr region_alignment in
  if (not Sys.big_endian) && ucmp d lim < 0 then
    bytes_set16u stk (stack_write vm d) (Int64.to_int v land 0xffff)
  else begin
    vm.executed <- execd;
    store16_fast vm addr v
  end

let[@inline always] store32_m vm stk lim execd addr v =
  let d = Int64.sub addr region_alignment in
  if (not Sys.big_endian) && ucmp d lim < 0 then
    bytes_set32u stk (stack_write vm d) (Int64.to_int32 v)
  else begin
    vm.executed <- execd;
    store32_fast vm addr v
  end

let[@inline always] store64_m vm stk lim execd addr v =
  let d = Int64.sub addr region_alignment in
  if (not Sys.big_endian) && ucmp d lim < 0 then
    bytes_set64 stk (stack_write vm d) v
  else begin
    vm.executed <- execd;
    store64_fast vm addr v
  end

(* ------------------------------------------------------------------ *)
(* Closure-template JIT                                                *)
(* ------------------------------------------------------------------ *)

(* The program's basic blocks are translated, once, into a graph of OCaml
   closures of type [jit_env -> int64]: each instruction becomes one
   closure specialised to its opcode and operand kinds, holding its
   operands in its environment, and control threads by tail-calling the
   next closure directly — no fetch, no decode, no dispatch table.
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
    let { ops; pool } = link prog in
    let n = Array.length prog in
    let ss = stack_size in
    let fpv = Int64.add region_alignment (Int64.of_int ss) in
    (* If no instruction anywhere writes r10, fp is the compile-time
       constant [fpv] for the whole run, so fp-relative accesses with
       statically in-bounds offsets compile to direct stack bytes ops —
       the bounds check is hoisted all the way to compile time. The
       verifier rejects fp writes, so every admitted pluglet qualifies;
       the conservative whole-program scan keeps unverified programs
       (which [run] accepts) correct. *)
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
    (* The lowest stack offset a stack-direct store writes: [run_jit]
       lowers the VM's stack mark to it. *)
    let jlow = ref ss in
    let direct_store soff len =
      let ok = soff >= 0 && soff + len <= ss in
      if ok && soff < !jlow then jlow := soff;
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
      let mark t = if t >= 0 then leader.(t) <- true in
      let o = ops.(4 * i) in
      if o = f_ja then begin
        leader.(i + 1) <- true;
        mark ops.((4 * i) + 1)
      end
      else if o >= f_jeq_rr && o <= f_jset_ri then begin
        leader.(i + 1) <- true;
        mark ops.((4 * i) + 3)
      end
      else if o = f_exit then leader.(i + 1) <- true
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
    (* One closure per instruction, specialised on the linked
       opcode. [ci = stop - i] reconstructs [executed] where it is
       observable; [next] is the successor closure. *)
    let ins i ci (next : jit_env -> int64) : jit_env -> int64 =
      let a1 = ops.((4 * i) + 1)
      and a2 = ops.((4 * i) + 2)
      and a3 = ops.((4 * i) + 3) in
      match ops.(4 * i) with
      | 0 (* add64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.add (rget rb a1) (rget rb a2));
          next env
      | 1 (* add64_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.add (rget rb a1) ib);
          next env
      | 2 (* sub64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.sub (rget rb a1) (rget rb a2));
          next env
      | 3 (* sub64_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.sub (rget rb a1) ib);
          next env
      | 4 (* mul64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.mul (rget rb a1) (rget rb a2));
          next env
      | 5 (* mul64_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.mul (rget rb a1) ib);
          next env
      | 6 (* div64_rr *) ->
        fun env ->
          let rb = env.jregb in
          let b = rget rb a2 in
          rset rb a1 (if Int64.equal b 0L then 0L else udiv64 (rget rb a1) b);
          next env
      | 7 (* div64_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (if a2 = 0 then 0L else udiv64 (rget rb a1) ib);
          next env
      | 8 (* mov64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1 (rget rb a2);
          next env
      | 9 (* mov64_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          rset env.jregb a1 ib;
          next env
      | 10 (* or64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.logor (rget rb a1) (rget rb a2));
          next env
      | 11 (* or64_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.logor (rget rb a1) ib);
          next env
      | 12 (* and64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.logand (rget rb a1) (rget rb a2));
          next env
      | 13 (* and64_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.logand (rget rb a1) ib);
          next env
      | 14 (* xor64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.logxor (rget rb a1) (rget rb a2));
          next env
      | 15 (* xor64_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.logxor (rget rb a1) ib);
          next env
      | 16 (* lsh64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1
            (Int64.shift_left (rget rb a1)
               (Int64.to_int (Int64.logand (rget rb a2) 63L)));
          next env
      | 17 (* lsh64_ri *) ->
        let sh = a2 land 63 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.shift_left (rget rb a1) sh);
          next env
      | 18 (* rsh64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1
            (Int64.shift_right_logical (rget rb a1)
               (Int64.to_int (Int64.logand (rget rb a2) 63L)));
          next env
      | 19 (* rsh64_ri *) ->
        let sh = a2 land 63 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.shift_right_logical (rget rb a1) sh);
          next env
      | 20 (* arsh64_rr *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1
            (Int64.shift_right (rget rb a1)
               (Int64.to_int (Int64.logand (rget rb a2) 63L)));
          next env
      | 21 (* arsh64_ri *) ->
        let sh = a2 land 63 in
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.shift_right (rget rb a1) sh);
          next env
      | 22 (* mod64_rr *) ->
        fun env ->
          let rb = env.jregb in
          let b = rget rb a2 in
          let a = rget rb a1 in
          rset rb a1 (if Int64.equal b 0L then a else urem64 a b);
          next env
      | 23 (* mod64_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          let rb = env.jregb in
          let a = rget rb a1 in
          rset rb a1 (if a2 = 0 then a else urem64 a ib);
          next env
      | 24 (* neg64 *) ->
        fun env ->
          let rb = env.jregb in
          rset rb a1 (Int64.neg (rget rb a1));
          next env
      | 25 (* alu32_rr *) ->
        fun env ->
          let rb = env.jregb in
          alu32_seti rb a1 a3 (rget rb a1) (rget rb a2);
          next env
      | 26 (* alu32_ri *) ->
        let ib = Int64.of_int a2 in
        fun env ->
          let rb = env.jregb in
          alu32_seti rb a1 a3 (rget rb a1) ib;
          next env
      | 27 (* ld_imm64 *) ->
        let v = bytes_get64 pool a2 in
        fun env ->
          rset env.jregb a1 v;
          next env
      | 28 (* ldx8: a1=dst a2=src a3=off *) ->
        if a2 = 10 && not fp_written then begin
          let soff = ss + a3 in
          if soff >= 0 && soff + 1 <= ss then
            fun env ->
              rset env.jregb a1
                (Int64.of_int (Char.code (Bytes.unsafe_get env.jstk soff)));
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a3) in
            fun env ->
              rset env.jregb a1
                (load8_m env.jvm env.jstk lim1 (env.jk - env.jfuel - ci) addr);
              next env
        end
        else
          let off = Int64.of_int a3 in
          fun env ->
            let rb = env.jregb in
            rset rb a1
              (load8_m env.jvm env.jstk lim1
                 (env.jk - env.jfuel - ci)
                 (Int64.add (rget rb a2) off));
            next env
      | 29 (* ldx16 *) ->
        if a2 = 10 && not fp_written then begin
          let soff = ss + a3 in
          if soff >= 0 && soff + 2 <= ss then
            fun env ->
              rset env.jregb a1 (Int64.of_int (bytes_get16u env.jstk soff));
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a3) in
            fun env ->
              rset env.jregb a1
                (load16_m env.jvm env.jstk lim2 (env.jk - env.jfuel - ci) addr);
              next env
        end
        else
          let off = Int64.of_int a3 in
          fun env ->
            let rb = env.jregb in
            rset rb a1
              (load16_m env.jvm env.jstk lim2
                 (env.jk - env.jfuel - ci)
                 (Int64.add (rget rb a2) off));
            next env
      | 30 (* ldx32 *) ->
        if a2 = 10 && not fp_written then begin
          let soff = ss + a3 in
          if soff >= 0 && soff + 4 <= ss then
            fun env ->
              rset env.jregb a1
                (Int64.logand
                   (Int64.of_int32 (bytes_get32u env.jstk soff))
                   0xffffffffL);
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a3) in
            fun env ->
              rset env.jregb a1
                (load32_m env.jvm env.jstk lim4 (env.jk - env.jfuel - ci) addr);
              next env
        end
        else
          let off = Int64.of_int a3 in
          fun env ->
            let rb = env.jregb in
            rset rb a1
              (load32_m env.jvm env.jstk lim4
                 (env.jk - env.jfuel - ci)
                 (Int64.add (rget rb a2) off));
            next env
      | 31 (* ldx64 *) ->
        if a2 = 10 && not fp_written then begin
          let soff = ss + a3 in
          if soff >= 0 && soff + 8 <= ss then
            fun env ->
              rset env.jregb a1 (bytes_get64 env.jstk soff);
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a3) in
            fun env ->
              rset env.jregb a1
                (load64_m env.jvm env.jstk lim8 (env.jk - env.jfuel - ci) addr);
              next env
        end
        else
          let off = Int64.of_int a3 in
          fun env ->
            let rb = env.jregb in
            rset rb a1
              (load64_m env.jvm env.jstk lim8
                 (env.jk - env.jfuel - ci)
                 (Int64.add (rget rb a2) off));
            next env
      | 32 (* stx8: a1=dst a2=off a3=src *) ->
        if a1 = 10 && not fp_written then begin
          let soff = ss + a2 in
          if direct_store soff 1 then
            fun env ->
              Bytes.unsafe_set env.jstk soff
                (Char.unsafe_chr (Int64.to_int (rget env.jregb a3) land 0xff));
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a2) in
            fun env ->
              store8_m env.jvm env.jstk lim1
                (env.jk - env.jfuel - ci)
                addr (rget env.jregb a3);
              next env
        end
        else
          let off = Int64.of_int a2 in
          fun env ->
            let rb = env.jregb in
            store8_m env.jvm env.jstk lim1
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb a1) off)
              (rget rb a3);
            next env
      | 33 (* stx16 *) ->
        if a1 = 10 && not fp_written then begin
          let soff = ss + a2 in
          if direct_store soff 2 then
            fun env ->
              bytes_set16u env.jstk soff
                (Int64.to_int (rget env.jregb a3) land 0xffff);
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a2) in
            fun env ->
              store16_m env.jvm env.jstk lim2
                (env.jk - env.jfuel - ci)
                addr (rget env.jregb a3);
              next env
        end
        else
          let off = Int64.of_int a2 in
          fun env ->
            let rb = env.jregb in
            store16_m env.jvm env.jstk lim2
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb a1) off)
              (rget rb a3);
            next env
      | 34 (* stx32 *) ->
        if a1 = 10 && not fp_written then begin
          let soff = ss + a2 in
          if direct_store soff 4 then
            fun env ->
              bytes_set32u env.jstk soff (Int64.to_int32 (rget env.jregb a3));
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a2) in
            fun env ->
              store32_m env.jvm env.jstk lim4
                (env.jk - env.jfuel - ci)
                addr (rget env.jregb a3);
              next env
        end
        else
          let off = Int64.of_int a2 in
          fun env ->
            let rb = env.jregb in
            store32_m env.jvm env.jstk lim4
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb a1) off)
              (rget rb a3);
            next env
      | 35 (* stx64 *) ->
        if a1 = 10 && not fp_written then begin
          let soff = ss + a2 in
          if direct_store soff 8 then
            fun env ->
              bytes_set64 env.jstk soff (rget env.jregb a3);
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a2) in
            fun env ->
              store64_m env.jvm env.jstk lim8
                (env.jk - env.jfuel - ci)
                addr (rget env.jregb a3);
              next env
        end
        else
          let off = Int64.of_int a2 in
          fun env ->
            let rb = env.jregb in
            store64_m env.jvm env.jstk lim8
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb a1) off)
              (rget rb a3);
            next env
      | 36 (* st8: a1=dst a2=off a3=imm *) ->
        let v = Int64.of_int a3 in
        if a1 = 10 && not fp_written then begin
          let soff = ss + a2 in
          if direct_store soff 1 then
            let c = Char.unsafe_chr (a3 land 0xff) in
            fun env ->
              Bytes.unsafe_set env.jstk soff c;
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a2) in
            fun env ->
              store8_m env.jvm env.jstk lim1
                (env.jk - env.jfuel - ci)
                addr v;
              next env
        end
        else
          let off = Int64.of_int a2 in
          fun env ->
            let rb = env.jregb in
            store8_m env.jvm env.jstk lim1
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb a1) off)
              v;
            next env
      | 37 (* st16 *) ->
        let v = Int64.of_int a3 in
        if a1 = 10 && not fp_written then begin
          let soff = ss + a2 in
          if direct_store soff 2 then
            let iv = a3 land 0xffff in
            fun env ->
              bytes_set16u env.jstk soff iv;
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a2) in
            fun env ->
              store16_m env.jvm env.jstk lim2
                (env.jk - env.jfuel - ci)
                addr v;
              next env
        end
        else
          let off = Int64.of_int a2 in
          fun env ->
            let rb = env.jregb in
            store16_m env.jvm env.jstk lim2
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb a1) off)
              v;
            next env
      | 38 (* st32 *) ->
        let v = Int64.of_int a3 in
        if a1 = 10 && not fp_written then begin
          let soff = ss + a2 in
          if direct_store soff 4 then
            let iv = Int64.to_int32 v in
            fun env ->
              bytes_set32u env.jstk soff iv;
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a2) in
            fun env ->
              store32_m env.jvm env.jstk lim4
                (env.jk - env.jfuel - ci)
                addr v;
              next env
        end
        else
          let off = Int64.of_int a2 in
          fun env ->
            let rb = env.jregb in
            store32_m env.jvm env.jstk lim4
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb a1) off)
              v;
            next env
      | 39 (* st64 *) ->
        let v = Int64.of_int a3 in
        if a1 = 10 && not fp_written then begin
          let soff = ss + a2 in
          if direct_store soff 8 then
            fun env ->
              bytes_set64 env.jstk soff v;
              next env
          else
            let addr = Int64.add fpv (Int64.of_int a2) in
            fun env ->
              store64_m env.jvm env.jstk lim8
                (env.jk - env.jfuel - ci)
                addr v;
              next env
        end
        else
          let off = Int64.of_int a2 in
          fun env ->
            let rb = env.jregb in
            store64_m env.jvm env.jstk lim8
              (env.jk - env.jfuel - ci)
              (Int64.add (rget rb a1) off)
              v;
            next env
      | 40 (* ja *) ->
        if a1 < 0 then deopt i ci
        else
          let tb = blk_id.(a1) in
          fun env -> (Array.unsafe_get cells tb) env
      | 63 (* call *) ->
        fun env ->
          let vm = env.jvm in
          vm.executed <- env.jk - env.jfuel - ci;
          let h = vm.helpers in
          (match
             (if a1 >= 0 && a1 < Array.length h.fns then h.fns.(a1) else None)
           with
          | None ->
            raise (Helper_failure (Printf.sprintf "helper %d missing" a1))
          | Some f ->
            (* r0 starts at 0: a helper that writes nothing returns 0 *)
            let rb = env.jregb in
            rset rb 0 0L;
            f vm;
            (* r1-r5 are clobbered by calls, per the eBPF convention. *)
            Bytes.fill rb 8 40 '\000');
          next env
      | 64 (* exit *) ->
        fun env ->
          env.jvm.executed <- env.jk - env.jfuel - ci;
          rget env.jregb 0
      | o when o >= f_jeq_rr && o <= f_jset_ri ->
        (* Conditional jumps close the block: both arms dispatch through
           [cells]. An invalid taken-target deoptimizes unconditionally —
           the reference loop re-evaluates the condition and traps (or falls
           through) with exact semantics. *)
        let fb = blk_id.(i + 1) in
        if a3 < 0 then deopt i ci
        else begin
          let tb = blk_id.(a3) in
          let ib = Int64.of_int a2 in
          match o with
          | 41 ->
            fun env ->
              let rb = env.jregb in
              if Int64.equal (rget rb a1) (rget rb a2) then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 42 ->
            fun env ->
              let rb = env.jregb in
              if Int64.equal (rget rb a1) ib then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 43 ->
            fun env ->
              let rb = env.jregb in
              if not (Int64.equal (rget rb a1) (rget rb a2)) then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 44 ->
            fun env ->
              let rb = env.jregb in
              if not (Int64.equal (rget rb a1) ib) then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 45 ->
            fun env ->
              let rb = env.jregb in
              if ucmp (rget rb a1) (rget rb a2) > 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 46 ->
            fun env ->
              let rb = env.jregb in
              if ucmp (rget rb a1) ib > 0 then (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 47 ->
            fun env ->
              let rb = env.jregb in
              if ucmp (rget rb a1) (rget rb a2) >= 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 48 ->
            fun env ->
              let rb = env.jregb in
              if ucmp (rget rb a1) ib >= 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 49 ->
            fun env ->
              let rb = env.jregb in
              if ucmp (rget rb a1) (rget rb a2) < 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 50 ->
            fun env ->
              let rb = env.jregb in
              if ucmp (rget rb a1) ib < 0 then (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 51 ->
            fun env ->
              let rb = env.jregb in
              if ucmp (rget rb a1) (rget rb a2) <= 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 52 ->
            fun env ->
              let rb = env.jregb in
              if ucmp (rget rb a1) ib <= 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 53 ->
            fun env ->
              let rb = env.jregb in
              if Int64.compare (rget rb a1) (rget rb a2) > 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 54 ->
            fun env ->
              let rb = env.jregb in
              if Int64.compare (rget rb a1) ib > 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 55 ->
            fun env ->
              let rb = env.jregb in
              if Int64.compare (rget rb a1) (rget rb a2) >= 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 56 ->
            fun env ->
              let rb = env.jregb in
              if Int64.compare (rget rb a1) ib >= 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 57 ->
            fun env ->
              let rb = env.jregb in
              if Int64.compare (rget rb a1) (rget rb a2) < 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 58 ->
            fun env ->
              let rb = env.jregb in
              if Int64.compare (rget rb a1) ib < 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 59 ->
            fun env ->
              let rb = env.jregb in
              if Int64.compare (rget rb a1) (rget rb a2) <= 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 60 ->
            fun env ->
              let rb = env.jregb in
              if Int64.compare (rget rb a1) ib <= 0 then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | 61 ->
            fun env ->
              let rb = env.jregb in
              if not (Int64.equal (Int64.logand (rget rb a1) (rget rb a2)) 0L)
              then (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
          | _ (* 62, jset_ri *) ->
            fun env ->
              let rb = env.jregb in
              if not (Int64.equal (Int64.logand (rget rb a1) ib) 0L) then
                (Array.unsafe_get cells tb) env
              else (Array.unsafe_get cells fb) env
        end
      | _ (* trap_badreg and anything unspecialised *) -> deopt i ci
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
