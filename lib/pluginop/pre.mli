(** Pluglet Runtime Environment (Section 2.1): one per inserted pluglet.

    Each PRE owns its registers and stack (a fresh {!Ebpf.Vm}); its heap
    points to the area shared by all pluglets of the plugin, mapped at the
    same window in every VM so heap pointers have the same value in every
    PRE of an instance. The admission pipeline — compile if needed, static
    verification, closure JIT — runs once per distinct bytecode: a
    content-addressed program cache shares the compiled program between
    identical pluglets, so re-admission only pays for a fresh run
    environment. {!run} then executes the program with no per-call setup,
    and runtime memory monitoring lives in the VM. *)

exception Rejected of string
(** The verifier refused the bytecode: the whole plugin is rejected. *)

type t = {
  plugin_name : string;
  op : Protoop.id;
  param : int option;
  anchor : Protoop.anchor;
  prog : Ebpf.Insn.t array;
  jit : Ebpf.Vm.jit_prog;
    (** compiled once per distinct bytecode (content-addressed cache) *)
  vm : Ebpf.Vm.t;
  heap_base : int64;
}

val create : plugin_name:string -> pluglet:Plugin.pluglet -> heap:Bytes.t -> t
(** @raise Rejected when verification fails
    @raise Plc.Compile.Error when source compilation fails *)

type cache_counters = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

val cache_counters : unit -> cache_counters
(** Full counters of the node-scope program cache: [hits] admissions
    served from cache, [misses] full verify+jit compilations,
    [evictions] entries dropped by the FIFO bound of 4096 entries. *)

val register_helper : ?arity:int -> t -> int -> Ebpf.Vm.helper -> unit
(** See {!Ebpf.Vm.register_helper}: [arity] declares how many argument
    registers the helper reads (default 5), trimming per-call boxing. *)

val heap_addr : t -> int -> int64
(** Translate a plugin-heap offset to the address pluglets see. *)

val heap_offset : t -> int64 -> int

val run : t -> args:int64 array -> int64
(** Execute the pluglet's jitted program on its VM (the per-packet fast
    path). *)

val executed_insns : t -> int
