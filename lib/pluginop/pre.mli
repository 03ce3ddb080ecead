(** Pluglet Runtime Environment (Section 2.1): one per inserted pluglet.

    Each PRE owns its registers and stack (a fresh {!Ebpf.Vm}); its heap
    points to the area shared by all pluglets of the plugin, at window 2
    of every VM's fixed memory map, so heap pointers have the same value
    ({!Ebpf.Vm.heap_base} + offset) in every PRE of an instance. The
    admission pipeline — compile if needed, static verification, closure
    JIT — runs in {!admit}, once per pluglet of a plugin template: a
    content-addressed program cache shares the compiled program between
    identical pluglets process-wide. {!instantiate} then builds a PRE
    from an admitted program by creating its run environment only. {!run}
    executes the program with no per-call setup, and runtime memory
    monitoring lives in the VM. *)

exception Rejected of string
(** The verifier refused the bytecode: the whole plugin is rejected. *)

type t = {
  plugin_name : string;
  op : Protoop.id;
  param : int option;
  anchor : Protoop.anchor;
  jit : Ebpf.Vm.jit_prog;
    (** compiled once per distinct bytecode (content-addressed cache) *)
  vm : Ebpf.Vm.t;
}

type program
(** One pluglet, compiled, verified and jitted: a plugin template holds one
    per pluglet. *)

val admit : Plugin.pluglet -> program
(** Compile (PLC source), key and admit a pluglet through the program
    cache. Counts one cache hit or miss.
    @raise Rejected when verification fails
    @raise Plc.Compile.Error when source compilation fails *)

val instantiate : plugin_name:string -> program -> heap:Bytes.t -> t
(** A fresh PRE running the program, with [heap] mapped as the plugin
    heap. The first PRE built from an admission is the one {!admit}
    counted; each further one counts a cache hit, as re-admitting the same
    bytecode would. *)

type cache_counters = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

val cache_counters : unit -> cache_counters
(** Full counters of the node-scope program cache: [hits] PREs served from
    cache (no compilation), [misses] full verify+jit compilations,
    [evictions] entries dropped by the FIFO bound of 4096 entries. *)

val run : t -> args:int64 array -> int64
(** Execute the pluglet's jitted program on its VM (the per-packet fast
    path). *)

val executed_insns : t -> int
