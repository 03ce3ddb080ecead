(* The transport-neutral heart of the plugin machinery: every type here is
   parametric in ['c], the host's connection representation, which this
   library treats as an opaque handle. A transport turns itself into a
   plugin host by building a ['c host] record — field get/set over the
   Table 1 id space, a clock, the application message channel and the
   sanction hooks — and keeping a ['c state] (protoop registry + attached
   instances) alongside its connection. PQUIC ([lib/core]) and tcpsim
   ([lib/tcpsim]) are the two in-tree instantiations; the same bytecode
   attaches to either (the Core QUIC direction). *)

let src = Logs.Src.create "pluginop" ~doc:"transport-neutral plugin host"

module Log = (val Logs.src_log src : Logs.LOG)

(* Protoop arguments: plain integers or byte buffers. Buffers are mapped as
   VM regions for pluglet implementations; native implementations access
   the bytes directly. [View] is a read-only sub-window [off, off+len) of a
   host-owned buffer (typically the received wire datagram): it is mapped
   as an Ro sub-view region — the pluglet sees addresses 0..len with the
   exact bounds a copied slice would have had, but no copy is taken. *)
type arg =
  | I of int64
  | Buf of Bytes.t * [ `Ro | `Rw ]
  | View of Bytes.t * int * int

(* One implementation on an anchor: a host-native OCaml closure or a
   verified-and-jitted pluglet. *)
type 'c impl = Native of string * ('c -> arg array -> int64) | Pluglet of Pre.t

type 'c op_entry = {
  mutable replace : 'c impl option;
  mutable pre : 'c impl list;
  mutable post : 'c impl list;
  mutable ext : 'c impl option;
}

(* A built plugin instance: one PRE per pluglet, running the programs of
   the plugin's template; the pool is the plugin's shared heap and [heap]
   the pool backing its PREs map. The host type ['c] is a tag only:
   attaching installs helpers that close over the connection inside the
   PREs, and the instance keeps no reference to it. *)
type 'c instance = {
  plugin : Plugin.t;
  pool : Memory_pool.t;
  mutable heap : Bytes.t;
  pres : Pre.t list;
  opaque : (int, int) Hashtbl.t; (* opaque-data id -> heap offset *)
}

(* The HOST interface: everything the plugin machinery needs from a
   transport. Keep it small — the point (ROADMAP item 4, Core QUIC) is
   that a new transport only supplies these closures to run the full
   pluglet ecosystem. *)
type 'c host = {
  host_name : string;  (* for logs and the differential tests *)
  now : 'c -> int64;   (* clock, ns (get_time helper) *)
  get_field : 'c -> int -> int -> int64;
      (* Table 1 getter: field id, index (path id for path fields).
         Must raise [Ebpf.Vm.Helper_failure] on an unknown field. *)
  set_field : 'c -> int -> int -> int64 -> unit;
      (* Table 1 setter for {!Api.writable_fields}; the generic layer
         already rejects read-only fields before calling this. *)
  push_message : 'c -> string -> unit;
      (* Section 2.4 asynchronous channel to the application *)
  sent_time : 'c -> int64 -> int64; (* sent_time(pn) -> ns, or -1 *)
  fail : 'c -> string -> unit;      (* terminate the connection (sanction) *)
  on_sanction : 'c -> unit;         (* stats hook: a plugin was killed *)
  on_fallback : 'c -> unit;         (* stats hook: builtin served a trap *)
  on_detach : 'c -> string -> unit;
      (* transport-side cleanup when a plugin leaves (e.g. PQUIC drops its
         scheduler reservations); called by [Dispatch.remove_plugin] *)
  install_extra_helpers : 'c -> 'c instance -> Ebpf.Vm.helper_table -> unit;
      (* transport-specific helpers beyond the generic table (PQUIC:
         reserve_frames, packet_bytes, recover_packet, create_path), added
         to the table every PRE of the instance shares *)
}

(* Per-connection plugin state: the protoop registry and the attached
   instances. Built-in (unparameterized, id < [Protoop.first_plugin_op])
   operations dispatch through a dense array so the per-packet hot path
   never hashes; parameterized and plugin-registered ids live in the
   hashtable. Only attaching a plugin and [Dispatch.register_native]
   create entries: dispatch itself only reads the registry. *)
type 'c state = {
  host : 'c host;
  builtin_ops : 'c op_entry option array;
  ops : (int, 'c op_entry) Hashtbl.t;
  (* keyed by the same [op lsl 21 lor (param + 1)] encoding as [op_stack]
     below: an immediate int key hashes in a few instructions and the
     lookup allocates nothing, where an [(int * int option)] tuple key
     cost a 3-word allocation plus a structural hash on every dispatch *)
  (* The running-operation stack, as a preallocated int stack: each frame
     is [op lsl 21 lor (param + 1)] ([lor 0] when unparameterized). The
     encoding keeps the per-dispatch bookkeeping allocation-free — run_op
     sits on every frame of every packet. Depth is bounded by the op-graph
     loop check itself (a repeated op terminates the connection), 256 is
     far beyond any legal chain. *)
  op_stack : int array;
  mutable op_sp : int;
  plugins : (string, 'c instance) Hashtbl.t;
  mutable plugin_order : string list;
  vm_args : int64 array;
  (* Marshalling scratch for the VM argument vector. Protoops take at
     most five arguments; both run tiers copy the vector into the VM's
     registers in their prologue, before the first instruction (and so
     before any helper can re-enter dispatch), which makes one scratch per
     connection safe even when pluglets nest through run_protoop. *)
}
