(* Pluglet Runtime Environment (Section 2.1): one per inserted pluglet.
   Each PRE owns its registers and stack (a fresh [Ebpf.Vm]); its heap
   points to the area shared by all pluglets of the plugin. Every VM has
   the same fixed memory map — the heap is window 2 by construction — so
   heap pointers have the same value ([Ebpf.Vm.heap_base] + offset) in
   every PRE of the instance. The admission pipeline — compile, decode,
   static verification, closure JIT — runs in [admit], once per pluglet of a
   plugin template and once per distinct bytecode process-wide; building
   a PRE from an admitted program ([instantiate]) only creates its run
   environment. Per-packet execution then runs the jitted program with no
   setup work, and runtime memory monitoring lives in the VM. Caching
   instances (Section 2.5) therefore caches the compiled programs too,
   which is what keeps plugin reload cheap. *)

exception Rejected of string

type t = {
  plugin_name : string;
  op : Protoop.id;
  param : int option;
  anchor : Protoop.anchor;
  jit : Ebpf.Vm.jit_prog;
  vm : Ebpf.Vm.t;
}

(* Content-addressed program cache: bytecode digest + stack size
   ([Plugin.code_key]) -> the verified and jitted compilation. A hit skips
   the whole admission pipeline — verification (same bytecode, same
   verdict) and closure compilation — and shares the compiled closures via
   [Vm.jit_clone], so reloading a cached plugin or injecting the same
   pluglet on another connection only pays for a fresh run environment.
   The cache is process-global (node scope): every endpoint and every
   connection admitting the same bytecode shares one compilation.
   Bounded FIFO: entries beyond [cache_capacity] evict the oldest
   admission. *)
let program_cache : (string, Ebpf.Vm.jit_prog) Hashtbl.t = Hashtbl.create 32
let admission_order : string Queue.t = Queue.create ()
let cache_hits = ref 0
let cache_misses = ref 0
let cache_evictions = ref 0
let cache_capacity = 4096

type cache_counters = {
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
}

let cache_counters () =
  {
    entries = Hashtbl.length program_cache;
    hits = !cache_hits;
    misses = !cache_misses;
    evictions = !cache_evictions;
  }

(* One pluglet, admitted: its bytecode verified and jitted (or found in
   the program cache). A plugin template holds one per pluglet. *)
type program = {
  pluglet : Plugin.pluglet;
  stack_size : int;
  master : Ebpf.Vm.jit_prog;
  mutable unclaimed : bool;
      (* the admission's own hit or miss still stands for one PRE *)
}

let lookup_or_compile prog stack_size =
  let key = Plugin.code_key prog stack_size in
  match Hashtbl.find_opt program_cache key with
  | Some master ->
    incr cache_hits;
    master
  | None ->
    incr cache_misses;
    (match
       Ebpf.Verifier.verify ~stack_size ~known_helper:Api.is_known_helper prog
     with
    | Ok () -> ()
    | Error errs ->
      raise
        (Rejected
           (String.concat "; " (List.map Ebpf.Verifier.error_to_string errs))));
    let master = Ebpf.Vm.jit ~stack_size prog in
    while Hashtbl.length program_cache >= cache_capacity
          && not (Queue.is_empty admission_order) do
      let oldest = Queue.pop admission_order in
      if Hashtbl.mem program_cache oldest then begin
        Hashtbl.remove program_cache oldest;
        incr cache_evictions
      end
    done;
    Hashtbl.add program_cache key master;
    Queue.push key admission_order;
    master

(* Compile (PLC source), key and admit one pluglet: the only place a
   pluglet is compiled or hashed on the way to a PRE. *)
let admit (pluglet : Plugin.pluglet) =
  let prog, stack_size = Plugin.compiled pluglet in
  let master = lookup_or_compile prog stack_size in
  { pluglet; stack_size; master; unclaimed = true }

(* A fresh PRE running an admitted program, with [heap] (the plugin's
   shared memory area) as its heap. The first PRE built from an admission
   is the one its hit or miss counted; every further one counts the hit
   that re-admitting the same bytecode would have. *)
let instantiate ~plugin_name program ~heap =
  if program.unclaimed then program.unclaimed <- false else incr cache_hits;
  let vm = Ebpf.Vm.create ~stack_size:program.stack_size () in
  Ebpf.Vm.set_heap vm heap;
  {
    plugin_name;
    op = program.pluglet.op;
    param = program.pluglet.param;
    anchor = program.pluglet.anchor;
    jit = Ebpf.Vm.jit_clone program.master;
    vm;
  }

(* The per-packet fast path. In-engine a protoop dispatch arrives with
   cold caches — the engine touches packets, frame tables and timers
   between execs — so per-exec cost is dominated by reloading the VM's
   run state, not by the tier's hot ns/insn. *)
let run t ~args = Ebpf.Vm.run_jit t.vm ~args t.jit

let executed_insns t = Ebpf.Vm.executed t.vm
