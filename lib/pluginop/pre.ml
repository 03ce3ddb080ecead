(* Pluglet Runtime Environment (Section 2.1): one per inserted pluglet.
   Each PRE owns its registers and stack (a fresh [Ebpf.Vm]); its heap
   points to the area shared by all pluglets of the plugin. Every VM maps
   its stack at the same window and the heap is the first region mapped
   after it, so heap pointers have the same value in every PRE of the
   instance. The admission pipeline — decode, static verification, closure
   JIT — runs here, once per distinct bytecode; per-packet execution then
   runs the jitted program with no setup work, and runtime memory
   monitoring lives in the VM. Caching instances (Section 2.5) therefore
   caches the compiled programs too, which is what keeps plugin reload
   cheap. *)

exception Rejected of string

type t = {
  plugin_name : string;
  op : Protoop.id;
  param : int option;
  anchor : Protoop.anchor;
  prog : Ebpf.Insn.t array;
  jit : Ebpf.Vm.jit_prog;
  vm : Ebpf.Vm.t;
  heap_base : int64;
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

let admit prog stack_size =
  let key = Plugin.code_key prog stack_size in
  match Hashtbl.find_opt program_cache key with
  | Some master ->
    incr cache_hits;
    Ebpf.Vm.jit_clone master
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
    Ebpf.Vm.jit_clone master

(* Verify, jit and instantiate (through the program cache). [heap]
   is the plugin's shared memory area. *)
let create ~plugin_name ~(pluglet : Plugin.pluglet) ~heap =
  let prog, stack_size = Plugin.compiled pluglet in
  let jit = admit prog stack_size in
  let vm = Ebpf.Vm.create ~stack_size () in
  let heap_region = Ebpf.Vm.map_region vm ~name:"plugin_heap" ~perm:Ebpf.Vm.Rw heap in
  {
    plugin_name;
    op = pluglet.op;
    param = pluglet.param;
    anchor = pluglet.anchor;
    prog;
    jit;
    vm;
    heap_base = heap_region.Ebpf.Vm.base;
  }

let register_helper ?arity t id f = Ebpf.Vm.register_helper ?arity t.vm id f

(* Translate a plugin-heap offset to the address pluglets see. *)
let heap_addr t off = Int64.add t.heap_base (Int64.of_int off)

let heap_offset t addr = Int64.to_int (Int64.sub addr t.heap_base)

(* The per-packet fast path. In-engine a protoop dispatch arrives with
   cold caches — the engine touches packets, frame tables and timers
   between execs — so per-exec cost is dominated by reloading the VM's
   run state, not by the tier's hot ns/insn. *)
let run t ~args = Ebpf.Vm.run_jit t.vm ~args t.jit

let executed_insns t = Ebpf.Vm.executed t.vm
