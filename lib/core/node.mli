(** Node-scope plugin machinery, shared by every endpoint of a host.

    Owns the local cache of available plugins and the cross-connection
    instance (PRE) cache of Section 2.5. Historically both lived
    per-[Endpoint]; lifting them to node scope means a host with many
    listening endpoints — or a server engine with sharded accept paths —
    verifies, compiles and instantiates each distinct plugin once, and
    recycled instances are reusable by any connection on the node. The
    compiled-program layer below this (bytecode digest → verified + jitted
    program, see {!Pluginop.Pre.cache_counters}) is process-global already; this
    module adds the template layer (plugin name → its admitted programs,
    so building an instance compiles and hashes nothing) and the instance
    layer (plugin name → wiped, reusable instances) with hit/miss/evict
    accounting. *)

type available = {
  plugin : Pluginop.Plugin.t;
  mutable template : Pluginop.Plugin_host.template option;
      (** every pluglet compiled and admitted once, on the first
          {!acquire_instance} that has to build an instance *)
}

type t = {
  available : (string, available) Hashtbl.t;
  instances : (string, Connection.instance Queue.t) Hashtbl.t;
      (** recycled instances by plugin name, ready for re-attachment *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

val create : unit -> t
(** A node caching at most 256 wiped instances per plugin. *)

val add_plugin : t -> Pluginop.Plugin.t -> unit
val has_plugin : t -> string -> bool
val find_plugin : t -> string -> Pluginop.Plugin.t option
val supported_plugins : t -> string list

val acquire_instance : t -> string -> Connection.instance option
(** Fetch an injectable instance: a cached one when available (no
    verification, no compilation — the Section 2.5 fast path), otherwise
    a fresh build from the plugin's template, which the first such build
    prepares. A plugin that fails verification or compilation is logged
    and yields [None]. *)

val release : t -> Connection.instance list -> unit
(** Take back the instances a connection acquired, when it closes (the
    endpoint's [owner.closed]); the node wipes each on its next
    attachment. Failed connections return none, so a misbehaving
    plugin's PREs are discarded. At most 256 are kept per plugin; the
    rest count as evictions. *)

type counters = { hits : int; misses : int; evictions : int; cached : int }

val counters : t -> counters
