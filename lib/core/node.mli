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
  mutable outstanding : (Connection.t * Connection.instance) list;
      (** instances bound to live connections, reclaimed by {!recycle} *)
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

val recycle : t -> unit
(** Reclaim instances whose connection closed; failed connections do not
    recycle (a misbehaving plugin's PREs are discarded). *)

val acquire_instance :
  t -> ?bind:Connection.t -> string -> Connection.instance option
(** Fetch an injectable instance: a cached one when available (no
    verification, no compilation — the Section 2.5 fast path), otherwise
    a fresh build from the plugin's template, which the first such build
    prepares. A plugin that fails verification or compilation is logged
    and yields [None]. With [bind] the
    instance is tracked as outstanding against that connection and
    reclaimed by {!recycle} when it closes. *)

type counters = { hits : int; misses : int; evictions : int; cached : int }

val counters : t -> counters
