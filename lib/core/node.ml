(* Node-scope plugin machinery: the available plugins with their
   templates and the cross-connection instance (PRE) cache of Section 2.5,
   shared by every endpoint created with the same node. See node.mli for
   the layering relative to the process-global compiled-program cache in
   [Pre]. *)

let src = Logs.Src.create "pquic.node"

module Log = (val Logs.src_log src : Logs.LOG)

(* An available plugin and its template, prepared on the first
   [acquire_instance] that misses the instance cache. *)
type available = {
  plugin : Pluginop.Plugin.t;
  mutable template : Pluginop.Plugin_host.template option;
}

type t = {
  available : (string, available) Hashtbl.t;
  instances : (string, Connection.instance Queue.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

(* Wiped instances cached per plugin. *)
let instance_capacity = 256

let create () =
  {
    available = Hashtbl.create 8;
    instances = Hashtbl.create 8;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let add_plugin t (plugin : Pluginop.Plugin.t) =
  Hashtbl.replace t.available plugin.Pluginop.Plugin.name
    { plugin; template = None }

let has_plugin t name = Hashtbl.mem t.available name

let find_plugin t name =
  Option.map (fun a -> a.plugin) (Hashtbl.find_opt t.available name)

let template a =
  match a.template with
  | Some tpl -> tpl
  | None ->
    let tpl = Connection.prepare a.plugin in
    a.template <- Some tpl;
    tpl

let supported_plugins t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.available []
  |> List.sort String.compare

(* Take back the instances of a closed connection (failed connections
   return none, so a misbehaving plugin's PREs are discarded). Queues are
   capacity-bounded: a churny node caches at most [instance_capacity]
   wiped instances per plugin. *)
let release t insts =
  List.iter
    (fun (inst : Connection.instance) ->
      let name = inst.plugin.Pluginop.Plugin.name in
      let q =
        match Hashtbl.find_opt t.instances name with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace t.instances name q;
          q
      in
      if Queue.length q >= instance_capacity then
        t.evictions <- t.evictions + 1
      else Queue.push inst q)
    insts

let acquire_instance t name =
  match Hashtbl.find_opt t.instances name with
  | Some q when not (Queue.is_empty q) ->
    t.hits <- t.hits + 1;
    Some (Queue.pop q)
  | _ -> (
    match Hashtbl.find_opt t.available name with
    | None -> None
    | Some a -> (
      t.misses <- t.misses + 1;
      try Some (Connection.build_instance (template a)) with
      | Pluginop.Pre.Rejected msg ->
        Log.warn (fun m -> m "plugin %s rejected: %s" name msg);
        None
      | Plc.Compile.Error msg ->
        Log.warn (fun m -> m "plugin %s failed to compile: %s" name msg);
        None))

type counters = { hits : int; misses : int; evictions : int; cached : int }

let counters (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    cached = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.instances 0;
  }
