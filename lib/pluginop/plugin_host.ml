(* Plugin lifecycle on a host connection: building instances (PREs
   verified and compiled) and attaching them to the protoop registry.
   Removal and the sanction live in [Dispatch], which runs the pluglets
   that trap. Transport-neutral — the over-the-connection plugin exchange
   and negotiation of Section 3.4 are wire-format business and stay with
   the transport (lib/core for PQUIC). *)

open Types

(* Fresh per-connection plugin state: an empty registry, whose dense
   array and operation stack [Dispatch] allocates on first use. *)
let create_state ~host () =
  {
    host;
    builtin_ops = [||];
    ops = Hashtbl.create 16;
    op_stack = [||];
    op_sp = 0;
    plugins = Hashtbl.create 4;
    plugin_order = [];
    vm_args = Array.make 5 0L;
  }

(* Registry introspection without exposing the state record's fields. *)
let has_plugin st name = Hashtbl.mem st.plugins name
let find_plugin st name = Hashtbl.find_opt st.plugins name
let plugin_names st = st.plugin_order

(* ------------------------------------------------------------------ *)
(* Plugin injection                                                    *)
(* ------------------------------------------------------------------ *)

exception Injection_failed of string

let plugin_heap_size = 256 * 1024

(* A plugin made ready to instantiate: every pluglet compiled, keyed,
   verified and jitted once (through the PREs' content-addressed program
   cache). The host keeps it beside the available plugin, so building
   another instance — another connection — compiles and hashes nothing. *)
type template = { plugin : Plugin.t; programs : Pre.program list }

let prepare (plugin : Plugin.t) =
  { plugin; programs = List.map Pre.admit plugin.Plugin.pluglets }

(* A fresh instance of a template: one run environment per pluglet over a
   shared heap that starts small and grows with the plugin's allocations
   (see [Memory_pool]). Attaching the instance to a connection
   (including re-attaching a cached instance, the Section 2.5 reload fast
   path) only wipes the heap and binds helpers — the jitted programs are
   reused as-is. *)
let build_instance tpl =
  let pool = Memory_pool.create ~size:plugin_heap_size () in
  let heap = Memory_pool.area pool in
  let plugin_name = tpl.plugin.Plugin.name in
  {
    plugin = tpl.plugin;
    pool;
    heap;
    pres = List.map (fun p -> Pre.instantiate ~plugin_name p ~heap) tpl.programs;
    opaque = Int_tbl.create 8;
  }

(* Attach a built instance to this connection. Rolls the whole plugin back
   if a replace anchor is already taken (Section 2.2). *)
let attach_instance st c (inst : _ instance) =
  let name = inst.plugin.Plugin.name in
  if Hashtbl.mem st.plugins name then
    raise (Injection_failed (name ^ " already injected"));
  Memory_pool.reset inst.pool;
  Host_api.sync_heap inst;
  Int_tbl.reset inst.opaque;
  Host_api.bind_helpers st c inst;
  (try
     List.iter
       (fun pre ->
         let e = Dispatch.entry st pre.Pre.op pre.Pre.param in
         match pre.Pre.anchor with
         | Protoop.Replace -> (
           match e.replace with
           | Some (Pluglet other) ->
             raise
               (Injection_failed
                  (Printf.sprintf
                     "replace anchor for %s already taken by plugin %s"
                     (Protoop.name pre.Pre.op) other.Pre.plugin_name))
           | _ -> e.replace <- Some (Pluglet pre))
         | Protoop.External -> e.ext <- Some (Pluglet pre)
         | Protoop.Pre -> e.pre <- Pluglet pre :: e.pre
         | Protoop.Post -> e.post <- Pluglet pre :: e.post)
       inst.pres
   with Injection_failed _ as e ->
     Dispatch.unhook st name;
     raise e);
  Hashtbl.replace st.plugins name inst;
  st.plugin_order <- st.plugin_order @ [ name ];
  ignore (Dispatch.run_op st c Protoop.plugin_injected [||]);
  inst

let inject_plugin st c plugin =
  try
    let inst = build_instance (prepare plugin) in
    ignore (attach_instance st c inst);
    Ok ()
  with
  | Injection_failed msg -> Error msg
  | Pre.Rejected msg -> Error ("verifier rejected pluglet: " ^ msg)
  | Plc.Compile.Error msg -> Error ("pluglet compilation failed: " ^ msg)
