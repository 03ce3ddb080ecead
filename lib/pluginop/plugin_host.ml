(* Plugin lifecycle on a host connection: building instances (PREs
   verified and compiled), attaching them to the protoop registry, and
   sanctioning misbehaving plugins. Transport-neutral — the
   over-the-connection plugin exchange and negotiation of Section 3.4 are
   wire-format business and stay with the transport (lib/core for PQUIC). *)

open Types

(* Remove a plugin's pluglets from the registry. The paper's sanction for
   a misbehaving pluglet is the removal of its plugin and the termination
   of the connection. The transport cleans up its own side (e.g. PQUIC
   drops the plugin's scheduler reservations) through [on_detach]. *)
let remove_plugin st c name =
  match Hashtbl.find_opt st.plugins name with
  | None -> ()
  | Some inst ->
    inst.bound <- None;
    Hashtbl.remove st.plugins name;
    st.plugin_order <- List.filter (fun n -> n <> name) st.plugin_order;
    st.host.on_detach c name;
    let belongs = function
      | Pluglet pre -> pre.Pre.plugin_name = name
      | Native _ -> false
    in
    Dispatch.iter_entries st
      (fun e ->
        (match e.replace with Some i when belongs i -> e.replace <- None | _ -> ());
        (match e.ext with Some i when belongs i -> e.ext <- None | _ -> ());
        e.pre <- List.filter (fun i -> not (belongs i)) e.pre;
        e.post <- List.filter (fun i -> not (belongs i)) e.post)

let kill_plugin st c name reason =
  Log.warn (fun m -> m "killing plugin %s: %s" name reason);
  st.host.on_sanction c;
  remove_plugin st c name;
  st.host.fail c (Printf.sprintf "plugin %s misbehaved: %s" name reason)

(* Fresh per-connection plugin state. [Dispatch] sanctions through
   [st.kill], bound here: removal lives above dispatch in the module
   graph. *)
let create_state ~host () =
  let st =
    {
      host;
      builtin_ops = Array.make Protoop.first_plugin_op None;
      ops = Hashtbl.create 16;
      op_stack = Array.make 256 0;
      op_sp = 0;
      plugins = Hashtbl.create 4;
      plugin_order = [];
      kill = (fun _ _ _ -> ());
    }
  in
  st.kill <- (fun c name reason -> kill_plugin st c name reason);
  st

(* Registry introspection without exposing the state record's fields. *)
let has_plugin st name = Hashtbl.mem st.plugins name
let find_plugin st name = Hashtbl.find_opt st.plugins name
let plugin_names st = st.plugin_order
let plugin_count st = Hashtbl.length st.plugins

(* ------------------------------------------------------------------ *)
(* Plugin injection                                                    *)
(* ------------------------------------------------------------------ *)

exception Injection_failed of string

let plugin_heap_size = 256 * 1024

(* Build a fresh instance for [plugin]: every pluglet is admitted here —
   compiled, verified and jitted through the PREs'
   content-addressed program cache, so building the same bytecode again
   (another connection, a reload) reuses the compiled closures and only
   pays for fresh run environments. Attaching the instance to a
   connection (including re-attaching a cached instance, the Section 2.5
   reload fast path) only wipes the heap and rebinds helpers — the
   jitted programs are reused as-is. *)
let build_instance (plugin : Plugin.t) =
  let pool = Memory_pool.create ~size:plugin_heap_size () in
  let inst = { plugin; pool; pres = []; opaque = Hashtbl.create 8; bound = None } in
  let pres =
    List.map
      (fun pluglet ->
        Pre.create ~plugin_name:plugin.Plugin.name ~pluglet
          ~heap:(Memory_pool.area pool))
      plugin.Plugin.pluglets
  in
  inst.pres <- pres;
  inst

(* Attach a built instance to this connection. Rolls the whole plugin back
   if a replace anchor is already taken (Section 2.2). *)
let attach_instance st c inst =
  let name = inst.plugin.Plugin.name in
  if Hashtbl.mem st.plugins name then
    raise (Injection_failed (name ^ " already injected"));
  Memory_pool.reset inst.pool;
  Hashtbl.reset inst.opaque;
  inst.bound <- Some c;
  List.iter (fun pre -> Host_api.install_helpers st c inst pre) inst.pres;
  let attached = ref [] in
  let rollback () =
    List.iter
      (fun (e, pre, anchor) ->
        match (anchor : Protoop.anchor) with
        | Protoop.Replace -> e.replace <- None
        | Protoop.External -> e.ext <- None
        | Protoop.Pre -> e.pre <- List.filter (fun i -> i != Pluglet pre) e.pre
        | Protoop.Post -> e.post <- List.filter (fun i -> i != Pluglet pre) e.post)
      !attached
  in
  (try
     List.iter
       (fun pre ->
         let e = Dispatch.entry st pre.Pre.op pre.Pre.param in
         (match pre.Pre.anchor with
         | Protoop.Replace ->
           (match e.replace with
           | Some (Pluglet other) ->
             raise
               (Injection_failed
                  (Printf.sprintf
                     "replace anchor for %s already taken by plugin %s"
                     (Protoop.name pre.Pre.op) other.Pre.plugin_name))
           | _ -> e.replace <- Some (Pluglet pre))
         | Protoop.External -> e.ext <- Some (Pluglet pre)
         | Protoop.Pre -> e.pre <- Pluglet pre :: e.pre
         | Protoop.Post -> e.post <- Pluglet pre :: e.post);
         attached := (e, pre, pre.Pre.anchor) :: !attached)
       inst.pres
   with Injection_failed _ as e ->
     rollback ();
     inst.bound <- None;
     raise e);
  Hashtbl.replace st.plugins name inst;
  st.plugin_order <- st.plugin_order @ [ name ];
  ignore (Dispatch.run_op st c Protoop.plugin_injected [||]);
  inst

let inject_plugin st c plugin =
  try
    let inst = build_instance plugin in
    ignore (attach_instance st c inst);
    Ok ()
  with
  | Injection_failed msg -> Error msg
  | Pre.Rejected msg -> Error ("verifier rejected pluglet: " ^ msg)
  | Plc.Compile.Error msg -> Error ("pluglet compilation failed: " ^ msg)
