(* Protocol-operation dispatch (Section 2.2), generic over the host.

   Every step of a pluginized connection workflow funnels through
   [run_op]: pre anchors, then the replace anchor (pluglet override or
   built-in behaviour), then post anchors. [run_op] sits on every packet's
   hot path, so the built-in unparameterized operations resolve through a
   dense array indexed by protoop id — no hashing, no allocation on the
   lookup. Parameterized operations (frame types) and plugin-registered
   ids go through the hashtable. [run_op] only reads the registry; on a
   connection without plugins an operation nothing hooks is a plain call
   of its built-in behaviour.

   Each function takes the host-side plugin state [st] and the opaque
   connection handle [c]; the two travel together (the transport keeps
   [st] inside its connection record). This module is the whole protoop
   surface: hosts call it on their state directly. *)

open Types

let is_builtin op param = param = None && op >= 0 && op < Protoop.first_plugin_op

(* Operation parameters are frame types, which a plugin manifest carries
   as u16 ({!Plugin.deserialize}). A larger one — a frame type a peer
   chose off the wire — names no entry. *)
let max_param = 0xffff

let param_in_range = function Some p -> p >= 0 && p <= max_param | None -> true

(* The (op, param) pair packed into one immediate int — shared by the
   running-operation stack and the hashed registry (see {!Types.state}).
   Injective only for params up to [max_param]: [find_entry] resolves no
   larger one, and the hosts reject larger frame types before they reach
   the op stack. *)
let stack_key op param =
  (op lsl 21) lor (match param with None -> 0 | Some p -> p + 1)

let find_entry st op param =
  if is_builtin op param then
    if op < Array.length st.builtin_ops then st.builtin_ops.(op) else None
  else if param_in_range param then Hashtbl.find_opt st.ops (stack_key op param)
  else None

(* Get or create the entry for (op, param): only attaching a plugin and
   [register_native] call this, never dispatch. *)
let entry st op param =
  match find_entry st op param with
  | Some e -> e
  | None ->
    if not (param_in_range param) then
      invalid_arg "Dispatch.entry: param outside the u16 frame-type range";
    let e = { replace = None; pre = []; post = []; ext = None } in
    if is_builtin op param then begin
      if Array.length st.builtin_ops = 0 then
        st.builtin_ops <- Array.make Protoop.first_plugin_op None;
      st.builtin_ops.(op) <- Some e
    end
    else Hashtbl.replace st.ops (stack_key op param) e;
    e

let has_entry st op param = find_entry st op param <> None

(* The entry serving (op, param): the parameterized one, else the
   operation's unparameterized entry. *)
let lookup st op param =
  match (param, find_entry st op param) with
  | Some _, None -> find_entry st op None
  | _, e -> e

(* Whether (op, param) sits on the running-operation stack. Hosts use this
   to avoid re-dispatching an operation from within itself — e.g. a
   FEC-recovered packet replaying a frame of the very type whose handler
   triggered the recovery — which [run_op] would sanction as a loop.

   Stack frames are int-encoded ([stack_key]) so pushing and scanning
   allocate nothing. *)
let on_stack st key =
  let rec scan i = i >= 0 && (st.op_stack.(i) = key || scan (i - 1)) in
  scan (st.op_sp - 1)

let is_running st op param = on_stack st (stack_key op param)

let iter_entries st f =
  Array.iter (function Some e -> f e | None -> ()) st.builtin_ops;
  Hashtbl.iter (fun _ e -> f e) st.ops

let register_native st op name fn =
  (entry st op None).replace <- Some (Native (name, fn))

(* Introspection used by hosts and tests: the registry shape without
   exposing the record fields. *)
let builtin_capacity st = Array.length st.builtin_ops
let hashed_entries st = Hashtbl.length st.ops

(* Called when the stack is full: allocate it, at its full depth of 256
   (see {!Types.state}), on a connection's first tracked operation;
   false once it is allocated, when the push overflows. *)
let grow_stack st =
  if Array.length st.op_stack > 0 then false
  else begin
    st.op_stack <- Array.make 256 0;
    true
  end

(* Region names for pluglet argument buffers, precomputed: this runs on
   every protoop invocation, and protoops take at most five arguments. *)
let arg_region_names = [| "arg0"; "arg1"; "arg2"; "arg3"; "arg4" |]

(* Execute one pluglet implementation with the given arguments. Buffers are
   mapped into the PRE for the duration of the call; pre/post pluglets get
   read-only views (the paper grants passive pluglets no write access).
   [View] arguments map a read-only sub-view of a host buffer — the
   zero-copy path for wire-borrowed frame bodies. The whole marshalling
   path is imperative and allocation-free apart from the region records
   themselves: this runs several times per received packet. Up to five
   arguments marshal through the connection's [st.vm_args] scratch (see
   {!Types.state}); unused slots are zeroed so the registers end up
   exactly as a right-sized vector would leave them. *)
let exec_pluglet st pre ~read_only (args : arg array) =
  let vm = pre.Pre.vm in
  let mark = Ebpf.Vm.rid_mark vm in
  let n = Array.length args in
  let vargs =
    if n <= Array.length st.vm_args then st.vm_args else Array.make n 0L
  in
  let nregions = ref 0 in
  match
    for i = 0 to n - 1 do
      (match args.(i) with
      | I v -> vargs.(i) <- v
      | Buf (b, perm) ->
        let perm =
          if read_only then Ebpf.Vm.Ro
          else match perm with `Ro -> Ebpf.Vm.Ro | `Rw -> Ebpf.Vm.Rw
        in
        let name =
          if !nregions < Array.length arg_region_names then
            arg_region_names.(!nregions)
          else "arg" ^ string_of_int !nregions
        in
        let r =
          Ebpf.Vm.map_sub vm ~name ~perm b ~off:0 ~len:(Bytes.length b)
        in
        vargs.(i) <- r.Ebpf.Vm.base;
        incr nregions
      | View (b, off, len) ->
        let name =
          if !nregions < Array.length arg_region_names then
            arg_region_names.(!nregions)
          else "arg" ^ string_of_int !nregions
        in
        let r = Ebpf.Vm.map_sub vm ~name ~perm:Ebpf.Vm.Ro b ~off ~len in
        vargs.(i) <- r.Ebpf.Vm.base;
        incr nregions)
    done;
    for i = n to Array.length vargs - 1 do
      vargs.(i) <- 0L
    done;
    Pre.run pre ~args:vargs
  with
  | v ->
    Ebpf.Vm.unmap_above vm mark;
    Ok v
  | exception Ebpf.Vm.Memory_violation msg ->
    Ebpf.Vm.unmap_above vm mark;
    Error ("memory violation: " ^ msg)
  | exception Ebpf.Vm.Fuel_exhausted ->
    Ebpf.Vm.unmap_above vm mark;
    Error "instruction budget exhausted"
  | exception Ebpf.Vm.Helper_failure msg ->
    Ebpf.Vm.unmap_above vm mark;
    Error ("API violation: " ^ msg)
  | exception e ->
    Ebpf.Vm.unmap_above vm mark;
    raise e

(* Take a plugin's pluglets off every anchor. An entry this leaves empty
   leaves the registry too, so its operation is a plain call again once
   no plugin is attached. Removal and the rollback of a refused attach
   both go through here. *)
let unhook st name =
  let keep = function
    | Pluglet pre -> pre.Pre.plugin_name <> name
    | Native _ -> true
  in
  let strip e =
    (match e.replace with Some i when not (keep i) -> e.replace <- None | _ -> ());
    (match e.ext with Some i when not (keep i) -> e.ext <- None | _ -> ());
    e.pre <- List.filter keep e.pre;
    e.post <- List.filter keep e.post;
    match e with
    | { replace = None; pre = []; post = []; ext = None } -> None
    | e -> Some e
  in
  Array.iteri
    (fun op -> function
      | Some e -> st.builtin_ops.(op) <- strip e
      | None -> ())
    st.builtin_ops;
  Hashtbl.filter_map_inplace (fun _ e -> strip e) st.ops

(* Remove a plugin from the connection. The paper's sanction for a
   misbehaving pluglet is the removal of its plugin and the termination
   of the connection. The transport cleans up its own side (e.g. PQUIC
   drops the plugin's scheduler reservations) through [on_detach]. *)
let remove_plugin st c name =
  if Hashtbl.mem st.plugins name then begin
    Hashtbl.remove st.plugins name;
    st.plugin_order <- List.filter (fun n -> n <> name) st.plugin_order;
    st.host.on_detach c name;
    unhook st name
  end

let kill_plugin st c name reason =
  Log.warn (fun m -> m "killing plugin %s: %s" name reason);
  st.host.on_sanction c;
  remove_plugin st c name;
  st.host.fail c (Printf.sprintf "plugin %s misbehaved: %s" name reason)

let run_impl st c impl ~read_only args =
  match impl with
  | Native (_, fn) -> fn c args
  | Pluglet pre -> (
    match exec_pluglet st pre ~read_only args with
    | Ok v -> v
    | Error reason ->
      kill_plugin st c pre.Pre.plugin_name reason;
      0L)

(* Run the replace anchor. A native implementation (or none) is the plain
   path. A trapping pluglet must not leave the operation half-done: its
   writable argument buffers are rolled back to their pre-call contents
   and the built-in behaviour serves the operation — the connection state
   stays coherent — before the existing sanction (plugin removal,
   connection failure) fires. *)
let run_replace st c e ~default args =
  match e.replace with
  | None -> default c args
  | Some (Native (_, fn)) -> fn c args
  | Some (Pluglet pre) -> (
    let saved =
      Array.map
        (function Buf (b, `Rw) -> Some (Bytes.copy b) | _ -> None)
        args
    in
    match exec_pluglet st pre ~read_only:false args with
    | Ok v -> v
    | Error reason ->
      Array.iteri
        (fun i s ->
          match (s, args.(i)) with
          | Some copy, Buf (b, `Rw) ->
            Bytes.blit copy 0 b 0 (Bytes.length b)
          | _ -> ())
        saved;
      st.host.on_fallback c;
      Log.warn (fun m ->
          m "pluglet %s trapped (%s): state rolled back, builtin serves the op"
            pre.Pre.plugin_name reason);
      let v = default c args in
      kill_plugin st c pre.Pre.plugin_name reason;
      v)

(* Pre/post anchor lists are stored most-recently-attached first; the
   anchors run in attachment order, i.e. reversed — walked recursively so
   the common empty/singleton cases build no intermediate list. *)
let rec run_anchors st c impls args =
  match impls with
  | [] -> ()
  | [ i ] -> ignore (run_impl st c i ~read_only:true args)
  | i :: rest ->
    run_anchors st c rest args;
    ignore (run_impl st c i ~read_only:true args)

(* Run a protocol operation: pre anchors, then the replace anchor (pluglet
   override or built-in behaviour), then post anchors. On a connection
   without plugins, an operation with no entry is a plain call of
   [default]. Otherwise every operation, hooked or not, is tracked on the
   stack of running operations, so a pluglet re-entering a running
   operation — a loop in the call graph (Fig. 3) — terminates the
   connection, and [is_running] sees every running operation. *)
let run_op st c op ?param ?(default = fun _ _ -> 0L) (args : arg array) =
  match (lookup st op param, st.plugin_order) with
  | None, [] -> default c args
  | e, _ ->
    let key = stack_key op param in
    if on_stack st key then begin
      st.host.fail c
        (Printf.sprintf "protocol operation loop detected on %s"
           (Protoop.name op));
      0L
    end
    else if st.op_sp >= Array.length st.op_stack && not (grow_stack st)
    then begin
      st.host.fail c "protocol operation stack overflow";
      0L
    end
    else begin
      st.op_stack.(st.op_sp) <- key;
      st.op_sp <- st.op_sp + 1;
      let result =
        match e with
        | None -> default c args
        | Some e ->
          run_anchors st c e.pre args;
          let v = run_replace st c e ~default args in
          run_anchors st c e.post args;
          v
      in
      st.op_sp <- st.op_sp - 1;
      result
    end

(* Call a plugin-defined external operation (Section 2.4): only the
   application may invoke these. *)
let call_external st c op (args : arg array) =
  match find_entry st op None with
  | Some { ext = Some impl; _ } -> Some (run_impl st c impl ~read_only:false args)
  | _ -> None
