(* The PRE↔host boundary (Section 2.3), transport-neutral half: the Table 1
   helper implementations every host shares, bound once per attach into
   one table that every PRE of the instance calls. Getters and setters
   abstract the connection internals from pluglets: bytecode never
   hard-codes structure offsets, and the host monitors (and refuses)
   access to specific fields.

   Field access funnels through the HOST record ([Types.host]); what a
   field *means* is the transport's business, but the id space, the
   writable-field policy and the sanction for violating it are fixed here
   so the same bytecode sees the same contract on every host. Helpers a
   transport owns outright (frame reservation, packet access, path
   creation) arrive through [install_extra_helpers]. *)

open Types

let to_i = Int64.to_int
let i64 = Int64.of_int
let helper_fail fmt = Fmt.kstr (fun s -> raise (Ebpf.Vm.Helper_failure s)) fmt

(* The generic setter: the writable-field policy check lives here, above
   the transport, so read-only enforcement is identical on every host. *)
let set_field st c field index value =
  if not (List.mem field Api.writable_fields) then
    raise
      (Ebpf.Vm.Helper_failure (Printf.sprintf "set: field %d is read-only" field));
  st.host.set_field c field index value

(* Point the instance's PREs at the pool's current backing after an
   allocation: one physical compare unless the allocation grew it. *)
let sync_heap inst =
  let area = Memory_pool.area inst.pool in
  if area != inst.heap then begin
    inst.heap <- area;
    List.iter (fun pre -> Pre.remap_heap pre area) inst.pres
  end

(* Build the instance's helper table for connection [c] and point every
   PRE at it. Only the heap helpers need a PRE's view, and the heap sits
   at the same base in all of them. *)
let bind_helpers st c inst =
  let tbl = Ebpf.Vm.helper_table () in
  let heap_base =
    match inst.pres with pre :: _ -> Pre.heap_base pre | [] -> 0L
  in
  let heap_addr off = Int64.add heap_base (i64 off) in
  let heap_off vm_addr =
    let off = to_i (Int64.sub vm_addr heap_base) in
    if off < 0 || off > Memory_pool.size inst.pool then
      helper_fail "address 0x%Lx outside plugin memory" vm_addr;
    off
  in
  (* [arity] declares how many argument registers each helper reads, so
     the call opcode skips boxing the registers the helper ignores —
     [h_get] alone runs a dozen times per received packet. *)
  let reg ?arity id f = Ebpf.Vm.add_helper ?arity tbl id f in
  reg ~arity:2 Api.h_get (fun _ a ->
      st.host.get_field c (to_i a.(0)) (to_i a.(1)));
  reg ~arity:3 Api.h_set (fun _ a ->
      set_field st c (to_i a.(0)) (to_i a.(1)) a.(2);
      0L);
  reg ~arity:1 Api.h_pl_malloc (fun _ a ->
      match Memory_pool.alloc inst.pool (to_i a.(0)) with
      | Some off ->
        sync_heap inst;
        heap_addr off
      | None -> 0L);
  reg ~arity:1 Api.h_pl_free (fun _ a ->
      if Memory_pool.free inst.pool (heap_off a.(0)) then 0L
      else helper_fail "pl_free: invalid address 0x%Lx" a.(0));
  reg ~arity:2 Api.h_get_opaque_data (fun _ a ->
      let id = to_i a.(0) and size = to_i a.(1) in
      match Hashtbl.find_opt inst.opaque id with
      | Some off -> heap_addr off
      | None -> (
        match Memory_pool.alloc inst.pool size with
        | Some off ->
          sync_heap inst;
          (* opaque areas start zeroed even when the pool recycles blocks *)
          Bytes.fill inst.heap off size '\000';
          Hashtbl.replace inst.opaque id off;
          heap_addr off
        | None -> 0L));
  reg ~arity:3 Api.h_pl_memcpy (fun vm a ->
      let len = to_i a.(2) in
      if len < 0 || len > 65536 then helper_fail "pl_memcpy: bad length %d" len;
      (* same monitor checks, no staging copy; Bytes.blit is overlap-safe,
         matching the read-everything-then-write semantics of the old
         snapshot path *)
      let src, soff = Ebpf.Vm.direct vm ~write:false a.(1) len in
      let dst, doff = Ebpf.Vm.direct vm ~write:true a.(0) len in
      Bytes.blit src soff dst doff len;
      0L);
  reg ~arity:3 Api.h_pl_memset (fun vm a ->
      let len = to_i a.(2) in
      if len < 0 || len > 65536 then helper_fail "pl_memset: bad length %d" len;
      Ebpf.Vm.fill_bytes vm a.(0) len (Char.chr (to_i a.(1) land 0xff));
      0L);
  reg ~arity:5 Api.h_run_protoop (fun _ a ->
      let op = to_i a.(0) in
      let param = if a.(1) < 0L then None else Some (to_i a.(1)) in
      if not (Dispatch.param_in_range param) then
        helper_fail "run_protoop: param 0x%Lx out of range" a.(1);
      Dispatch.run_op st c op ?param [| I a.(2); I a.(3); I a.(4) |]);
  reg ~arity:0 Api.h_get_time (fun _ _ -> st.host.now c);
  reg ~arity:2 Api.h_push_message (fun vm a ->
      let len = to_i a.(1) in
      if len < 0 || len > 65536 then helper_fail "push_message: bad length %d" len;
      let b, off = Ebpf.Vm.direct vm ~write:false a.(0) len in
      st.host.push_message c (Bytes.sub_string b off len);
      0L);
  reg ~arity:2 Api.h_pl_log (fun _ a ->
      Log.debug (fun m ->
          m "[plugin %s] %Ld %Ld" inst.plugin.Plugin.name a.(0) a.(1));
      0L);
  reg ~arity:1 Api.h_sent_time (fun _ a -> st.host.sent_time c a.(0));
  reg ~arity:3 Api.h_cmp_bytes (fun vm a ->
      let len = to_i a.(2) in
      if len < 0 || len > 65536 then helper_fail "cmp_bytes: bad length %d" len;
      let x, xo = Ebpf.Vm.direct vm ~write:false a.(0) len in
      let y, yo = Ebpf.Vm.direct vm ~write:false a.(1) len in
      let k = ref 0 in
      while !k < len && Bytes.get x (xo + !k) = Bytes.get y (yo + !k) do
        incr k
      done;
      if !k = len then 0L else 1L);
  reg ~arity:4 Api.h_gf256_mulvec (fun vm a ->
      (* dst ^= coef * src over len bytes *)
      let len = to_i a.(3) in
      if len < 0 || len > 65536 then helper_fail "gf256_mulvec: bad length %d" len;
      let coef = to_i a.(2) land 0xff in
      let dst, doff = Ebpf.Vm.direct vm ~write:true a.(0) len in
      let src, soff = Ebpf.Vm.direct vm ~write:false a.(1) len in
      if dst == src && soff < doff + len && doff < soff + len && soff <> doff
      then begin
        (* partially overlapping vectors in one region: snapshot the source
           to keep the read-all-then-write semantics of the copying path *)
        let s = Bytes.sub src soff len in
        Gf.mulvec_off ~coef ~src:s ~soff:0 ~dst ~doff ~len
      end
      else Gf.mulvec_off ~coef ~src ~soff ~dst ~doff ~len;
      0L);
  reg ~arity:3 Api.h_gf256_scalevec (fun vm a ->
      let len = to_i a.(2) in
      if len < 0 || len > 65536 then helper_fail "gf256_scalevec: bad length %d" len;
      let coef = to_i a.(1) land 0xff in
      let dst, off = Ebpf.Vm.direct vm ~write:true a.(0) len in
      for k = off to off + len - 1 do
        Bytes.set_uint8 dst k (Gf.mul coef (Bytes.get_uint8 dst k))
      done;
      0L);
  reg ~arity:2 Api.h_gf256_mul (fun _ a ->
      i64 (Gf.mul (to_i a.(0) land 0xff) (to_i a.(1) land 0xff)));
  reg ~arity:1 Api.h_gf256_inv (fun _ a -> i64 (Gf.inv (to_i a.(0) land 0xff)));
  reg ~arity:3 Api.h_rng_coef (fun _ a ->
      i64 (Gf.rlc_coef ~seed:a.(0) ~sid:a.(1) ~row:(to_i a.(2))));
  st.host.install_extra_helpers c inst tbl;
  List.iter (fun pre -> Ebpf.Vm.set_helpers pre.Pre.vm tbl) inst.pres
