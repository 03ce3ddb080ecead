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
    List.iter (fun pre -> Ebpf.Vm.set_heap pre.Pre.vm area) inst.pres
  end

(* Build the instance's helper table for connection [c] and point every
   PRE at it. Only the heap helpers need a PRE's view, and the heap sits
   at the same base in all of them. Helpers read their arguments straight
   from the VM's registers and write r0 there ([Vm.arg], [Vm.ret]); the
   int forms box nothing, and [h_get] alone runs a dozen times per
   received packet. *)
let bind_helpers st c inst =
  let module V = Ebpf.Vm in
  let tbl = V.helper_table () in
  (* heap addresses as ints: the heap's window base is far below 2^62 *)
  let heap_base_i = to_i V.heap_base in
  let reg id f = V.add_helper tbl id f in
  reg Api.h_get (fun vm ->
      V.ret vm (st.host.get_field c (V.arg_int vm 1) (V.arg_int vm 2)));
  reg Api.h_set (fun vm ->
      set_field st c (V.arg_int vm 1) (V.arg_int vm 2) (V.arg vm 3));
  reg Api.h_pl_malloc (fun vm ->
      match Memory_pool.alloc inst.pool (V.arg_int vm 1) with
      | Some off ->
        sync_heap inst;
        V.ret_int vm (heap_base_i + off)
      | None -> ());
  reg Api.h_pl_free (fun vm ->
      let off = V.arg_int vm 1 - heap_base_i in
      if off < 0 || off > Memory_pool.size inst.pool then
        helper_fail "address 0x%Lx outside plugin memory" (V.arg vm 1);
      if not (Memory_pool.free inst.pool off) then
        helper_fail "pl_free: invalid address 0x%Lx" (V.arg vm 1));
  reg Api.h_get_opaque_data (fun vm ->
      let id = V.arg_int vm 1 and size = V.arg_int vm 2 in
      match Int_tbl.find inst.opaque id with
      | off -> V.ret_int vm (heap_base_i + off)
      | exception Not_found -> (
        match Memory_pool.alloc inst.pool size with
        | Some off ->
          sync_heap inst;
          (* opaque areas start zeroed even when the pool recycles blocks *)
          Bytes.fill inst.heap off size '\000';
          Int_tbl.replace inst.opaque id off;
          V.ret_int vm (heap_base_i + off)
        | None -> ()));
  reg Api.h_pl_memcpy (fun vm ->
      let len = V.arg_int vm 3 in
      if len < 0 || len > 65536 then helper_fail "pl_memcpy: bad length %d" len;
      (* same monitor checks, no staging copy; Bytes.blit is overlap-safe,
         matching the read-everything-then-write semantics of the old
         snapshot path *)
      let src, soff = V.direct vm ~write:false (V.arg vm 2) len in
      let dst, doff = V.direct vm ~write:true (V.arg vm 1) len in
      Bytes.blit src soff dst doff len);
  reg Api.h_pl_memset (fun vm ->
      let len = V.arg_int vm 3 in
      if len < 0 || len > 65536 then helper_fail "pl_memset: bad length %d" len;
      V.fill_bytes vm (V.arg vm 1) len (Char.chr (V.arg_int vm 2 land 0xff)));
  reg Api.h_run_protoop (fun vm ->
      let op = V.arg_int vm 1 in
      let p = V.arg vm 2 in
      let param = if p < 0L then None else Some (to_i p) in
      if not (Dispatch.param_in_range param) then
        helper_fail "run_protoop: param 0x%Lx out of range" p;
      V.ret vm
        (Dispatch.run_op st c op ?param
           [| I (V.arg vm 3); I (V.arg vm 4); I (V.arg vm 5) |]));
  reg Api.h_get_time (fun vm -> V.ret vm (st.host.now c));
  reg Api.h_push_message (fun vm ->
      let len = V.arg_int vm 2 in
      if len < 0 || len > 65536 then helper_fail "push_message: bad length %d" len;
      let b, off = V.direct vm ~write:false (V.arg vm 1) len in
      st.host.push_message c (Bytes.sub_string b off len));
  reg Api.h_pl_log (fun vm ->
      let x = V.arg vm 1 and y = V.arg vm 2 in
      Log.debug (fun m -> m "[plugin %s] %Ld %Ld" inst.plugin.Plugin.name x y));
  reg Api.h_sent_time (fun vm -> V.ret vm (st.host.sent_time c (V.arg vm 1)));
  reg Api.h_cmp_bytes (fun vm ->
      let len = V.arg_int vm 3 in
      if len < 0 || len > 65536 then helper_fail "cmp_bytes: bad length %d" len;
      let x, xo = V.direct vm ~write:false (V.arg vm 1) len in
      let y, yo = V.direct vm ~write:false (V.arg vm 2) len in
      let k = ref 0 in
      while !k < len && Bytes.get x (xo + !k) = Bytes.get y (yo + !k) do
        incr k
      done;
      if !k <> len then V.ret_int vm 1);
  reg Api.h_gf256_mulvec (fun vm ->
      (* dst ^= coef * src over len bytes *)
      let len = V.arg_int vm 4 in
      if len < 0 || len > 65536 then helper_fail "gf256_mulvec: bad length %d" len;
      let coef = V.arg_int vm 3 land 0xff in
      let dst, doff = V.direct vm ~write:true (V.arg vm 1) len in
      let src, soff = V.direct vm ~write:false (V.arg vm 2) len in
      if dst == src && soff < doff + len && doff < soff + len && soff <> doff
      then begin
        (* partially overlapping vectors in one region: snapshot the source
           to keep the read-all-then-write semantics of the copying path *)
        let s = Bytes.sub src soff len in
        Gf.mulvec_off ~coef ~src:s ~soff:0 ~dst ~doff ~len
      end
      else Gf.mulvec_off ~coef ~src ~soff ~dst ~doff ~len);
  reg Api.h_gf256_scalevec (fun vm ->
      let len = V.arg_int vm 3 in
      if len < 0 || len > 65536 then helper_fail "gf256_scalevec: bad length %d" len;
      let coef = V.arg_int vm 2 land 0xff in
      let dst, off = V.direct vm ~write:true (V.arg vm 1) len in
      for k = off to off + len - 1 do
        Bytes.set_uint8 dst k (Gf.mul coef (Bytes.get_uint8 dst k))
      done);
  reg Api.h_gf256_mul (fun vm ->
      V.ret_int vm (Gf.mul (V.arg_int vm 1 land 0xff) (V.arg_int vm 2 land 0xff)));
  reg Api.h_gf256_inv (fun vm -> V.ret_int vm (Gf.inv (V.arg_int vm 1 land 0xff)));
  reg Api.h_rng_coef (fun vm ->
      V.ret_int vm
        (Gf.rlc_coef ~seed:(V.arg vm 1) ~sid:(V.arg vm 2) ~row:(V.arg_int vm 3)));
  st.host.install_extra_helpers c inst tbl;
  List.iter (fun pre -> V.set_helpers pre.Pre.vm tbl) inst.pres
