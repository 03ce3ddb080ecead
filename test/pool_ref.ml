(* Reference model for [Pluginop.Memory_pool]: the same bitmap allocator
   over a backing allocated at full size up front, as the pool was before
   its backing grew on demand. The model test in test_pquic.ml drives it
   and the real pool with the same operations: offsets, exhaustion and
   contents must agree. *)

type t = {
  area : Bytes.t;
  block_size : int;
  nblocks : int;
  used : Bytes.t; (* one byte per block: 0 free, 1 head, 2 cont *)
  mutable free_hint : int;
  mutable allocated_blocks : int;
}

let create ?(block_size = 64) ~size () =
  let nblocks = size / block_size in
  {
    area = Bytes.make (nblocks * block_size) '\000';
    block_size;
    nblocks;
    used = Bytes.make nblocks '\000';
    free_hint = 0;
    allocated_blocks = 0;
  }

let area t = t.area

let find_run t need =
  let n = t.nblocks in
  let rec scan start tried =
    if tried >= n then None
    else
      let start = if start + need > n then 0 else start in
      if start + need > n then None
      else
        let k = ref 0 in
        while !k < need && Bytes.get t.used (start + !k) = '\000' do
          incr k
        done;
        if !k = need then Some start
        else scan (start + !k + 1) (tried + !k + 1)
  in
  scan t.free_hint 0

let alloc t len =
  if len <= 0 then None
  else
    let need = (len + t.block_size - 1) / t.block_size in
    match find_run t need with
    | None -> None
    | Some start ->
      Bytes.set t.used start '\001';
      Bytes.fill t.used (start + 1) (need - 1) '\002';
      t.free_hint <- start + need;
      t.allocated_blocks <- t.allocated_blocks + need;
      Some (start * t.block_size)

let free t off =
  if off < 0 || off mod t.block_size <> 0 then false
  else
    let start = off / t.block_size in
    if start >= t.nblocks || Bytes.get t.used start <> '\001' then false
    else begin
      let k = ref (start + 1) in
      while !k < t.nblocks && Bytes.get t.used !k = '\002' do
        incr k
      done;
      Bytes.fill t.used start (!k - start) '\000';
      t.allocated_blocks <- t.allocated_blocks - (!k - start);
      true
    end

let reset t =
  Bytes.fill t.area 0 (Bytes.length t.area) '\000';
  Bytes.fill t.used 0 t.nblocks '\000';
  t.free_hint <- 0;
  t.allocated_blocks <- 0

let allocated_bytes t = t.allocated_blocks * t.block_size
