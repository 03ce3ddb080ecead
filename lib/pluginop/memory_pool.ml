(* Plugin memory allocator: a fixed-size area split into constant-size
   blocks with a free list, giving Θ(1) allocation and release while
   limiting fragmentation (Section 2.3, citing Kenwright's fixed-size
   pools). Offsets returned are relative to the start of the area; the PRE
   maps the area as a region so offsets translate directly to VM
   addresses. Allocations larger than one block take contiguous blocks
   (first-fit over the bitmap — still cheap at our pool sizes).

   The bitmap always spans the full [size], so offsets and exhaustion are
   exactly those of a full-size pool. Only the backing buffer is sized by
   use: it starts at [initial_backing] bytes and doubles, up to [size],
   whenever an allocation ends beyond it. Bytes past the backing were
   never handed out since the last [reset], so they read zero in a
   full-size pool too. *)

type t = {
  mutable area : Bytes.t;      (* backing: covers every live allocation *)
  initial : Bytes.t;           (* the backing after [create] and [reset] *)
  block_size : int;
  nblocks : int;
  used : Bytes.t;              (* one byte per block: 0 free, 1 head, 2 cont *)
  mutable free_hint : int;     (* rotating search start *)
  mutable allocated_blocks : int;
}

let initial_backing = 4096

let create ?(block_size = 64) ~size () =
  let nblocks = size / block_size in
  if nblocks <= 0 then invalid_arg "Memory_pool.create";
  let initial = Bytes.make (min initial_backing (nblocks * block_size)) '\000' in
  {
    area = initial;
    initial;
    block_size;
    nblocks;
    used = Bytes.make nblocks '\000';
    free_hint = 0;
    allocated_blocks = 0;
  }

let area t = t.area
let size t = t.nblocks * t.block_size

let blocks_needed t len = (len + t.block_size - 1) / t.block_size

let is_free t i = Bytes.get t.used i = '\000'

let find_run t need =
  let n = t.nblocks in
  let rec scan start tried =
    if tried >= n then None
    else
      let start = if start + need > n then 0 else start in
      if start + need > n then None
      else begin
        let ok = ref true in
        let k = ref 0 in
        while !ok && !k < need do
          if not (is_free t (start + !k)) then ok := false else incr k
        done;
        if !ok then Some start
        else scan (start + !k + 1) (tried + !k + 1)
      end
  in
  scan t.free_hint 0

(* Double the backing until it covers [limit] bytes, keeping its contents. *)
let grow t limit =
  let len = ref (Bytes.length t.area) in
  while !len < limit do
    len := 2 * !len
  done;
  let bigger = Bytes.make (min !len (size t)) '\000' in
  Bytes.blit t.area 0 bigger 0 (Bytes.length t.area);
  t.area <- bigger

(* Allocate [len] bytes; returns the byte offset in the area, or None when
   the pool is exhausted — which only hurts the plugin itself. *)
let alloc t len =
  if len <= 0 then None
  else
    let need = blocks_needed t len in
    match find_run t need with
    | None -> None
    | Some start ->
      Bytes.set t.used start '\001';
      for k = 1 to need - 1 do
        Bytes.set t.used (start + k) '\002'
      done;
      t.free_hint <- start + need;
      t.allocated_blocks <- t.allocated_blocks + need;
      let limit = (start + need) * t.block_size in
      if limit > Bytes.length t.area then grow t limit;
      Some (start * t.block_size)

(* Free the allocation starting at byte offset [off]. Freeing an address
   that is not an allocation head is an error reported to the caller. *)
let free t off =
  if off < 0 || off mod t.block_size <> 0 then false
  else
    let start = off / t.block_size in
    if start >= t.nblocks || Bytes.get t.used start <> '\001' then false
    else begin
      Bytes.set t.used start '\000';
      t.allocated_blocks <- t.allocated_blocks - 1;
      let k = ref (start + 1) in
      while !k < t.nblocks && Bytes.get t.used !k = '\002' do
        Bytes.set t.used !k '\000';
        t.allocated_blocks <- t.allocated_blocks - 1;
        incr k
      done;
      true
    end

(* Wipe contents and allocation state — used when a cached plugin is reused
   on a new connection, so no information leaks between connections
   (Section 2.5). The backing drops back to the initial buffer. *)
let reset t =
  Bytes.fill t.initial 0 (Bytes.length t.initial) '\000';
  t.area <- t.initial;
  Bytes.fill t.used 0 t.nblocks '\000';
  t.free_hint <- 0;
  t.allocated_blocks <- 0

let allocated_bytes t = t.allocated_blocks * t.block_size
