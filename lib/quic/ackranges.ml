(* Receiver-side record of received packet numbers, kept as disjoint
   inclusive ranges sorted largest first, which is the shape ACK frames
   need. Bounded to [max_ranges] to cap frame size, dropping the oldest
   ranges — as real QUIC stacks do.

   The ranges live flat in one native [int array]: range [i] (0 = newest)
   is [pairs.(2i), pairs.(2i+1)] = (first, last). The ACK encoder reads
   them in place, so building an ACK touches neither a list nor a boxed
   [int64]. The array starts empty and doubles on demand up to
   [max_ranges] pairs: a connection that never sees a hole keeps one
   small block. *)

type t = { mutable pairs : int array; mutable count : int; max_ranges : int }

let create ?(max_ranges = 256) () =
  if max_ranges < 1 then invalid_arg "Ackranges.create";
  { pairs = [||]; count = 0; max_ranges }

let count t = t.count
let is_empty t = t.count = 0

let first t i =
  if i < 0 || i >= t.count then invalid_arg "Ackranges.first";
  Array.unsafe_get t.pairs (2 * i)

let last t i =
  if i < 0 || i >= t.count then invalid_arg "Ackranges.last";
  Array.unsafe_get t.pairs ((2 * i) + 1)

let largest t = if t.count = 0 then None else Some (Int64.of_int t.pairs.(1))

(* Room for one more range: the first range gets a 4-pair block, then
   the capacity doubles, never past [max_ranges] + 1 — the one-over slot
   [add] fills before dropping the oldest. *)
let make_room t =
  let cap = Array.length t.pairs / 2 in
  if t.count = cap then begin
    let ncap = min (max 4 (2 * cap)) (t.max_ranges + 1) in
    let np = Array.make (2 * ncap) 0 in
    Array.blit t.pairs 0 np 0 (2 * t.count);
    t.pairs <- np
  end

(* Open a new range [pn, pn] at index [i], shifting the older ones down;
   the oldest falls off when the set goes over its cap. *)
let insert_at t i pn =
  make_room t;
  let p = t.pairs in
  Array.blit p (2 * i) p ((2 * i) + 2) (2 * (t.count - i));
  p.(2 * i) <- pn;
  p.((2 * i) + 1) <- pn;
  t.count <- (if t.count = t.max_ranges then t.max_ranges else t.count + 1)

(* Insert packet number [pn], merging adjacent ranges. *)
let add t pn =
  let pn = Int64.to_int pn in
  let p = t.pairs and n = t.count in
  (* skip the ranges lying wholly above [pn] and not touching it; since
     each is at least 2 above the next, [pn] can never merge upwards *)
  let i = ref 0 in
  while !i < n && pn < Array.unsafe_get p (2 * !i) - 1 do
    incr i
  done;
  let i = !i in
  if i = n then insert_at t i pn
  else begin
    let first = p.(2 * i) and last = p.((2 * i) + 1) in
    if pn > last + 1 then insert_at t i pn
    else if pn = last + 1 then p.((2 * i) + 1) <- pn
    else if pn >= first then () (* duplicate *)
    else if i + 1 < n && p.((2 * i) + 3) + 1 = pn then begin
      (* [pn] = first - 1 closes the hole to the next range: fuse them *)
      p.(2 * i) <- p.((2 * i) + 2);
      Array.blit p ((2 * i) + 4) p ((2 * i) + 2) (2 * (n - i - 2));
      t.count <- n - 1
    end
    else p.(2 * i) <- pn
  end

(* Ranges are descending: skip those lying wholly above [pn]; the first
   one reaching down to it holds it or leaves it in the hole above. *)
let contains t pn =
  let pn = Int64.to_int pn and p = t.pairs in
  let i = ref 0 in
  while !i < t.count && pn < Array.unsafe_get p (2 * !i) do
    incr i
  done;
  !i < t.count && pn <= Array.unsafe_get p ((2 * !i) + 1)

(* Total count of packet numbers covered. *)
let cardinal t =
  let n = ref 0 in
  for i = 0 to t.count - 1 do
    n := !n + t.pairs.((2 * i) + 1) - t.pairs.(2 * i) + 1
  done;
  !n

(* Structural invariant check, for chaos/invariant harnesses: ranges must
   be well-formed (first <= last), strictly descending and non-adjacent
   (adjacent ranges should have been merged by [add]). Returns an error
   description instead of raising so a sweep can report the seed. *)
let check_coherent t =
  let p = t.pairs in
  let rec go i =
    if i >= t.count then Ok ()
    else
      let first = p.(2 * i) and last = p.((2 * i) + 1) in
      if first > last then
        Error (Printf.sprintf "inverted range [%d, %d]" first last)
      else if i + 1 < t.count && p.((2 * i) + 3) + 1 >= first then
        Error
          (Printf.sprintf "ranges overlap or touch: [%d, %d] then [%d, %d]"
             p.((2 * i) + 2) p.((2 * i) + 3) first last)
      else go (i + 1)
  in
  go 0
