(* Reference model of [Quic.Ackranges]: the same receiver-side range set
   kept as a sorted list of disjoint inclusive [int64] ranges (largest
   first), the straightforward shape the flat native-int implementation
   replaced. Bounded to [max_ranges], dropping the oldest ranges. The
   property tests in [Test_quic] replay packet-number sequences into
   both and require every observation to agree. *)

type range = { first : int64; last : int64 } (* inclusive, first <= last *)

(* [count] is the length of [ranges], kept so [add] can enforce the cap
   without walking the list. *)
type t = { mutable ranges : range list; mutable count : int; max_ranges : int }

let create ?(max_ranges = 256) () = { ranges = []; count = 0; max_ranges }

let largest t = match t.ranges with [] -> None | r :: _ -> Some r.last

(* Insert packet number [pn], merging adjacent ranges. *)
let add t pn =
  let single () =
    t.count <- t.count + 1;
    { first = pn; last = pn }
  in
  let rec insert = function
    | [] -> [ single () ]
    | r :: rest ->
      if pn > Int64.add r.last 1L then single () :: r :: rest
      else if pn = Int64.add r.last 1L then (
        (* extend upwards; may now touch the previous (larger) range, but
           since we process descending, upward merge is local *)
        { r with last = pn } :: rest)
      else if pn >= r.first then r :: rest (* duplicate *)
      else if pn = Int64.sub r.first 1L then (
        match rest with
        | next :: tail when Int64.add next.last 1L = pn ->
          t.count <- t.count - 1;
          { first = next.first; last = r.last } :: tail
        | _ -> { r with first = pn } :: rest)
      else r :: insert rest
  in
  let merged =
    match insert t.ranges with
    | r1 :: r2 :: rest when Int64.add r2.last 1L >= r1.first ->
      t.count <- t.count - 1;
      { first = r2.first; last = r1.last } :: rest
    | l -> l
  in
  if t.count > t.max_ranges then begin
    (* a new range pushed the set one over the cap: drop the oldest *)
    t.ranges <- List.filteri (fun i _ -> i < t.max_ranges) merged;
    t.count <- t.max_ranges
  end
  else t.ranges <- merged

(* Ranges are descending, so the walk stops at the first range lying
   wholly below [pn]: no later range can hold it. *)
let contains t pn =
  let rec go = function
    | [] -> false
    | r :: rest -> if pn > r.last then false else pn >= r.first || go rest
  in
  go t.ranges

let ranges t = t.ranges

let is_empty t = t.ranges = []

(* Total count of packet numbers covered (for tests). *)
let cardinal t =
  List.fold_left
    (fun acc r -> Int64.add acc (Int64.add (Int64.sub r.last r.first) 1L))
    0L t.ranges

(* Structural invariant check, for chaos/invariant harnesses: ranges must
   be well-formed (first <= last), strictly descending and non-adjacent
   (adjacent ranges should have been merged by [add]). Returns an error
   description instead of raising so a sweep can report the seed. *)
let check_coherent t =
  let rec go = function
    | [] -> Ok ()
    | r :: rest ->
      if r.first > r.last then
        Error
          (Printf.sprintf "inverted range [%Ld, %Ld]" r.first r.last)
      else begin
        match rest with
        | next :: _ when Int64.add next.last 1L >= r.first ->
          Error
            (Printf.sprintf
               "ranges overlap or touch: [%Ld, %Ld] then [%Ld, %Ld]"
               next.first next.last r.first r.last)
        | _ -> go rest
      end
  in
  go t.ranges
