(* WSP space-filling experimental design (Santiago, Claeys-Bruno & Sergent,
   2012), as used by the paper to sample its network-parameter spaces into
   139 points. From a large candidate set, the algorithm keeps a point,
   discards every candidate closer than a distance dmin, hops to the
   nearest survivor and repeats; dmin is tuned by bisection until the kept
   set has the requested size. *)

type range = { lo : float; hi : float }

let _normalize r x = (x -. r.lo) /. (r.hi -. r.lo)
let denormalize r u = r.lo +. (u *. (r.hi -. r.lo))

let distance a b =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. ((x -. b.(i)) ** 2.)) a;
  sqrt !acc

(* One WSP pass at a given dmin over the candidate set; returns the kept
   points (unit cube coordinates). *)
let wsp_pass candidates dmin =
  let n = Array.length candidates in
  let alive = Array.make n true in
  let kept = ref [] in
  let current = ref 0 in
  let continue = ref true in
  while !continue do
    let c = !current in
    kept := c :: !kept;
    alive.(c) <- false;
    (* discard the neighbourhood of the kept point *)
    for j = 0 to n - 1 do
      if alive.(j) && distance candidates.(c) candidates.(j) < dmin then
        alive.(j) <- false
    done;
    (* hop to the closest survivor *)
    let best = ref (-1) in
    let best_d = ref infinity in
    for j = 0 to n - 1 do
      if alive.(j) then begin
        let d = distance candidates.(c) candidates.(j) in
        if d < !best_d then begin
          best_d := d;
          best := j
        end
      end
    done;
    if !best < 0 then continue := false else current := !best
  done;
  List.rev_map (fun idx -> candidates.(idx)) !kept

(* The candidate set: [candidates] uniform points drawn from [seed]. *)
let seed = 0xD0E5L
let candidates = 4096

(* Sample [count] points covering the given ranges. *)
let design ~count ranges =
  let dims = Array.length ranges in
  let rng = Netsim.Rng.create seed in
  let cand =
    Array.init candidates (fun _ ->
        Array.init dims (fun _ -> Netsim.Rng.float rng))
  in
  (* bisection on dmin to hit the requested count *)
  let lo = ref 0.0 and hi = ref (sqrt (float_of_int dims)) in
  let best = ref (wsp_pass cand 0.0) in
  for _ = 1 to 40 do
    let mid = (!lo +. !hi) /. 2. in
    let kept = wsp_pass cand mid in
    if List.length kept >= count then begin
      best := kept;
      lo := mid
    end
    else hi := mid
  done;
  let kept = !best in
  let kept =
    (* trim deterministically to exactly [count] *)
    List.filteri (fun i _ -> i < count) kept
  in
  List.map
    (fun unit_pt -> Array.mapi (fun d u -> denormalize ranges.(d) u) unit_pt)
    kept
