(* Reference model for [Conn_types.Sent_times]: the send-time history as
   a hashtable keyed by packet number, swept once per 4096 pns, as the
   connection kept it before the history became a ring indexed by pn.
   The differential test in test_recovery.ml drives it and the ring with
   the same sends: both must answer every query alike. *)

type t = {
  tbl : (int64, int64) Hashtbl.t;
  mutable sweep_at : int64;
      (* the first ack-eliciting send at or past this pn prunes [tbl] *)
}

let create () = { tbl = Hashtbl.create 16; sweep_at = 0L }

(* Bound the retained history once per 4096 pns, on the first
   ack-eliciting send at or past each boundary (the boundary pn itself
   may carry only an ACK); collect then remove, without copying the
   whole table. *)
let record t pn at =
  Hashtbl.replace t.tbl pn at;
  if pn >= t.sweep_at then begin
    let boundary = Int64.sub pn (Int64.rem pn 4096L) in
    t.sweep_at <- Int64.add boundary 4096L;
    let horizon = Int64.sub boundary 8192L in
    let stale =
      Hashtbl.fold (fun k _ acc -> if k < horizon then k :: acc else acc) t.tbl []
    in
    List.iter (Hashtbl.remove t.tbl) stale
  end

let find t pn = match Hashtbl.find_opt t.tbl pn with Some at -> at | None -> -1L

let length t = Hashtbl.length t.tbl

(* Pns from the oldest retained to the newest, both included; 0 when
   nothing is retained. *)
let window t =
  if Hashtbl.length t.tbl = 0 then 0
  else
    let lo, hi =
      Hashtbl.fold (fun k _ (lo, hi) -> (min k lo, max k hi)) t.tbl
        (Int64.max_int, Int64.min_int)
    in
    Int64.to_int (Int64.sub hi lo) + 1
