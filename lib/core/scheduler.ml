(* Frame scheduler (Section 2.3): plugins book frame slots with
   reserve_frames; when a packet is built, the sender alternates between
   core frames and plugin frames, and a deficit round robin distributes
   the plugin share of the payload budget between the plugins — so no
   plugin can starve application data or the other plugins. *)

type reservation = {
  ftype : int;          (* frame type the write_frame protoop will receive *)
  size : int;           (* worst-case wire size of the frame *)
  retransmittable : bool;
  ack_eliciting : bool; (* MP_ACK-style frames are not ack-eliciting *)
  cookie : int64;       (* opaque value handed back to the pluglet *)
  plugin : string;
}

type queue_state = { q : reservation Queue.t; mutable deficit : int }

type t = {
  queues : (string, queue_state) Hashtbl.t;
  mutable order : string list; (* round-robin order, oldest plugin first *)
}

(* DRR credit per plugin per round, bytes. *)
let quantum = 600

let create () = { queues = Hashtbl.create 4; order = [] }

let queue_for t plugin =
  match Hashtbl.find_opt t.queues plugin with
  | Some qs -> qs
  | None ->
    let qs = { q = Queue.create (); deficit = 0 } in
    Hashtbl.replace t.queues plugin qs;
    t.order <- t.order @ [ plugin ];
    qs

let reserve t (r : reservation) = Queue.push r (queue_for t r.plugin).q

let pending t =
  Hashtbl.fold (fun _ qs acc -> acc + Queue.length qs.q) t.queues 0

let has_pending t = pending t > 0

(* Pop reservations fitting in [budget] bytes, deficit-round-robin across
   plugins. Reservations larger than [max_frame] can never ride in any
   packet of this connection and are dropped defensively rather than
   letting them block their queue forever. *)
let take ?(max_frame = 1400) t ~budget =
  let budget = ref budget in
  let out = ref [] in
  if has_pending t && !budget > 0 then begin
    let progress = ref true in
    while !progress && !budget > 0 && has_pending t do
      progress := false;
      List.iter
        (fun plugin ->
          let qs = Hashtbl.find t.queues plugin in
          if not (Queue.is_empty qs.q) then begin
            qs.deficit <- qs.deficit + quantum;
            let continue = ref true in
            while !continue && not (Queue.is_empty qs.q) do
              let r = Queue.peek qs.q in
              if r.size <= qs.deficit && r.size <= !budget then begin
                ignore (Queue.pop qs.q);
                qs.deficit <- qs.deficit - r.size;
                budget := !budget - r.size;
                out := r :: !out;
                progress := true
              end
              else begin
                (* a reservation the packet can never carry is discarded *)
                if r.size > max_frame then begin
                  ignore (Queue.pop qs.q);
                  progress := true
                end
                else continue := false
              end
            done;
            if Queue.is_empty qs.q then qs.deficit <- 0
          end)
        t.order
    done
  end;
  List.rev !out

let drop_plugin t plugin =
  Hashtbl.remove t.queues plugin;
  t.order <- List.filter (fun p -> p <> plugin) t.order
