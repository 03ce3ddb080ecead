(* Reference model for [Pquic.Scheduler]: the frame scheduler as it was
   before it kept a running count of its reservations, answering
   [pending] with a fold over the per-plugin queues. The qcheck test in
   test_pquic.ml drives it and the scheduler with the same reserve, take
   and drop sequences: both must agree on [pending] and on every take. *)

module S = Pquic.Scheduler

type queue_state = { q : S.reservation Queue.t; mutable deficit : int }

type t = {
  queues : (string, queue_state) Hashtbl.t;
  mutable order : string list;
}

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

let reserve t (r : S.reservation) = Queue.push r (queue_for t r.plugin).q

let pending t =
  Hashtbl.fold (fun _ qs acc -> acc + Queue.length qs.q) t.queues 0

let take ?(max_frame = 1400) t ~budget =
  let budget = ref budget in
  let out = ref [] in
  let progress = ref true in
  while !progress && !budget > 0 && pending t > 0 do
    progress := false;
    List.iter
      (fun plugin ->
        let qs = Hashtbl.find t.queues plugin in
        if not (Queue.is_empty qs.q) then begin
          qs.deficit <- qs.deficit + quantum;
          let continue = ref true in
          while !continue && not (Queue.is_empty qs.q) do
            let r = Queue.peek qs.q in
            if r.S.size <= qs.deficit && r.S.size <= !budget then begin
              ignore (Queue.pop qs.q);
              qs.deficit <- qs.deficit - r.S.size;
              budget := !budget - r.S.size;
              out := r :: !out;
              progress := true
            end
            else if r.S.size > max_frame then begin
              ignore (Queue.pop qs.q);
              progress := true
            end
            else continue := false
          done;
          if Queue.is_empty qs.q then qs.deficit <- 0
        end)
      t.order
  done;
  List.rev !out

let drop_plugin t plugin =
  Hashtbl.remove t.queues plugin;
  t.order <- List.filter (fun p -> p <> plugin) t.order
