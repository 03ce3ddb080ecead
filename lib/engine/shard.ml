type 'a t = {
  sim : Netsim.Sim.t;
  queues : 'a Queue.t array;
  scheduled : bool array;
  process : int -> 'a -> unit;
  mutable dispatched : int;
  mutable batches : int;
}

(* Items drained per simulator event. *)
let batch = 64

let create sim ~shards process =
  if shards <= 0 then invalid_arg "Shard.create: shards must be positive";
  {
    sim;
    queues = Array.init shards (fun _ -> Queue.create ());
    scheduled = Array.make shards false;
    process;
    dispatched = 0;
    batches = 0;
  }

let shards t = Array.length t.queues

let rec drain t i () =
  let q = t.queues.(i) in
  t.batches <- t.batches + 1;
  let n = ref 0 in
  while !n < batch && not (Queue.is_empty q) do
    let item = Queue.pop q in
    incr n;
    t.dispatched <- t.dispatched + 1;
    t.process i item
  done;
  if Queue.is_empty q then t.scheduled.(i) <- false
  else ignore (Netsim.Sim.schedule t.sim ~delay:0L (drain t i))

let enqueue t i item =
  let i = i mod Array.length t.queues in
  let i = if i < 0 then i + Array.length t.queues else i in
  Queue.push item t.queues.(i);
  if not t.scheduled.(i) then begin
    t.scheduled.(i) <- true;
    ignore (Netsim.Sim.schedule t.sim ~delay:0L (drain t i))
  end

let queued t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues
let dispatched t = t.dispatched
let batches t = t.batches
