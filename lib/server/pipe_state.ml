type t = {
  capacity : int;
  chunks : string Queue.t;
  mutable head_off : int; (* consumed prefix of the head chunk *)
  mutable buffered : int;
  mutable readers : int;
  mutable writers : int;
  parked_readers : (int * ((string, Hare_proto.Errno.t) result -> unit)) Queue.t;
  parked_writers : (string * ((int, Hare_proto.Errno.t) result -> unit)) Queue.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Pipe_state.create";
  {
    capacity;
    chunks = Queue.create ();
    head_off = 0;
    buffered = 0;
    readers = 0;
    writers = 0;
    parked_readers = Queue.create ();
    parked_writers = Queue.create ();
  }

let parked t = Queue.length t.parked_readers + Queue.length t.parked_writers

let take t len =
  let out = Buffer.create (min len t.buffered) in
  let remaining = ref (min len t.buffered) in
  while !remaining > 0 do
    let head = Queue.peek t.chunks in
    let avail = String.length head - t.head_off in
    let n = min avail !remaining in
    Buffer.add_substring out head t.head_off n;
    remaining := !remaining - n;
    t.buffered <- t.buffered - n;
    if n = avail then begin
      ignore (Queue.pop t.chunks);
      t.head_off <- 0
    end
    else t.head_off <- t.head_off + n
  done;
  Buffer.contents out

(* Move data to parked readers and parked writers' data into the buffer
   until no further progress is possible. *)
let rec pump t =
  let progressed = ref false in
  (* Writers first: a reader parked on an empty pipe should see data that
     a parked writer can now provide. *)
  if
    (not (Queue.is_empty t.parked_writers))
    && (t.buffered < t.capacity || t.readers = 0)
  then begin
    let data, k = Queue.pop t.parked_writers in
    if t.readers = 0 then k (Error Hare_proto.Errno.EPIPE)
    else begin
      Queue.push data t.chunks;
      t.buffered <- t.buffered + String.length data;
      k (Ok (String.length data))
    end;
    progressed := true
  end;
  if
    (not (Queue.is_empty t.parked_readers))
    && (t.buffered > 0 || t.writers = 0)
  then begin
    let len, k = Queue.pop t.parked_readers in
    if t.buffered > 0 then k (Ok (take t len)) else k (Ok "") (* EOF *);
    progressed := true
  end;
  if !progressed then pump t

let add_reader t = t.readers <- t.readers + 1

let add_writer t = t.writers <- t.writers + 1

let close_reader t =
  if t.readers <= 0 then invalid_arg "Pipe_state.close_reader: no readers";
  t.readers <- t.readers - 1;
  if t.readers = 0 then pump t

let close_writer t =
  if t.writers <= 0 then invalid_arg "Pipe_state.close_writer: no writers";
  t.writers <- t.writers - 1;
  if t.writers = 0 then pump t

let read t ~len k =
  if len <= 0 then k (Ok "")
  else begin
    Queue.push (len, k) t.parked_readers;
    pump t
  end

let write t data k =
  if String.length data = 0 then k (Ok 0)
  else begin
    Queue.push (data, k) t.parked_writers;
    pump t
  end

let abort_parked t =
  let n = parked t in
  let readers = List.of_seq (Queue.to_seq t.parked_readers) in
  let writers = List.of_seq (Queue.to_seq t.parked_writers) in
  Queue.clear t.parked_readers;
  Queue.clear t.parked_writers;
  List.iter (fun (_, k) -> k (Error Hare_proto.Errno.EIO)) readers;
  List.iter (fun (_, k) -> k (Error Hare_proto.Errno.EIO)) writers;
  n
