type 'a t = {
  mutable value : 'a option;
  mutable waiters : Engine.waker list;
}

let create () = { value = None; waiters = [] }

let fill t v =
  match t.value with
  | Some _ -> invalid_arg "Ivar.fill: already filled"
  | None ->
      t.value <- Some v;
      let waiters = List.rev t.waiters in
      t.waiters <- [];
      List.iter (fun wake -> wake ()) waiters

let read t =
  match t.value with
  | Some v -> v
  | None ->
      Engine.suspend (fun waker -> t.waiters <- waker :: t.waiters);
      (* After resumption the value is necessarily present. *)
      (match t.value with
      | Some v -> v
      | None -> assert false)

let read_deadline t ~engine ~cycles =
  if cycles < 0L then invalid_arg "Ivar.read_deadline: negative deadline";
  match t.value with
  | Some _ -> t.value
  | None ->
      Engine.suspend (fun waker ->
          (* Both the fill path and the timer may try to wake; whichever
             fires first wins and the loser becomes a no-op, so the
             underlying waker is invoked exactly once. *)
          let fired = ref false in
          let wake_once () =
            if not !fired then begin
              fired := true;
              waker ()
            end
          in
          t.waiters <- wake_once :: t.waiters;
          Engine.schedule_at engine
            (Int64.add (Engine.now engine) cycles)
            wake_once);
      t.value

let peek t = t.value

let is_filled t = t.value <> None
