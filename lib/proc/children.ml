open Hare_sim
open Hare_proto

type t = {
  mutable live : Types.pid list;  (* not yet reaped *)
  exits : (Types.pid * int) Bqueue.t;
  mutable early : (Types.pid * int) list;
      (* exits popped while a [waitpid] awaited another child *)
}

let create () = { live = []; exits = Bqueue.create (); early = [] }

let add t pid = t.live <- pid :: t.live

let exited t pid status = Bqueue.push t.exits (pid, status)

let reap t pid = t.live <- List.filter (fun c -> c <> pid) t.live

let wait t =
  let pid, status =
    match (t.early, t.live) with
    | first :: rest, _ ->
        t.early <- rest;
        first
    | [], [] -> Errno.raise_errno Errno.ECHILD "wait"
    | [], _ -> Bqueue.pop t.exits
  in
  reap t pid;
  (pid, status)

let waitpid t pid =
  let rec scan acc = function
    | [] -> None
    | (rp, st) :: rest when rp = pid ->
        t.early <- List.rev_append acc rest;
        Some st
    | e :: rest -> scan (e :: acc) rest
  in
  let rec await () =
    let rp, st = Bqueue.pop t.exits in
    if rp = pid then st
    else begin
      t.early <- t.early @ [ (rp, st) ];
      await ()
    end
  in
  let status =
    match scan [] t.early with
    | Some st -> st
    | None ->
        if not (List.exists (Int.equal pid) t.live) then
          Errno.raise_errno Errno.ECHILD (string_of_int pid);
        await ()
  in
  reap t pid;
  status
