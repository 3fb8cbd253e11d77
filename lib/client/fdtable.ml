open Hare_proto
module Itbl = Hare_sim.Tbl.Int

type pos = Wire.xfer_pos = Local of int | Shared

type file_state = {
  f_ino : Types.ino;
  mutable f_token : Types.fd_token;
  f_flags : Types.open_flags;
  mutable f_pos : pos;
  mutable f_blocks : int array;
  mutable f_size : int;
  f_dirty : unit Itbl.t;
  mutable f_wrote : bool;
}

let lease blocks size = Int.max 0 (Array.length blocks - Hare_mem.Layout.blocks_for size)

let file_state ~ino ~token ~flags ~pos ~blocks ~size =
  {
    f_ino = ino;
    f_token = token;
    f_flags = flags;
    f_pos = pos;
    f_blocks = blocks;
    f_size = size;
    f_dirty = Itbl.create 8;
    f_wrote = false;
  }

type pipe_state = {
  p_ino : Types.ino;
  p_token : Types.fd_token;
  p_write : bool;
}

type desc =
  | File of file_state
  | Pipe of pipe_state
  | Console of Wire.console_ref

type entry = { mutable desc : desc; mutable local_refs : int }

type t = { slots : entry Itbl.t }

let max_fds = 1024

let create () = { slots = Itbl.create 16 }

let alloc t entry =
  let rec scan fd =
    if fd >= max_fds then Errno.raise_errno Errno.EMFILE "fd table full"
    else if Itbl.mem t.slots fd then scan (fd + 1)
    else begin
      Itbl.replace t.slots fd entry;
      fd
    end
  in
  scan 0

let alloc_at t fd entry =
  if fd < 0 || fd >= max_fds then Errno.raise_errno Errno.EBADF "fd out of range";
  Itbl.replace t.slots fd entry

let find t fd = Itbl.find_opt t.slots fd

let find_exn t fd =
  match find t fd with
  | Some e -> e
  | None -> Errno.raise_errno Errno.EBADF (string_of_int fd)

let remove t fd = Itbl.remove t.slots fd

let fds t =
  Itbl.fold (fun fd _ acc -> fd :: acc) t.slots [] |> List.sort compare

let bindings t =
  Itbl.fold (fun fd e acc -> (fd, e) :: acc) t.slots []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let distinct_entries t =
  let seen = ref [] in
  Itbl.iter
    (fun _ e -> if not (List.memq e !seen) then seen := e :: !seen)
    t.slots;
  !seen
