open Hare_proto

type pos = Wire.xfer_pos = Local of int | Shared

type file_state = {
  f_ino : Types.ino;
  mutable f_token : Types.fd_token;
  f_flags : Types.open_flags;
  mutable f_pos : pos;
  mutable f_blocks : int array;
  mutable f_size : int;
  f_dirty : (int, unit) Hashtbl.t;
  mutable f_wrote : bool;
  mutable f_lease : int;
}

let lease blocks size = max 0 (Array.length blocks - Hare_mem.Layout.blocks_for size)

let file_state ~ino ~token ~flags ~pos ~blocks ~size =
  {
    f_ino = ino;
    f_token = token;
    f_flags = flags;
    f_pos = pos;
    f_blocks = blocks;
    f_size = size;
    f_dirty = Hashtbl.create 8;
    f_wrote = false;
    f_lease = lease blocks size;
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

type t = { slots : (int, entry) Hashtbl.t }

let max_fds = 1024

let create () = { slots = Hashtbl.create 16 }

let alloc t entry =
  let rec scan fd =
    if fd >= max_fds then Errno.raise_errno Errno.EMFILE "fd table full"
    else if Hashtbl.mem t.slots fd then scan (fd + 1)
    else begin
      Hashtbl.replace t.slots fd entry;
      fd
    end
  in
  scan 0

let alloc_at t fd entry =
  if fd < 0 || fd >= max_fds then Errno.raise_errno Errno.EBADF "fd out of range";
  Hashtbl.replace t.slots fd entry

let find t fd = Hashtbl.find_opt t.slots fd

let find_exn t fd =
  match find t fd with
  | Some e -> e
  | None -> Errno.raise_errno Errno.EBADF (string_of_int fd)

let remove t fd = Hashtbl.remove t.slots fd

let fds t =
  Hashtbl.fold (fun fd _ acc -> fd :: acc) t.slots [] |> List.sort compare

let bindings t =
  Hashtbl.fold (fun fd e acc -> (fd, e) :: acc) t.slots []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let distinct_entries t =
  let seen = ref [] in
  Hashtbl.iter
    (fun _ e -> if not (List.memq e !seen) then seen := e :: !seen)
    t.slots;
  !seen
