open Hare_sim
module Wire = Hare_proto.Wire
module Itbl = Tbl.Int

type reply = ?payload_lines:int -> Wire.fs_resp -> unit

module Dtbl = Tbl.Make (struct
  type t = Hare_proto.Types.ino

  let equal (a : t) (b : t) = a.ino = b.ino && a.server = b.server
end)

type ofd = {
  token : int;
  inode : Inode.t;
  mutable refcount : int;
  mutable shared_offset : int option;
  pipe_end : [ `R | `W ] option;
}

type mark = { parked : (Wire.fs_req * reply) Queue.t }

type dirlock = { mutable held : bool; lock_waiters : reply Queue.t }

type t = {
  hid : int;
  inodes : Inode.t Itbl.t;
  mutable next_lid : int;
  tokens : ofd Itbl.t;
  mutable next_token : int;
  dirs : Wire.entry_info Tbl.Str.t Dtbl.t;
  tracking : unit Itbl.t Tbl.Str.t Dtbl.t;
  marks : mark Dtbl.t;
  locks : dirlock Dtbl.t;
  dead_dirs : unit Dtbl.t;
}

let create hid =
  {
    hid;
    inodes = Itbl.create 1024;
    next_lid = 1;
    tokens = Itbl.create 256;
    next_token = 1;
    dirs = Dtbl.create 256;
    tracking = Dtbl.create 256;
    marks = Dtbl.create 16;
    locks = Dtbl.create 16;
    dead_dirs = Dtbl.create 16;
  }

let alloc_lid h =
  let lid = h.next_lid in
  h.next_lid <- lid + 1;
  lid

let shard h dir =
  match Dtbl.find_opt h.dirs dir with
  | Some s -> s
  | None ->
      let s = Tbl.Str.create 16 in
      Dtbl.replace h.dirs dir s;
      s

let shard_size h dir =
  match Dtbl.find_opt h.dirs dir with
  | None -> 0
  | Some s -> Tbl.Str.length s

let find_entry h dir name =
  match Dtbl.find_opt h.dirs dir with
  | None -> None
  | Some s -> Tbl.Str.find_opt s name

let track h ~dir ~name ~client =
  let per_dir =
    match Dtbl.find_opt h.tracking dir with
    | Some m -> m
    | None ->
        let m = Tbl.Str.create 16 in
        Dtbl.replace h.tracking dir m;
        m
  in
  let clients =
    match Tbl.Str.find_opt per_dir name with
    | Some c -> c
    | None ->
        let c = Itbl.create 4 in
        Tbl.Str.replace per_dir name c;
        c
  in
  Itbl.replace clients client ()

let drop_dir h dir =
  Dtbl.remove h.dirs dir;
  Dtbl.remove h.tracking dir;
  Dtbl.remove h.locks dir

let home_shift = 40

let mint_token h ~migratory =
  let k = h.next_token in
  h.next_token <- k + 1;
  if migratory then (h.hid lsl home_shift) lor k else k

let token_home token = token lsr home_shift

let busy h =
  Dtbl.length h.marks > 0
  || Dtbl.fold
       (fun _ l busy -> busy || l.held || not (Queue.is_empty l.lock_waiters))
       h.locks false
  || Itbl.fold
       (fun _ (i : Inode.t) busy ->
         busy || match i.pipe with Some p -> Pipe_state.parked p > 0 | None -> false)
       h.inodes false

let crash homes =
  let aborted = ref 0 in
  let abort (reply : reply) =
    incr aborted;
    reply (Error Hare_proto.Errno.EIO)
  in
  Itbl.iter
    (fun _ h ->
      Dtbl.iter (fun _ m -> Queue.iter (fun (_, r) -> abort r) m.parked) h.marks;
      Dtbl.reset h.marks;
      Dtbl.iter (fun _ l -> Queue.iter abort l.lock_waiters) h.locks;
      Dtbl.reset h.locks;
      Itbl.iter
        (fun _ (inode : Inode.t) ->
          (match inode.pipe with
          | Some p -> aborted := !aborted + Pipe_state.abort_parked p
          | None -> ());
          inode.open_tokens <- 0)
        h.inodes;
      Itbl.reset h.tokens;
      Dtbl.reset h.tracking)
    homes;
  !aborted

let reclaim homes ~extent =
  let live = Hashtbl.create 4096 in
  Itbl.iter
    (fun _ h ->
      Itbl.filter_map_inplace
        (fun _ (inode : Inode.t) ->
          inode.orphans <- [||];
          if inode.unlinked && inode.nlink <= 0 then None
          else begin
            if extent then ignore (Inode.trim_lease inode);
            Array.iter (fun b -> Hashtbl.replace live b ()) inode.blocks;
            Some inode
          end)
        h.inodes)
    homes;
  live
