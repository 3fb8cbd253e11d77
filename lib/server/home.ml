open Hare_sim
module Wire = Hare_proto.Wire
module Itbl = Tbl.Int

type reply = ?payload_lines:int -> Wire.fs_resp -> unit

type request = (Wire.fs_req, Wire.fs_resp) Hare_msg.Rpc.request

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

type mark = { parked : request Queue.t }

type dirlock = { mutable held : bool; lock_waiters : reply Queue.t }

type shard = {
  entries : Wire.entry_info Tbl.Str.t;
  (* The readdir reply [entries] make, in [Tbl.Str.fold] order, with its
     payload size; rebuilt on the first read after a change. *)
  mutable fresh : bool;
  mutable lines : int option;
  mutable listing : Wire.fs_resp;
}

type t = {
  hid : int;
  inodes : Inode.t Itbl.t;
  mutable next_lid : int;
  tokens : ofd Itbl.t;
  mutable next_token : int;
  dirs : shard Dtbl.t;
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

type homes = { table : t Itbl.t; mutable index : t option array }

let homes () = { table = Itbl.create 4; index = [||] }

(* Stands in for the home of a request that names none; no handler of
   such a request touches it. *)
let unaddressed = Some (create (-1))

let lookup hs hid =
  if hid >= 0 && hid < Array.length hs.index then Array.unsafe_get hs.index hid
  else None

let find hs hid =
  match lookup hs hid with Some h -> h | None -> raise Not_found

let hosts hs hid = Option.is_some (lookup hs hid)

let host hs h =
  let n = Array.length hs.index in
  if h.hid >= n then begin
    let index = Array.make (Int.max (h.hid + 1) (2 * n)) None in
    Array.blit hs.index 0 index 0 n;
    hs.index <- index
  end;
  hs.index.(h.hid) <- Some h;
  Itbl.replace hs.table h.hid h

let unhost hs hid =
  if hosts hs hid then hs.index.(hid) <- None;
  Itbl.remove hs.table hid

let alloc_lid h =
  let lid = h.next_lid in
  h.next_lid <- lid + 1;
  lid

(* ~32 bytes of payload per entry. *)
let payload_lines n = Some ((n / 2) + 1)

let empty_lines = payload_lines 0

let empty_listing : Wire.fs_resp = Ok (Wire.P_entries [])

let shard h dir =
  match Dtbl.find_opt h.dirs dir with
  | Some s -> s
  | None ->
      let s =
        {
          entries = Tbl.Str.create 16;
          fresh = true;
          lines = empty_lines;
          listing = empty_listing;
        }
      in
      Dtbl.replace h.dirs dir s;
      s

let shard_find s name = Tbl.Str.find_opt s.entries name

(* A change drops the cached reply, so a shard nobody lists holds no
   second copy of its entries. *)
let stale s =
  s.fresh <- false;
  s.listing <- empty_listing

let shard_set s name e =
  Tbl.Str.replace s.entries name e;
  stale s

let shard_remove s name =
  Tbl.Str.remove s.entries name;
  stale s

let shard_length s = Tbl.Str.length s.entries

let shard_fold f s acc = Tbl.Str.fold f s.entries acc

let shard_size h dir =
  match Dtbl.find_opt h.dirs dir with None -> 0 | Some s -> shard_length s

let find_entry h dir name =
  match Dtbl.find_opt h.dirs dir with
  | None -> None
  | Some s -> shard_find s name

let readdir h dir (reply : reply) =
  match Dtbl.find_opt h.dirs dir with
  | None -> reply ?payload_lines:empty_lines empty_listing
  | Some s ->
      if not s.fresh then begin
        let entries =
          shard_fold
            (fun name (e : Wire.entry_info) acc ->
              { Wire.e_name = name; e_ino = e.t_ino; e_ftype = e.t_ftype } :: acc)
            s []
        in
        s.lines <- payload_lines (shard_length s);
        s.listing <- Ok (Wire.P_entries entries);
        s.fresh <- true
      end;
      reply ?payload_lines:s.lines s.listing

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

let mint_token h =
  let k = h.next_token in
  h.next_token <- k + 1;
  (h.hid lsl home_shift) lor k

let token_home token = token lsr home_shift

let crash hs =
  let aborted = ref 0 in
  let abort (reply : reply) =
    incr aborted;
    reply (Error Hare_proto.Errno.EIO)
  in
  Itbl.iter
    (fun _ h ->
      Dtbl.iter
        (fun _ m -> Queue.iter (fun (r : request) -> abort r.reply) m.parked)
        h.marks;
      Dtbl.reset h.marks;
      Dtbl.iter (fun _ l -> Queue.iter abort l.lock_waiters) h.locks;
      Dtbl.reset h.locks;
      Itbl.iter
        (fun _ (inode : Inode.t) ->
          (match inode.pipe with
          | Some p -> aborted := !aborted + Pipe_state.abort_parked p
          | None -> ());
          inode.keep_lease <- inode.keep_lease || inode.open_tokens > 0;
          inode.open_tokens <- 0)
        h.inodes;
      Itbl.reset h.tokens;
      Dtbl.reset h.tracking)
    hs.table;
  !aborted

let reclaim hs =
  let live = Itbl.create 4096 in
  Itbl.iter
    (fun _ h ->
      Itbl.filter_map_inplace
        (fun _ (inode : Inode.t) ->
          inode.orphans <- [||];
          if inode.unlinked && inode.nlink <= 0 then None
          else begin
            Array.iter (fun b -> Itbl.replace live b ()) inode.blocks;
            Some inode
          end)
        h.inodes)
    hs.table;
  live
