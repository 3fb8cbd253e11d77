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

type dir = {
  mutable entries : Wire.entry_info Tbl.Str.t;
  (* The readdir reply [entries] make, in [Tbl.Str.fold] order, with its
     payload size; rebuilt on the first read after a change. *)
  mutable fresh : bool;
  mutable lines : int option;
  mutable listing : Wire.fs_resp;
  mutable clients : Bytes.t Tbl.Str.t;
  mutable mark : request Queue.t option;
  mutable held : bool;
  lock_waiters : reply Queue.t;
  mutable dead : bool;
}

type t = {
  hid : int;
  inodes : Inode.t Itbl.t;
  mutable next_lid : int;
  tokens : ofd Itbl.t;
  mutable next_token : int;
  dirs : dir Dtbl.t;
}

let create hid =
  {
    hid;
    inodes = Itbl.create 1024;
    next_lid = 1;
    tokens = Itbl.create 256;
    next_token = 1;
    dirs = Dtbl.create 256;
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

(* What a record without a shard holds in place of its tables; nothing
   is ever added to either. *)
let no_entries : Wire.entry_info Tbl.Str.t = Tbl.Str.create 1

let no_clients : Bytes.t Tbl.Str.t = Tbl.Str.create 1

let bare () =
  {
    entries = no_entries;
    fresh = true;
    lines = empty_lines;
    listing = empty_listing;
    clients = no_clients;
    mark = None;
    held = false;
    lock_waiters = Queue.create ();
    dead = false;
  }

let gone = { (bare ()) with dead = true }

let find_dir h dir = match Dtbl.find_opt h.dirs dir with Some d -> d | None -> gone

let directory h dir =
  match Dtbl.find_opt h.dirs dir with
  | Some d -> d
  | None ->
      let d = bare () in
      Dtbl.add h.dirs dir d;
      d

let has_shard d = d.entries != no_entries

let shard h ino =
  let d = directory h ino in
  if not (d.dead || has_shard d) then begin
    d.entries <- Tbl.Str.create 16;
    d.clients <- Tbl.Str.create 16
  end;
  d

let shard_find d name = Tbl.Str.find_opt d.entries name

(* A change drops the cached reply, so a shard nobody lists holds no
   second copy of its entries. *)
let stale d =
  d.fresh <- false;
  d.listing <- empty_listing

let shard_set d name e =
  Tbl.Str.replace d.entries name e;
  stale d

let shard_remove d name =
  Tbl.Str.remove d.entries name;
  stale d

let shard_length d = Tbl.Str.length d.entries

let shard_fold f d acc = Tbl.Str.fold f d.entries acc

let readdir h dir (reply : reply) =
  let d = find_dir h dir in
  if not d.fresh then begin
    let entries =
      shard_fold
        (fun name (e : Wire.entry_info) acc ->
          { Wire.e_name = name; e_ino = e.t_ino; e_ftype = e.t_ftype } :: acc)
        d []
    in
    d.lines <- payload_lines (shard_length d);
    d.listing <- Ok (Wire.P_entries entries);
    d.fresh <- true
  end;
  reply ?payload_lines:d.lines d.listing

(* A callback set: 16-bit cells, the count and then each client id in the
   order it first registered. *)
let track d ~name ~client =
  if client < 0 || client >= 0xFFFF then invalid_arg "Home.track: client id";
  let s =
    match Tbl.Str.find_opt d.clients name with
    | Some s -> s
    | None ->
        let s = Bytes.make 8 '\000' in
        Tbl.Str.add d.clients name s;
        s
  in
  let n = Bytes.get_uint16_le s 0 in
  let rec known i = i <= n && (Bytes.get_uint16_le s (2 * i) = client || known (i + 1)) in
  if not (known 1) then begin
    let s =
      if 2 * (n + 2) <= Bytes.length s then s
      else begin
        let grown = Bytes.extend s 0 (Bytes.length s) in
        Tbl.Str.replace d.clients name grown;
        grown
      end
    in
    Bytes.set_uint16_le s (2 * (n + 1)) client;
    Bytes.set_uint16_le s 0 (n + 1)
  end

let iter_clients f s =
  let n = Bytes.get_uint16_le s 0 in
  let nb = ref 16 in
  while n > 2 * !nb do
    nb := 2 * !nb
  done;
  (* [r]: registrations newer than the id's own, so a bucket sorts newest
     first; each id is hashed once. *)
  let id r = Bytes.get_uint16_le s (2 * (n - r)) in
  let keys = Array.init n (fun r -> ((Hashtbl.hash (id r) land (!nb - 1)) lsl 16) lor r) in
  Array.sort Int.compare keys;
  Array.iter (fun k -> f (id (k land 0xFFFF))) keys

(* [replace] keeps the record's place in the table's order. *)
let bury h dir =
  let d = find_dir h dir in
  let lose (reply : reply) = reply (Error Hare_proto.Errno.ENOENT) in
  Option.iter (Queue.iter (fun (r : request) -> lose r.reply)) d.mark;
  Queue.iter lose d.lock_waiters;
  Dtbl.replace h.dirs dir { (bare ()) with dead = true }

let drop_dir h dir = Dtbl.remove h.dirs dir

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
        (fun _ d ->
          Option.iter (Queue.iter (fun (r : request) -> abort r.reply)) d.mark;
          d.mark <- None;
          Queue.iter abort d.lock_waiters;
          Queue.clear d.lock_waiters;
          d.held <- false;
          Tbl.Str.reset d.clients)
        h.dirs;
      Itbl.iter
        (fun _ (inode : Inode.t) ->
          (match inode.pipe with
          | Some p -> aborted := !aborted + Pipe_state.abort_parked p
          | None -> ());
          inode.keep_lease <- inode.keep_lease || inode.open_tokens > 0;
          inode.open_tokens <- 0)
        h.inodes;
      Itbl.reset h.tokens)
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
