open Hare_sim
open Hare_proto
open Hare_proto.Types
module Robust = Hare_stats.Robust
module Perf = Hare_stats.Perf

let src = Logs.Src.create "hare.server" ~doc:"Hare file server"

module Log = (val Logs.src_log src : Logs.LOG)

type reply = ?payload_lines:int -> Wire.fs_resp -> unit

exception Out_of_blocks
(* Raised when the local buffer-cache partition is dry; the dispatch loop
   turns it into ENOSPC or, with the block-stealing extension enabled,
   parks the request and steals from a peer (§3.2). *)

(* Server-side open file descriptor state (§3.4): [refcount] counts the
   processes sharing the descriptor; [shared_offset] is present exactly
   while the descriptor is in "shared" state (offset lives here, all I/O
   goes through this server). *)
type ofd = {
  token : int;
  inode : Inode.t;
  mutable refcount : int;
  mutable shared_offset : int option;
  pipe_end : [ `R | `W ] option;
}

type mark = { parked : (Wire.fs_req * reply) Queue.t }

type dirlock = { mutable held : bool; lock_waiters : reply Queue.t }

(* Everything one logical home owns (§3.1): its inode table, descriptor
   state, directory-entry shards, invalidation tracking lists and rmdir
   marks/locks. A server hosts exactly one home, its own, under every
   static placement; under a shard plan a migration moves whole records
   between servers. *)
type home = {
  hid : int;
  inodes : (int, Inode.t) Hashtbl.t; (* lid -> inode *)
  mutable next_lid : int;
  tokens : (int, ofd) Hashtbl.t;
  mutable next_token : int;
  (* directory-entry shards: dir -> name -> dentry *)
  dirs : (ino, (string, Wire.entry_info) Hashtbl.t) Hashtbl.t;
  (* invalidation tracking lists: dir -> name -> client set *)
  tracking : (ino, (string, (int, unit) Hashtbl.t) Hashtbl.t) Hashtbl.t;
  marks : (ino, mark) Hashtbl.t;
  locks : (ino, dirlock) Hashtbl.t;
  (* tombstones: directories whose removal this home committed. A create
     can race past the mark window (looked up the parent before the
     removal, arrived after commit); shard servers cannot check the
     remote inode, so the tombstone refuses it. Inode ids are never
     reused, so a tombstone can live forever. *)
  dead_dirs : (ino, unit) Hashtbl.t;
}

(* Shard-migration payload: one logical home's record, moved between
   physical servers by reference (host-side values; the block contents
   never leave DRAM). Defined as a [Wire.pack] extension because it
   mentions server-internal types. *)
type Wire.pack +=
  | Pack of {
      p_home : home;
      p_blocks : int array; (* buffer-cache ownership to adopt *)
      p_dedup : (int * int * Wire.fs_resp) list; (* client, seq, resp *)
    }

type t = {
  sid : int;
  engine : Engine.t;
  config : Hare_config.Config.t;
  costs : Hare_config.Costs.t;
  core : Core_res.t;
  pcache : Hare_mem.Pcache.t;
  dram : Hare_mem.Dram.t;
  blocks : Blocklist.t;
  endpoint : (Wire.fs_req, Wire.fs_resp) Hare_msg.Rpc.t;
  (* Consistent-hash sharding: [migratory] is true iff the machine has a
     ring-membership plan; only then do token namespacing, ownership
     checks and EMOVED rejections exist. [homes] holds the logical homes
     this physical server currently serves. *)
  migratory : bool;
  homes : (int, home) Hashtbl.t;
  mutable homes_in : int; (* homes adopted via Install_shard *)
  mutable homes_out : int; (* homes packed via Migrate_out *)
  mutable moved_rejects : int; (* EMOVED replies sent *)
  inval_ports : Wire.inval Hare_msg.Mailbox.t array;
  ops : Hare_stats.Opcount.t;
  perf : Perf.t;
  mutable invals_sent : int;
  (* robustness: crash state, idempotency, counters *)
  faults : Hare_fault.Injector.link option;
  mutable down : bool;
  (* reliable messages that arrived while down; served after restart *)
  boot_queue : (Wire.fs_req, Wire.fs_resp) Hare_msg.Rpc.request Queue.t;
  dedup : reply Dedup.t;
  robust : Robust.t;
  (* block stealing (extension) *)
  mutable peers : (Wire.fs_req, Wire.fs_resp) Hare_msg.Rpc.t array;
  steal_parked : (Wire.fs_req * reply) Queue.t;
  mutable steal_inflight : bool;
  mutable steal_victim : int;
  mutable steal_failures : int;
  mutable blocks_stolen : int;
}

let bs = Hare_mem.Layout.block_size

(* Empty [q], returning what it held in order. *)
let take_all q =
  let l = List.of_seq (Queue.to_seq q) in
  Queue.clear q;
  l

let new_home hid =
  {
    hid;
    inodes = Hashtbl.create 1024;
    next_lid = 1;
    tokens = Hashtbl.create 256;
    next_token = 1;
    dirs = Hashtbl.create 256;
    tracking = Hashtbl.create 256;
    marks = Hashtbl.create 16;
    locks = Hashtbl.create 16;
    dead_dirs = Hashtbl.create 16;
  }

let create ~engine ~config ~sid ~core ~pcache ~dram ~blocks_first ~blocks_count
    ~inval_ports ?place ?faults () =
  let migratory =
    match place with
    | Some p -> Hare_place.Place.migratory p
    | None -> false
  in
  let homes = Hashtbl.create 4 in
  (* A spare server (physical id beyond the logical home space) boots
     hosting nothing; it acquires homes via Install_shard when its ring
     Add event fires. Everyone else starts as its own home. *)
  (match place with
  | Some p when migratory && sid >= Hare_place.Place.nhomes p -> ()
  | _ -> Hashtbl.replace homes sid (new_home sid));
  let perf = Perf.create () in
  {
    sid;
    engine;
    config;
    costs = config.Hare_config.Config.costs;
    core;
    pcache;
    dram;
    blocks = Blocklist.create ~first:blocks_first ~count:blocks_count;
    endpoint =
      Hare_msg.Rpc.endpoint
        ~name:(Printf.sprintf "fs%d" sid)
        ?capacity:
          (if config.Hare_config.Config.mailbox_capacity > 0 then
             Some config.Hare_config.Config.mailbox_capacity
           else None)
        ?faults ~owner:core ~costs:config.Hare_config.Config.costs ();
    migratory;
    homes;
    homes_in = 0;
    homes_out = 0;
    moved_rejects = 0;
    inval_ports;
    ops = Hare_stats.Opcount.create ();
    perf;
    invals_sent = 0;
    faults;
    down = false;
    boot_queue = Queue.create ();
    dedup = Dedup.create ~perf;
    robust = Robust.create ();
    peers = [||];
    steal_parked = Queue.create ();
    steal_inflight = false;
    steal_victim = sid;
    steal_failures = 0;
    blocks_stolen = 0;
  }

let sid t = t.sid

let core t = t.core

let pcache t = t.pcache

let endpoint t = t.endpoint

let ops t = t.ops

let perf t = t.perf

let invals_sent t = t.invals_sent

let available_blocks t = Blocklist.available t.blocks

let sum_homes t f = Hashtbl.fold (fun _ h n -> n + f h) t.homes 0

let inode_count t = sum_homes t (fun h -> Hashtbl.length h.inodes)

let open_tokens t = sum_homes t (fun h -> Hashtbl.length h.tokens)

let dentry_count t =
  sum_homes t (fun h -> Hashtbl.fold (fun _ s n -> n + Hashtbl.length s) h.dirs 0)

let set_peers t peers = t.peers <- peers

let blocks_stolen t = t.blocks_stolen

let robust t = t.robust

(* ---------- logical homes ---------------------------------------------- *)

(* The record of a home hosted here. Requests for homes hosted elsewhere
   never reach a handler: [process] bounces them with EMOVED. *)
let home t hid = Hashtbl.find t.homes hid

let hosts t hid = Hashtbl.mem t.homes hid

(* Descriptor tokens carry their home in the high bits under a shard
   plan, so tokens minted by different homes never collide when the
   homes later share a physical server, and the ownership check can read
   the home off a bare token. Static placements mint plain counters. *)
let home_shift = 40

let token_home t token = if t.migratory then token lsr home_shift else t.sid

let hosted_homes t =
  Hashtbl.fold (fun h _ acc -> h :: acc) t.homes [] |> List.sort compare

let homes_migrated_in t = t.homes_in

let homes_migrated_out t = t.homes_out

let moved_rejects t = t.moved_rejects

let peak_queue t = Hare_msg.Rpc.peak_pending t.endpoint

let reset_peak_queue t = Hare_msg.Rpc.reset_peak t.endpoint

let queue_depth t = Hare_msg.Rpc.pending t.endpoint

(* ---------- inode and token helpers ----------------------------------- *)

let alloc_lid h =
  let lid = h.next_lid in
  h.next_lid <- lid + 1;
  lid

let find_inode t (ino : ino) =
  match home t ino.server with
  | h -> Hashtbl.find_opt h.inodes ino.ino
  | exception Not_found -> None

let global (inode : Inode.t) =
  { server = inode.Inode.home; ino = inode.Inode.lid }

(* A descriptor lives with its inode's home (the home a token names). *)
let new_token t (inode : Inode.t) ~pipe_end =
  let h = home t inode.Inode.home in
  let k = h.next_token in
  h.next_token <- k + 1;
  let token = if t.migratory then (h.hid lsl home_shift) lor k else k in
  let ofd = { token; inode; refcount = 1; shared_offset = None; pipe_end } in
  Hashtbl.replace h.tokens token ofd;
  inode.Inode.open_tokens <- inode.Inode.open_tokens + 1;
  ofd

let free_blocks t blocks = Blocklist.free_many t.blocks blocks

(* Deferred reuse (§3.2): orphaned and unlinked blocks return to the free
   list only once no descriptor can still address them. *)
let maybe_release t (inode : Inode.t) =
  if inode.open_tokens = 0 then begin
    if Array.length inode.orphans > 0 then begin
      free_blocks t inode.orphans;
      inode.orphans <- [||]
    end;
    if inode.unlinked && inode.nlink <= 0 then begin
      free_blocks t inode.blocks;
      inode.blocks <- [||];
      Hashtbl.remove (home t inode.home).inodes inode.lid
    end
  end

(* Allocate (zeroed) blocks so the file covers [size] bytes. Raises
   {!Out_of_blocks} — with no state mutated — when the partition is dry,
   so the whole request can be retried after stealing. *)
let ensure_blocks t (inode : Inode.t) ~size =
  let have = Array.length inode.blocks in
  let need = Inode.blocks_for ~size in
  if need > have then
    match Blocklist.alloc_many t.blocks (need - have) with
    | None -> raise Out_of_blocks
    | Some fresh ->
        Array.iter (fun b -> Hare_mem.Dram.zero_block t.dram ~block:b) fresh;
        inode.blocks <- Array.append inode.blocks fresh

(* Extent leases (alloc_extent > 1) die with the last descriptor: blocks
   allocated ahead of the file size return to the free list once no open
   token can address them. Inert at the paper-faithful extent of 1, where
   allocation never runs ahead of need. *)
let reclaim_lease t (inode : Inode.t) =
  if t.config.Hare_config.Config.alloc_extent > 1 && inode.ftype = Reg then begin
    let keep = Inode.blocks_for ~size:inode.size in
    let have = Array.length inode.blocks in
    if keep < have && inode.open_tokens = 0 then begin
      let excess = Array.sub inode.blocks keep (have - keep) in
      inode.blocks <- Array.sub inode.blocks 0 keep;
      free_blocks t excess
    end
  end

let do_truncate t (inode : Inode.t) ~size =
  if size < inode.size then begin
    let keep = Inode.blocks_for ~size in
    let have = Array.length inode.blocks in
    if keep < have then begin
      let excess = Array.sub inode.blocks keep (have - keep) in
      inode.blocks <- Array.sub inode.blocks 0 keep;
      if inode.open_tokens > 0 then
        inode.orphans <- Array.append inode.orphans excess
      else free_blocks t excess
    end;
    (* POSIX: bytes past the new size read back as zero if the file is
       later extended — scrub the kept block's tail. *)
    (if keep > 0 then
       let tail = size mod bs in
       if tail > 0 then
         Hare_mem.Dram.zero_range t.dram
           ~block:inode.blocks.(keep - 1)
           ~off:tail ~len:(bs - tail));
    inode.size <- size
  end
  else if size > inode.size then begin
    ensure_blocks t inode ~size;
    inode.size <- size
  end

(* ---------- server-mediated file data (shared fds, RPC-mode I/O) ------ *)

let read_data t (inode : Inode.t) ~off ~len =
  let len = max 0 (min len (inode.size - off)) in
  if len = 0 then ""
  else begin
    let out = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let foff = off + !pos in
      let bi = foff / bs and boff = foff mod bs in
      let n = min (len - !pos) (bs - boff) in
      Hare_mem.Pcache.read_coherent t.pcache ~block:inode.blocks.(bi)
        ~off:boff ~len:n ~dst:out ~dst_off:!pos;
      pos := !pos + n
    done;
    Bytes.unsafe_to_string out
  end

let write_data t (inode : Inode.t) ~off data =
  let len = String.length data in
  ensure_blocks t inode ~size:(off + len);
  let src = Bytes.unsafe_of_string data in
  let pos = ref 0 in
  while !pos < len do
    let foff = off + !pos in
    let bi = foff / bs and boff = foff mod bs in
    let n = min (len - !pos) (bs - boff) in
    Hare_mem.Pcache.write_coherent t.pcache ~block:inode.blocks.(bi)
      ~off:boff ~len:n ~src ~src_off:!pos;
    pos := !pos + n
  done;
  if off + len > inode.size then inode.size <- off + len;
  len

(* ---------- directory shards and invalidation ------------------------- *)

let shard h dir =
  match Hashtbl.find_opt h.dirs dir with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 16 in
      Hashtbl.replace h.dirs dir s;
      s

(* This server's entries for [dir], across every home hosted here. *)
let shard_entries t dir =
  Hashtbl.fold
    (fun _ h acc ->
      match Hashtbl.find_opt h.dirs dir with
      | None -> acc
      | Some s ->
          Hashtbl.fold
            (fun name (e : Wire.entry_info) acc -> (name, e.t_ino) :: acc)
            s acc)
    t.homes []

let shard_size h dir =
  match Hashtbl.find_opt h.dirs dir with
  | None -> 0
  | Some s -> Hashtbl.length s

let track h ~dir ~name ~client =
  let per_dir =
    match Hashtbl.find_opt h.tracking dir with
    | Some m -> m
    | None ->
        let m = Hashtbl.create 16 in
        Hashtbl.replace h.tracking dir m;
        m
  in
  let clients =
    match Hashtbl.find_opt per_dir name with
    | Some c -> c
    | None ->
        let c = Hashtbl.create 4 in
        Hashtbl.replace per_dir name c;
        c
  in
  Hashtbl.replace clients client ()

let instant t name args =
  let o = Engine.obs t.engine in
  if Obs.on o Obs.marks then
    Obs.emit o (Instant { name; track = Core_res.id t.core; ts = Obs.now o; args })

(* One AFS-style callback (§3.6.1): tell [client] to drop its cached
   [dir]/[name]. Atomic message delivery means the server proceeds as
   soon as the send returns. *)
let inval t ~dir ~name client =
  Hare_msg.Mailbox.send t.inval_ports.(client) ~from:t.core
    (Wire.Inval_entry { i_dir = dir; i_name = name });
  (* Sanitizer obligation: the client must apply this invalidation before
     its next dircache hit on the entry (atomic delivery +
     drain-before-find make that a protocol guarantee, not a timing
     accident). *)
  let o = Engine.obs t.engine in
  if Obs.on o Obs.lint then begin
    let server = dir.Types.server and ino = dir.Types.ino in
    Obs.emit o (Dircache { kind = `Sent; client; server; ino; name })
  end;
  t.invals_sent <- t.invals_sent + 1

(* Callbacks are one-shot: notify every tracked client but the
   originator, then forget them — a client re-registers by looking the
   name up again. *)
let send_invals t h ~dir ~name ~except =
  match Hashtbl.find_opt h.tracking dir with
  | None -> ()
  | Some per_dir -> (
      match Hashtbl.find_opt per_dir name with
      | None -> ()
      | Some clients ->
          Hashtbl.iter
            (fun client () -> if client <> except then inval t ~dir ~name client)
            clients;
          Hashtbl.remove per_dir name)

let install_root t =
  assert (t.sid = root_ino.server);
  let h = home t t.sid in
  Hashtbl.replace h.inodes root_ino.ino
    (Inode.dir ~lid:root_ino.ino ~home:root_ino.server ~dist:false);
  h.next_lid <- max h.next_lid (root_ino.ino + 1)

(* ---------- request handlers ------------------------------------------ *)

let open_info (ofd : ofd) : Wire.open_info =
  {
    Wire.token = ofd.token;
    blocks = Array.copy ofd.inode.Inode.blocks;
    isize = ofd.inode.Inode.size;
  }

let do_open t (inode : Inode.t) ~trunc =
  if trunc then do_truncate t inode ~size:0;
  new_token t inode ~pipe_end:None

(* Demote a shared descriptor back to local state when only one process
   still holds it (§3.4): piggy-backed on the next operation's reply. *)
let demotion ofd =
  match ofd.shared_offset with
  | Some off when ofd.refcount <= 1 ->
      ofd.shared_offset <- None;
      Some off
  | _ -> None

let find_entry h dir name =
  match Hashtbl.find_opt h.dirs dir with
  | None -> None
  | Some s -> Hashtbl.find_opt s name

let handle_lookup h ~dir ~name ~client (reply : reply) =
  match find_entry h dir name with
  | None -> reply (Error Errno.ENOENT)
  | Some e ->
      track h ~dir ~name ~client;
      reply (Ok (Wire.P_lookup { target = e.t_ino; ftype = e.t_ftype; dist = e.t_dist }))

(* For a centralized directory the entries live with the inode, so we can
   (and must) refuse creations in a directory that no longer exists. For
   distributed directories this server may hold only a shard: the rmdir
   mark protocol delays concurrent creates, and the tombstone catches the
   ones that arrive after the commit. *)
let dir_alive t h (dir : ino) =
  (not (Hashtbl.mem h.dead_dirs dir))
  && ((not (hosts t dir.server)) || find_inode t dir <> None)

let handle_add_map t h ~dir ~name ~target ~ftype ~dist ~replace ~client
    (reply : reply) =
  if not (dir_alive t h dir) then reply (Error Errno.ENOENT)
  else
  let s = shard h dir in
  let entry = { Wire.t_ino = target; t_ftype = ftype; t_dist = dist } in
  match Hashtbl.find_opt s name with
  | Some old ->
      if not replace then reply (Error Errno.EEXIST)
      else if old.t_ftype = Dir then
        (* Replacing a directory would require checking emptiness across
           all shards; not needed by any POSIX workload we run. *)
        reply (Error Errno.EISDIR)
      else if ftype = Dir then
        (* POSIX: renaming a directory over an existing file is ENOTDIR. *)
        reply (Error Errno.ENOTDIR)
      else begin
        Hashtbl.replace s name entry;
        send_invals t h ~dir ~name ~except:client;
        track h ~dir ~name ~client;
        reply (Ok (Wire.P_removed { target = old.t_ino; ftype = old.t_ftype }))
      end
  | None ->
      Hashtbl.replace s name entry;
      track h ~dir ~name ~client;
      reply (Ok Wire.P_unit)

let handle_rm_map t h ~dir ~name ~only_if ~client (reply : reply) =
  match find_entry h dir name with
  | None -> reply (Error Errno.ENOENT)
  | Some e when (match only_if with Some ino -> e.t_ino <> ino | None -> false)
    ->
      (* the entry was re-bound by someone else: not ours to remove *)
      reply (Error Errno.ENOENT)
  | Some e ->
      Hashtbl.remove (shard h dir) name;
      send_invals t h ~dir ~name ~except:client;
      reply (Ok (Wire.P_removed { target = e.t_ino; ftype = e.t_ftype }))

let handle_readdir h ~dir (reply : reply) =
  let entries =
    match Hashtbl.find_opt h.dirs dir with
    | None -> []
    | Some s ->
        Hashtbl.fold
          (fun name (e : Wire.entry_info) acc ->
            { Wire.e_name = name; e_ino = e.t_ino; e_ftype = e.t_ftype } :: acc)
          s []
  in
  (* ~32 bytes of payload per entry. *)
  let payload_lines = (List.length entries / 2) + 1 in
  reply ~payload_lines (Ok (Wire.P_entries entries))

let handle_create_open t h ~dir ~name ~excl ~trunc ~client (reply : reply) =
  if not (dir_alive t h dir) then reply (Error Errno.ENOENT)
  else
  let s = shard h dir in
  match Hashtbl.find_opt s name with
  | Some e ->
      if excl then reply (Error Errno.EEXIST)
      else if e.t_ftype = Dir then reply (Error Errno.EISDIR)
      else if hosts t e.t_ino.server then begin
        match find_inode t e.t_ino with
        | None -> reply (Error Errno.ENOENT)
        | Some inode ->
            track h ~dir ~name ~client;
            let ofd = do_open t inode ~trunc in
            reply (Ok (Wire.P_open_ino { oi = open_info ofd; ino = e.t_ino }))
      end
      else
        (* The existing inode lives elsewhere; tell the client where. *)
        reply
          (Ok (Wire.P_lookup { target = e.t_ino; ftype = e.t_ftype; dist = e.t_dist }))
  | None ->
      let inode = Inode.file ~lid:(alloc_lid h) ~home:h.hid in
      Hashtbl.replace h.inodes inode.lid inode;
      let ino = global inode in
      Hashtbl.replace s name { Wire.t_ino = ino; t_ftype = Reg; t_dist = false };
      track h ~dir ~name ~client;
      let ofd = do_open t inode ~trunc:false in
      reply (Ok (Wire.P_open_ino { oi = open_info ofd; ino }))

let handle_create_inode t h ~ftype ~dist ~and_open (reply : reply) =
  let lid = alloc_lid h and home = h.hid in
  let inode =
    match (ftype : ftype) with
    | Reg -> Inode.file ~lid ~home
    | Dir -> Inode.dir ~lid ~home ~dist
    | Fifo -> invalid_arg "Create_inode: use Pipe_create for fifos"
  in
  Hashtbl.replace h.inodes lid inode;
  let ino = global inode in
  if and_open && ftype = Reg then
    let ofd = do_open t inode ~trunc:false in
    reply (Ok (Wire.P_open_ino { oi = open_info ofd; ino }))
  else reply (Ok (Wire.P_created_ino ino))

let drop_dir_state h dir =
  Hashtbl.remove h.dirs dir;
  Hashtbl.remove h.tracking dir;
  Hashtbl.remove h.locks dir

(* A committed directory removal: rmdirs serialized behind its lock lose
   (the directory is gone), its per-directory state goes, and a tombstone
   refuses creates that raced past the mark. *)
let bury h dir =
  (match Hashtbl.find_opt h.locks dir with
  | Some l ->
      Queue.iter (fun (waiter : reply) -> waiter (Error Errno.ENOENT)) l.lock_waiters;
      Queue.clear l.lock_waiters
  | None -> ());
  drop_dir_state h dir;
  Hashtbl.replace h.dead_dirs dir ()

(* Coalesced mkdir (§3.6.3): directory inode + parent entry in one
   message, when creation affinity placed both on this server. *)
let handle_create_dir t h ~dir ~name ~dist ~client (reply : reply) =
  if not (dir_alive t h dir) then reply (Error Errno.ENOENT)
  else begin
    let s = shard h dir in
    match Hashtbl.find_opt s name with
    | Some _ -> reply (Error Errno.EEXIST)
    | None ->
        let inode = Inode.dir ~lid:(alloc_lid h) ~home:h.hid ~dist in
        Hashtbl.replace h.inodes inode.lid inode;
        let ino = global inode in
        Hashtbl.replace s name { Wire.t_ino = ino; t_ftype = Dir; t_dist = dist };
        track h ~dir ~name ~client;
        reply (Ok (Wire.P_created_ino ino))
  end

(* Coalesced rmdir for centralized directories: all entries live here, so
   the emptiness check and removal are one atomic step — no marks, no
   lock phase. The request home is the directory's own home. *)
let handle_rmdir_local t ~dir (reply : reply) =
  match find_inode t dir with
  | None -> reply (Error Errno.ENOENT)
  | Some inode when inode.Inode.ftype <> Dir -> reply (Error Errno.ENOTDIR)
  | Some _ ->
      let h = home t dir.server in
      if shard_size h dir > 0 then reply (Error Errno.ENOTEMPTY)
      else begin
        bury h dir;
        Hashtbl.remove h.inodes dir.ino;
        reply (Ok Wire.P_unit)
      end

let with_inode t ino (reply : reply) f =
  match find_inode t ino with
  | None -> reply (Error Errno.ENOENT)
  | Some inode -> f inode

let handle_open_inode t ~ino ~trunc (reply : reply) =
  with_inode t ino reply (fun inode ->
      match inode.ftype with
      | Dir -> reply (Error Errno.EISDIR)
      | Fifo -> reply (Error Errno.EINVAL)
      | Reg ->
          let ofd = do_open t inode ~trunc in
          reply (Ok (Wire.P_open (open_info ofd))))

(* The descriptor table a token lives in: its home's. *)
let tokens t token = (home t (token_home t token)).tokens

let with_ofd t token (reply : reply) f =
  match Hashtbl.find_opt (tokens t token) token with
  | None -> reply (Error Errno.EBADF)
  | Some ofd -> f ofd

let handle_close t ~token ~size (reply : reply) =
  with_ofd t token reply (fun ofd ->
      (match size with
      | Some s when ofd.inode.ftype = Reg -> ofd.inode.size <- s
      | _ -> ());
      ofd.refcount <- ofd.refcount - 1;
      (match (ofd.pipe_end, ofd.inode.pipe) with
      | Some `R, Some p -> Pipe_state.close_reader p
      | Some `W, Some p -> Pipe_state.close_writer p
      | _ -> ());
      if ofd.refcount <= 0 then begin
        Hashtbl.remove (tokens t token) token;
        ofd.inode.open_tokens <- ofd.inode.open_tokens - 1;
        reclaim_lease t ofd.inode;
        maybe_release t ofd.inode
      end;
      reply (Ok Wire.P_unit))

let effective_offset ofd ~off =
  match off with
  | Some o -> Ok (o, false)
  | None -> (
      match ofd.shared_offset with
      | Some o -> Ok (o, true)
      | None -> Error Errno.EINVAL)

(* Server-mediated file I/O: [io ofd o advance] moves bytes at offset
   [o] and reports the count to [advance], which moves a shared offset
   past them and yields the demotion to piggy-back on the reply. *)
let file_io t ~token ~off (reply : reply) io =
  with_ofd t token reply (fun ofd ->
      if ofd.pipe_end <> None then reply (Error Errno.EINVAL)
      else
        match effective_offset ofd ~off with
        | Error e -> reply (Error e)
        | Ok (o, shared) ->
            io ofd o (fun moved ->
                if shared then begin
                  ofd.shared_offset <- Some (o + moved);
                  demotion ofd
                end
                else None))

let handle_read t ~token ~off ~len (reply : reply) =
  file_io t ~token ~off reply (fun ofd o advance ->
      let data = read_data t ofd.inode ~off:o ~len in
      let now_local = advance (String.length data) in
      let payload_lines = (String.length data / 64) + 1 in
      reply ~payload_lines (Ok (Wire.P_read { data; now_local })))

let handle_write t ~token ~off ~data (reply : reply) =
  file_io t ~token ~off reply (fun ofd o advance ->
      let written = write_data t ofd.inode ~off:o data in
      let now_local = advance written in
      reply (Ok (Wire.P_write { written; size = ofd.inode.size; now_local })))

let handle_lseek t ~token ~pos ~whence (reply : reply) =
  with_ofd t token reply (fun ofd ->
      if ofd.pipe_end <> None then reply (Error Errno.ESPIPE)
      else
        match ofd.shared_offset with
        | None -> reply (Error Errno.EINVAL)
        | Some cur ->
            let target =
              match (whence : whence) with
              | Seek_set -> pos
              | Seek_cur -> cur + pos
              | Seek_end -> ofd.inode.size + pos
            in
            if target < 0 then reply (Error Errno.EINVAL)
            else begin
              ofd.shared_offset <- Some target;
              reply (Ok (Wire.P_lseek target))
            end)

let handle_alloc t ~ino ~count ~ahead (reply : reply) =
  with_inode t ino reply (fun inode ->
      let want = Array.length inode.blocks + count in
      (* The extent hint is best effort: a partition too dry for the
         read-ahead falls back to the exact need before giving up. *)
      (if ahead > 0 then
         try ensure_blocks t inode ~size:((want + ahead) * bs)
         with Out_of_blocks -> ensure_blocks t inode ~size:(want * bs)
       else ensure_blocks t inode ~size:(want * bs));
      reply
        (Ok (Wire.P_blocks { blocks = Array.copy inode.blocks; bsize = inode.size })))

let handle_unlink_ino t ~ino (reply : reply) =
  with_inode t ino reply (fun inode ->
      if inode.ftype = Dir then begin
        (* Only mkdir's rollback unlinks a directory inode: it was never
           linked anywhere, so it must have no entries and no users. *)
        let h = home t ino.server in
        if
          shard_size h ino = 0
          && inode.open_tokens = 0
          && inode.nlink <= 1
        then begin
          drop_dir_state h ino;
          Hashtbl.remove h.inodes ino.ino;
          reply (Ok Wire.P_unit)
        end
        else reply (Error Errno.EISDIR)
      end
      else begin
        inode.nlink <- inode.nlink - 1;
        if inode.nlink <= 0 then begin
          inode.unlinked <- true;
          maybe_release t inode
        end;
        reply (Ok Wire.P_unit)
      end)

let handle_inc_fd_ref t ~token ~offset (reply : reply) =
  with_ofd t token reply (fun ofd ->
      ofd.refcount <- ofd.refcount + 1;
      (match (ofd.pipe_end, ofd.inode.pipe) with
      | Some `R, Some p -> Pipe_state.add_reader p
      | Some `W, Some p -> Pipe_state.add_writer p
      | _ -> ());
      (match (ofd.shared_offset, offset) with
      | None, Some o -> ofd.shared_offset <- Some o
      | _ -> ());
      reply (Ok Wire.P_unit))

(* --- three-phase rmdir (§3.3) ----------------------------------------- *)

(* The lock/unlock phases address the directory's own home. *)
let dirlock t (dir : ino) =
  let h = home t dir.server in
  match Hashtbl.find_opt h.locks dir with
  | Some l -> l
  | None ->
      let l = { held = false; lock_waiters = Queue.create () } in
      Hashtbl.replace h.locks dir l;
      l

(* ENOENT when the directory was removed while (or before) we asked. *)
let handle_rmdir_lock t ~dir (reply : reply) =
  with_inode t dir reply (fun _ ->
      let l = dirlock t dir in
      if l.held then Queue.push reply l.lock_waiters
      else begin
        l.held <- true;
        reply (Ok Wire.P_unit)
      end)

let handle_rmdir_unlock t ~dir (reply : reply) =
  let l = dirlock t dir in
  (match Queue.take_opt l.lock_waiters with
  | Some waiter -> waiter (Ok Wire.P_unit) (* lock passes to the next rmdir *)
  | None -> l.held <- false);
  reply (Ok Wire.P_unit)

let handle_rmdir_prepare h ~dir (reply : reply) =
  if Hashtbl.mem h.marks dir then reply (Error Errno.EBUSY)
  else if shard_size h dir > 0 then reply (Error Errno.ENOTEMPTY)
  else begin
    Hashtbl.replace h.marks dir { parked = Queue.create () };
    reply (Ok Wire.P_unit)
  end

let handle_rmdir_commit h ~dir (reply : reply) =
  (match Hashtbl.find_opt h.marks dir with
  | None -> ()
  | Some m ->
      Hashtbl.remove h.marks dir;
      (* Creates delayed behind the mark fail: the directory is gone. *)
      Queue.iter
        (fun ((_ : Wire.fs_req), (parked_reply : reply)) ->
          parked_reply (Error Errno.ENOENT))
        m.parked);
  bury h dir;
  if dir.server = h.hid then
    (* The directory's own home: destroy the inode itself. *)
    Hashtbl.remove h.inodes dir.ino;
  reply (Ok Wire.P_unit)

(* --- pipes (§5.2: make's jobserver) ----------------------------------- *)

let handle_pipe_create t h (reply : reply) =
  let inode = Inode.fifo ~lid:(alloc_lid h) ~home:h.hid ~capacity:65536 in
  Hashtbl.replace h.inodes inode.lid inode;
  let pipe = Option.get inode.pipe in
  Pipe_state.add_reader pipe;
  Pipe_state.add_writer pipe;
  let rd = new_token t inode ~pipe_end:(Some `R) in
  let wr = new_token t inode ~pipe_end:(Some `W) in
  reply
    (Ok (Wire.P_pipe { pipe_ino = global inode; rd = rd.token; wr = wr.token }))

let handle_pipe_read t ~token ~len (reply : reply) =
  with_ofd t token reply (fun ofd ->
      match (ofd.pipe_end, ofd.inode.pipe) with
      | Some `R, Some pipe ->
          Pipe_state.read pipe ~len (function
            | Ok data ->
                let payload_lines = (String.length data / 64) + 1 in
                reply ~payload_lines (Ok (Wire.P_read { data; now_local = None }))
            | Error e -> reply (Error e))
      | _ -> reply (Error Errno.EBADF))

let handle_pipe_write t ~token ~data (reply : reply) =
  with_ofd t token reply (fun ofd ->
      match (ofd.pipe_end, ofd.inode.pipe) with
      | Some `W, Some pipe ->
          Pipe_state.write pipe data (function
            | Ok written ->
                reply (Ok (Wire.P_write { written; size = 0; now_local = None }))
            | Error e -> reply (Error e))
      | _ -> reply (Error Errno.EBADF))

(* ---------- dispatch --------------------------------------------------- *)

(* Creates in a directory marked for deletion are delayed until the
   two-phase outcome is known (§3.3). The mark lives in the request's
   home. *)
let creation_mark t (req : Wire.fs_req) =
  match req with
  | Wire.Add_map { dir; home = hid; _ } | Wire.Create_open { dir; home = hid; _ } ->
      Hashtbl.find_opt (home t hid).marks dir
  | _ -> None

(* ---------- shard migration (consistent-hash rebalancing) -------------- *)

(* A home with parked continuations cannot be packed: the closures are
   bound to this server's endpoint and would answer from the wrong
   mailbox after the move. Parked work is also what keeps a [Pending]
   dedup entry alive, so a packable home has none. The coordinator backs
   off and retries. *)
let home_busy t h =
  Hashtbl.length h.marks > 0
  || t.steal_inflight
  || (not (Queue.is_empty t.steal_parked))
  || Hashtbl.fold
       (fun _ l busy -> busy || l.held || not (Queue.is_empty l.lock_waiters))
       h.locks false
  || Hashtbl.fold
       (fun _ (inode : Inode.t) busy ->
         busy
         ||
         match inode.Inode.pipe with
         | Some p -> Pipe_state.parked_readers p > 0 || Pipe_state.parked_writers p > 0
         | None -> false)
       h.inodes false

(* Pack logical home [hid] and hand it to the coordinator. The route was
   flipped before this message was sent, and the mailbox is FIFO, so
   everything that arrives after it finds the home absent and is bounced
   with EMOVED. *)
let handle_migrate_out t ~home:hid (reply : reply) =
  match Hashtbl.find_opt t.homes hid with
  | Some h when t.migratory ->
      if home_busy t h then reply (Error Errno.EBUSY)
      else begin
        (* Invalidation tracking does not transplant: fire every
           registered callback now (one-shot semantics — clients
           re-register at the new owner on their next lookup), so no
           client can sit on a cached entry this server would have been
           responsible for invalidating. *)
        Hashtbl.iter
          (fun dir per_dir ->
            Hashtbl.iter
              (fun name clients ->
                Hashtbl.iter (fun client () -> inval t ~dir ~name client) clients)
              per_dir)
          h.tracking;
        Hashtbl.reset h.tracking;
        (* Buffer-cache ownership follows the inodes; the block bytes stay
           in DRAM. Flush our private cached lines so the new owner reads
           current data through its own cache. *)
        let p_blocks =
          Array.concat
            (Hashtbl.fold (fun _ (i : Inode.t) acc -> i.blocks :: i.orphans :: acc) h.inodes [])
        in
        Array.iter
          (fun b ->
            Hare_mem.Pcache.writeback_block t.pcache b;
            Hare_mem.Pcache.invalidate_block t.pcache b)
          p_blocks;
        Blocklist.export t.blocks p_blocks;
        Hashtbl.remove t.homes hid;
        t.homes_out <- t.homes_out + 1;
        (* Completed idempotency entries travel with the shard: a client
           retrying a request the old owner already executed must replay
           the cached response at the new owner, not re-execute. *)
        let p_dedup = Dedup.export t.dedup in
        let items =
          Hashtbl.length h.inodes + Hashtbl.length h.tokens
          + Hashtbl.length h.dirs + List.length p_dedup
        in
        reply ~payload_lines:(items + 1)
          (Ok (Wire.P_pack (Pack { p_home = h; p_blocks; p_dedup })))
      end
  | _ -> reply (Error Errno.EINVAL)

let handle_install_shard t ~home:hid ~pack (reply : reply) =
  match pack with
  | Pack p when t.migratory ->
      Blocklist.adopt_allocated t.blocks p.p_blocks;
      Dedup.import t.dedup p.p_dedup;
      Hashtbl.replace t.homes hid p.p_home;
      t.homes_in <- t.homes_in + 1;
      reply (Ok Wire.P_unit)
  | _ -> reply (Error Errno.EINVAL)

let handle_steal_blocks t ~count (reply : reply) =
  (* Donate at most half of what is free: stay useful to local files. *)
  let give = Blocklist.donate t.blocks (min count (Blocklist.available t.blocks / 2)) in
  if Array.length give = 0 then reply (Error Errno.ENOSPC)
  else reply (Ok (Wire.P_blocks { blocks = give; bsize = 0 }))

let rec handle t (req : Wire.fs_req) (reply : reply) =
  match creation_mark t req with
  | Some m -> Queue.push (req, reply) m.parked
  | None -> (
      try dispatch t req reply with Out_of_blocks -> on_enospc t req reply)

(* Block stealing (extension, §3.2): a request that ran out of blocks is
   parked; we ask peers — one at a time, round-robin — to donate, via a
   helper fiber so the dispatch loop never blocks. Once every peer has
   declined since the last success, the parked requests fail for real. *)
and on_enospc t (req : Wire.fs_req) (reply : reply) =
  if
    (not t.config.Hare_config.Config.block_stealing)
    || Array.length t.peers <= 1
  then reply (Error Errno.ENOSPC)
  else begin
    Queue.push (req, reply) t.steal_parked;
    kick_steal t
  end

and kick_steal t =
  if (not t.steal_inflight) && not (Queue.is_empty t.steal_parked) then
    if t.steal_failures >= Array.length t.peers - 1 then begin
      t.steal_failures <- 0;
      List.iter
        (fun ((_ : Wire.fs_req), (r : reply)) -> r (Error Errno.ENOSPC))
        (take_all t.steal_parked)
    end
    else begin
      t.steal_inflight <- true;
      t.steal_victim <- (t.steal_victim + 1) mod Array.length t.peers;
      if t.steal_victim = t.sid then
        t.steal_victim <- (t.steal_victim + 1) mod Array.length t.peers;
      let future, span =
        Hare_msg.Rpc.call_async t.peers.(t.steal_victim) ~from:t.core
          ~abs_deadline:0L (Wire.Steal_blocks { count = 128 })
      in
      ignore
        (Engine.spawn t.engine
           ~name:(Printf.sprintf "steal-%d" t.sid)
           (fun () ->
             let resp =
               Hare_msg.Rpc.await ~from:t.core ~costs:t.costs ~span future
             in
             t.steal_inflight <- false;
             (match resp with
             | Ok (Wire.P_blocks { blocks; _ }) ->
                 t.steal_failures <- 0;
                 t.blocks_stolen <- t.blocks_stolen + Array.length blocks;
                 Blocklist.adopt t.blocks blocks
             | Ok _ | Error _ -> t.steal_failures <- t.steal_failures + 1);
             List.iter
               (fun (preq, prep) -> handle t preq prep)
               (take_all t.steal_parked);
             kick_steal t))
    end

and dispatch t (req : Wire.fs_req) (reply : reply) =
  match req with
  | Wire.Lookup { dir; name; client; home = hid } ->
      handle_lookup (home t hid) ~dir ~name ~client reply
  | Wire.Add_map { dir; name; target; ftype; dist; replace; client; home = hid } ->
      handle_add_map t (home t hid) ~dir ~name ~target ~ftype ~dist ~replace
        ~client reply
  | Wire.Rm_map { dir; name; only_if; client; home = hid } ->
      handle_rm_map t (home t hid) ~dir ~name ~only_if ~client reply
  | Wire.Readdir_shard { dir; home = hid } -> handle_readdir (home t hid) ~dir reply
  | Wire.Create_open { dir; name; excl; trunc; client; home = hid } ->
      handle_create_open t (home t hid) ~dir ~name ~excl ~trunc ~client reply
  | Wire.Create_inode { ftype; dist; and_open; home = hid } ->
      handle_create_inode t (home t hid) ~ftype ~dist ~and_open reply
  | Wire.Create_dir { dir; name; dist; client; home = hid } ->
      handle_create_dir t (home t hid) ~dir ~name ~dist ~client reply
  | Wire.Rmdir_local { dir; client = _ } -> handle_rmdir_local t ~dir reply
  | Wire.Open_inode { ino; trunc; client = _ } -> handle_open_inode t ~ino ~trunc reply
  | Wire.Close_fd { token; size } -> handle_close t ~token ~size reply
  | Wire.Read_fd { token; off; len } -> handle_read t ~token ~off ~len reply
  | Wire.Write_fd { token; off; data } -> handle_write t ~token ~off ~data reply
  | Wire.Lseek_fd { token; pos; whence } -> handle_lseek t ~token ~pos ~whence reply
  | Wire.Alloc_blocks { ino; count; ahead } -> handle_alloc t ~ino ~count ~ahead reply
  | Wire.Get_blocks { ino } ->
      with_inode t ino reply (fun inode ->
          reply
            (Ok (Wire.P_blocks { blocks = Array.copy inode.blocks; bsize = inode.size })))
  | Wire.Update_size { token; size } ->
      with_ofd t token reply (fun ofd ->
          if ofd.inode.ftype = Reg then ofd.inode.size <- size;
          reply (Ok Wire.P_unit))
  | Wire.Get_attr { ino } ->
      with_inode t ino reply (fun inode -> reply (Ok (Wire.P_attr (Inode.attr inode))))
  | Wire.Truncate { ino; size } ->
      with_inode t ino reply (fun inode ->
          do_truncate t inode ~size;
          reply (Ok Wire.P_unit))
  | Wire.Unlink_ino { ino } -> handle_unlink_ino t ~ino reply
  | Wire.Inc_fd_ref { token; offset } -> handle_inc_fd_ref t ~token ~offset reply
  | Wire.Rmdir_lock { dir } -> handle_rmdir_lock t ~dir reply
  | Wire.Rmdir_unlock { dir } -> handle_rmdir_unlock t ~dir reply
  | Wire.Rmdir_prepare { dir; home = hid } ->
      handle_rmdir_prepare (home t hid) ~dir reply
  | Wire.Rmdir_commit { dir; client = _; home = hid } ->
      handle_rmdir_commit (home t hid) ~dir reply
  | Wire.Rmdir_abort { dir; home = hid } -> (
      let h = home t hid in
      match Hashtbl.find_opt h.marks dir with
      | None -> reply (Ok Wire.P_unit)
      | Some m ->
          Hashtbl.remove h.marks dir;
          reply (Ok Wire.P_unit);
          (* Replay the creates that were delayed behind the mark. *)
          Queue.iter
            (fun (parked_req, (parked_reply : reply)) ->
              handle t parked_req parked_reply)
            m.parked)
  | Wire.Pipe_create { home = hid; _ } -> handle_pipe_create t (home t hid) reply
  | Wire.Pipe_read { token; len } -> handle_pipe_read t ~token ~len reply
  | Wire.Pipe_write { token; data } -> handle_pipe_write t ~token ~data reply
  | Wire.Steal_blocks { count } -> handle_steal_blocks t ~count reply
  | Wire.Migrate_out { home } -> handle_migrate_out t ~home reply
  | Wire.Install_shard { home; pack } -> handle_install_shard t ~home ~pack reply

(* ---------- execution, idempotency, crash/recovery --------------------- *)

(* [dispatch = false] marks a request handled as part of a drained batch
   after its first message: the per-wakeup dispatch preamble was already
   paid once for the whole batch, so only the operation's marginal cost
   is charged (PR 2 batch dispatch). *)
let execute ?(dispatch = true) ?(span = 0) t (req : Wire.fs_req) (reply : reply)
    =
  let info = Wire.info req in
  Hare_stats.Opcount.incr t.ops info.name;
  let dcost = if dispatch then t.costs.server_dispatch else 0 in
  let ocost =
    match req with
    (* allocation is charged per block granted, extent lease included *)
    | Wire.Alloc_blocks { count; ahead; _ } -> info.cost * max 1 (count + ahead)
    | _ -> info.cost
  in
  (* A server-side span, child of the request: its bucket breakdown is
     recorded for the client's blocked-await. *)
  let o = Engine.obs t.engine in
  let fid = Engine.current_fid t.engine in
  if Obs.on o Obs.spans then begin
    let op = info.span and args () = Wire.req_args req in
    let pending = [ (Obs.Dispatch, dcost); (Compute, ocost) ] in
    let track = Core_res.id t.core and ts = Obs.now o in
    Obs.emit o (Span_open { fid; op; track; parent = span; ts; args; pending })
  end;
  let close () =
    if Obs.on o Obs.spans then
      Obs.emit o (Span_close { fid; ts = Obs.now o; server = true })
  in
  Core_res.compute t.core (dcost + ocost);
  match handle t req reply with
  | () -> close ()
  | exception Errno.Error (e, _) ->
      reply (Error e);
      close ()
  | exception e ->
      close ();
      raise e

(* Which logical home a request addresses; -1 for requests with no home
   affinity (block stealing, the migration protocol itself). Entry
   operations carry it explicitly; inode and token operations encode it
   in the target id. *)
let req_home t (req : Wire.fs_req) =
  match req with
  | Wire.Lookup { home; _ }
  | Wire.Add_map { home; _ }
  | Wire.Rm_map { home; _ }
  | Wire.Readdir_shard { home; _ }
  | Wire.Create_open { home; _ }
  | Wire.Create_inode { home; _ }
  | Wire.Create_dir { home; _ }
  | Wire.Rmdir_prepare { home; _ }
  | Wire.Rmdir_commit { home; _ }
  | Wire.Rmdir_abort { home; _ }
  | Wire.Pipe_create { home; _ } ->
      home
  | Wire.Open_inode { ino; _ }
  | Wire.Alloc_blocks { ino; _ }
  | Wire.Get_blocks { ino }
  | Wire.Get_attr { ino }
  | Wire.Truncate { ino; _ }
  | Wire.Unlink_ino { ino } ->
      ino.server
  | Wire.Rmdir_lock { dir } | Wire.Rmdir_unlock { dir } | Wire.Rmdir_local { dir; _ } ->
      dir.server
  | Wire.Close_fd { token; _ }
  | Wire.Read_fd { token; _ }
  | Wire.Write_fd { token; _ }
  | Wire.Lseek_fd { token; _ }
  | Wire.Update_size { token; _ }
  | Wire.Inc_fd_ref { token; _ }
  | Wire.Pipe_read { token; _ }
  | Wire.Pipe_write { token; _ } ->
      token_home t token
  | Wire.Steal_blocks _ | Wire.Migrate_out _ | Wire.Install_shard _ -> -1

let process ?(dispatch = true) ?(span = 0) t (req : Wire.fs_req) (reply : reply)
    (meta : Hare_msg.Rpc.meta option) =
  if
    t.migratory
    && (let h = req_home t req in
        h >= 0 && not (hosts t h))
  then begin
    (* The addressed home moved away. Bounce with EMOVED *before* any
       execution or dedup recording: the reject must never be cached as
       this request's outcome (the cached entry would migrate with the
       shard and shadow the real execution), and the retry — same
       idempotency tag, new owner — must be free to execute. *)
    t.moved_rejects <- t.moved_rejects + 1;
    Core_res.compute t.core
      (if dispatch then t.costs.server_dispatch else 0);
    reply (Error Errno.EMOVED)
  end
  else
  match meta with
  | None -> execute ~dispatch ~span t req reply
  | Some m -> (
      match Dedup.admit t.dedup m reply with
      | Replay resp ->
          (* Retransmission of a completed request: replay the cached
             response without re-executing the operation. *)
          Robust.incr t.robust Robust.dedup_hits;
          Core_res.compute t.core t.costs.server_dispatch;
          reply resp
      | Joined ->
          (* The original is still executing (or parked); this copy's
             reply slot is answered alongside it. *)
          Robust.incr t.robust Robust.dedup_hits
      | Fresh p ->
          let reply' ?payload_lines resp =
            match Dedup.finish p resp with
            | None -> ()
            | Some joined ->
                reply ?payload_lines resp;
                List.iter (fun (r : reply) -> r resp) joined
          in
          execute ~dispatch ~span t req reply')

let crash t =
  if not t.down then begin
    t.down <- true;
    (match t.faults with
    | Some l -> Hare_fault.Injector.set_down l true
    | None -> ());
    Robust.incr t.robust Robust.crashes;
    Log.debug (fun m -> m "server %d crashes at %Ld" t.sid (Engine.now t.engine));
    instant t "crash" [ ("server", string_of_int t.sid) ];
    let aborted = ref 0 in
    let abort (reply : reply) =
      incr aborted;
      reply (Error Errno.EIO)
    in
    (* In-flight queued requests die with the server. Tagged copies just
       vanish — the client's deadline fires and it retries. Untagged
       (reliable, non-retryable) requests get EIO so their callers
       unblock. *)
    List.iter
      (fun (r : _ Hare_msg.Rpc.request) ->
        match r.meta with Some _ -> incr aborted | None -> abort r.reply)
      (Hare_msg.Rpc.drain_pending t.endpoint);
    (* Parked continuations are volatile: error them all out. *)
    Hashtbl.iter
      (fun _ h ->
        Hashtbl.iter
          (fun _ (m : mark) -> Queue.iter (fun (_, r) -> abort r) m.parked)
          h.marks;
        Hashtbl.reset h.marks;
        Hashtbl.iter
          (fun _ (l : dirlock) -> Queue.iter abort l.lock_waiters)
          h.locks;
        Hashtbl.reset h.locks)
      t.homes;
    List.iter (fun (_, r) -> abort r) (take_all t.steal_parked);
    t.steal_inflight <- false;
    t.steal_failures <- 0;
    Hashtbl.iter
      (fun _ h ->
        Hashtbl.iter
          (fun _ (inode : Inode.t) ->
            match inode.Inode.pipe with
            | Some p -> aborted := !aborted + Pipe_state.abort_parked p
            | None -> ())
          h.inodes;
        (* Volatile tables: descriptors, idempotency memory, invalidation
           tracking. The DRAM-resident structures (inodes, directory
           shards, tombstones, block contents) survive. *)
        Hashtbl.reset h.tokens;
        Hashtbl.iter
          (fun _ (inode : Inode.t) -> inode.Inode.open_tokens <- 0)
          h.inodes;
        Hashtbl.reset h.tracking)
      t.homes;
    Dedup.reset t.dedup;
    (* A dead server's queue depth is meaningless; keep it out of
       deadlock reports (and free the probe slot) until restart. *)
    Hare_msg.Rpc.unwatch t.endpoint;
    Robust.add t.robust Robust.aborted !aborted
  end

let restart t =
  if t.down then begin
    Log.debug (fun m ->
        m "server %d restarts at %Ld" t.sid (Engine.now t.engine));
    instant t "restart" [ ("server", string_of_int t.sid) ];
    (* Every descriptor died with the crash, so orphaned blocks and
       unlinked inodes have no remaining users; the free list becomes
       whatever the surviving inodes do not reference. *)
    let live = Hashtbl.create 4096 in
    let extent = t.config.Hare_config.Config.alloc_extent > 1 in
    Hashtbl.iter
      (fun _ h ->
        Hashtbl.filter_map_inplace
          (fun _ (inode : Inode.t) ->
            inode.Inode.orphans <- [||];
            if inode.Inode.unlinked && inode.Inode.nlink <= 0 then None
            else begin
              (* Extent leases were held on behalf of descriptors that
                 died with the crash: trim every file back to its size so
                 the surplus blocks rejoin the free list below. *)
              (if extent && inode.Inode.ftype = Reg then
                 let keep = Inode.blocks_for ~size:inode.Inode.size in
                 if keep < Array.length inode.Inode.blocks then
                   inode.Inode.blocks <- Array.sub inode.Inode.blocks 0 keep);
              Array.iter (fun b -> Hashtbl.replace live b ()) inode.Inode.blocks;
              Some inode
            end)
          h.inodes)
      t.homes;
    let reclaimed = Blocklist.rebuild t.blocks ~live in
    Robust.add t.robust Robust.blocks_rebuilt reclaimed;
    t.down <- false;
    Hare_msg.Rpc.rewatch t.endpoint;
    (match t.faults with
    | Some l -> Hare_fault.Injector.set_down l false
    | None -> ());
    Robust.incr t.robust Robust.restarts;
    (* Clients cannot tell which of their cached entries this server
       would have invalidated while it was down: make them flush. *)
    Array.iter
      (fun port ->
        Hare_msg.Mailbox.send port ~from:t.core Wire.Inval_all;
        t.invals_sent <- t.invals_sent + 1)
      t.inval_ports;
    (* Serve the reliable requests that queued up while we were down. *)
    List.iter
      (fun (r : _ Hare_msg.Rpc.request) ->
        process ~span:r.span t r.body r.reply r.meta)
      (take_all t.boot_queue)
  end

let start t =
  let batch_max = max 1 t.config.Hare_config.Config.batch_max in
  let wm = t.config.Hare_config.Config.shed_watermark in
  let shed_instant name req =
    if Obs.on (Engine.obs t.engine) Obs.marks then
      instant t name [ ("op", (Wire.info req).name) ]
  in
  (* Class shed first: a categorical EBUSY tells the client to back off
     now, whereas an expiry drop costs it a full timeout — so above the
     watermark the deferrable classes (background first, then data;
     metadata never) are pushed back even if the copy has also expired.
     Only fresh copies are shed: the verdict is cached in the dedup table
     so a duplicate replays its original's outcome (EBUSY included)
     rather than executing the operation invisibly or being counted as a
     second shed. *)
  let sheds m req =
    wm > 0
    && (let depth = Hare_msg.Rpc.pending t.endpoint in
        match (Wire.info req).shed with
        | Metadata -> false
        | Data -> depth > 2 * wm
        | Background -> depth > wm)
    && not (Dedup.seen t.dedup m)
  in
  let serve ~dispatch (r : _ Hare_msg.Rpc.request) =
    let { Hare_msg.Rpc.body = req; reply; meta; span; deadline } = r in
    if t.down then
      (* The process is gone; only reliable sends still land here (the
         injector blackholes unreliable ones). Hold them for reboot. *)
      Queue.push r t.boot_queue
    else
      match meta with
      | Some m when sheds m req ->
          Robust.incr t.robust Robust.shed_load;
          shed_instant "shed-load" req;
          Core_res.compute t.core t.costs.server_dispatch;
          Dedup.shed t.dedup m;
          reply (Error Errno.EBUSY)
      | Some _ when deadline > 0L && Engine.now t.engine > deadline ->
          (* Already expired: the client's RPC deadline fired before we
             got here, so a retransmission (with a fresh deadline) is
             already on its way. Serving this copy would be wasted work —
             drop it without replying, charging only the envelope
             examination. *)
          Robust.incr t.robust Robust.shed_expired;
          shed_instant "shed-expired" req;
          Core_res.compute t.core t.costs.server_dispatch
      | _ -> process ~dispatch ~span t req reply meta
  in
  let rec loop () =
    (* Batch dispatch: drain up to [batch_max] queued requests per
       wakeup. The receive costs are charged in one compute call, the
       whole batch shares a single context switch, and the dispatch
       preamble is paid once per wakeup — each message past the first
       costs only its operation. [batch_max = 1] is the paper's
       one-request-per-wakeup loop, cycle for cycle. *)
    let batch = Hare_msg.Rpc.recv_batch_full t.endpoint ~max:batch_max in
    Perf.note_batch t.perf (List.length batch);
    let o = Engine.obs t.engine in
    if Obs.on o Obs.marks then begin
      let track = Core_res.id t.core and value = List.length batch in
      Obs.emit o (Counter { name = "batch"; track; ts = Obs.now o; value })
    end;
    List.iteri
      (fun i msg ->
        if i > 0 then Hare_msg.Rpc.charge_recv t.endpoint;
        serve ~dispatch:(i = 0) msg)
      batch;
    loop ()
  in
  ignore
    (Engine.spawn t.engine ~daemon:true
       ~name:(Printf.sprintf "fs-server-%d" t.sid)
       loop)
