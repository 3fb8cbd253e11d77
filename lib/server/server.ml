open Hare_sim
open Hare_proto
open Hare_proto.Types
module Robust = Hare_stats.Robust
module Perf = Hare_stats.Perf

(* Per-home table keys: lids and tokens, names; [Home.Dtbl] keys dirs. *)
module Itbl = Tbl.Int
module Stbl = Tbl.Str

exception Out_of_blocks
(* Raised when the local buffer-cache partition is dry; the dispatch loop
   turns it into ENOSPC or, with the block-stealing extension enabled,
   parks the request and steals from a peer (§3.2). *)

(* The home record and its table operations (directory records). *)
open Home

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
  (* The logical homes this physical server currently serves. *)
  homes : Home.homes;
  inval_ports : Wire.inval Hare_msg.Mailbox.t array;
  ops : Hare_stats.Opcount.t;
  perf : Perf.t;
  mutable invals_sent : int;
  (* robustness: crash state, idempotency, counters *)
  faults : Hare_fault.Injector.link option;
  mutable down : bool;
  (* reliable messages that arrived while down; served after restart *)
  boot_queue : request Queue.t;
  dedup : reply Dedup.t;
  robust : Robust.t;
  (* extensions: admission (overload, EMOVED), stealing, migration *)
  admission : Admission.t;
  steal : Steal.t;
  migrate : Migrate.t;
}

let bs = Hare_mem.Layout.block_size

let create ~engine ~config ~sid ~core ~pcache ~dram ~blocks_first ~blocks_count
    ~inval_ports ?faults () =
  let homes = Home.homes () in
  (* A spare server (physical id beyond the logical home space) boots
     hosting nothing; it acquires homes via Install_shard when its ring
     Add event fires. Everyone else starts as its own home. *)
  if sid < Hare_config.Config.nservers config then Home.host homes (Home.create sid);
  let perf = Perf.create () and robust = Robust.create () in
  let blocks = Blocklist.create ~first:blocks_first ~count:blocks_count in
  let endpoint =
    Hare_msg.Rpc.endpoint
      ~name:(Printf.sprintf "fs%d" sid)
      ?capacity:
        (if config.Hare_config.Config.mailbox_capacity > 0 then
           Some config.Hare_config.Config.mailbox_capacity
         else None)
      ?faults ~owner:core ~costs:config.Hare_config.Config.costs ()
  in
  let dedup = Dedup.create ~perf in
  {
    sid;
    engine;
    config;
    costs = config.Hare_config.Config.costs;
    core;
    pcache;
    dram;
    blocks;
    endpoint;
    homes;
    inval_ports;
    ops = Hare_stats.Opcount.create ();
    perf;
    invals_sent = 0;
    faults;
    down = false;
    boot_queue = Queue.create ();
    dedup;
    robust;
    admission =
      Admission.create ~engine ~config ~core ~endpoint ~robust ~dedup ~homes;
    steal = Steal.create ~engine ~config ~sid ~core ~blocks;
    migrate = Migrate.create ~homes ~pcache ~blocks ~dedup;
  }

let sid t = t.sid

let pcache t = t.pcache

let endpoint t = t.endpoint

let ops t = t.ops

let perf t = t.perf

let invals_sent t = t.invals_sent

let available_blocks t = Blocklist.available t.blocks

let sum_homes t f = Itbl.fold (fun _ h n -> n + f h) t.homes.table 0

let inode_count t = sum_homes t (fun h -> Itbl.length h.inodes)

let open_tokens t = sum_homes t (fun h -> Itbl.length h.tokens)

let dentry_count t =
  sum_homes t (fun h -> Dtbl.fold (fun _ s n -> n + shard_length s) h.dirs 0)

let set_peers t peers = Steal.set_peers t.steal peers

let blocks_stolen t = Steal.stolen t.steal

let robust t = t.robust

(* ---------- logical homes ---------------------------------------------- *)

(* The record of a home hosted here. Requests for homes hosted elsewhere
   never reach a handler: admission bounces them with EMOVED. *)
let home t hid = Home.find t.homes hid

let hosts t hid = Home.hosts t.homes hid

let hosted_homes t =
  Itbl.fold (fun h _ acc -> h :: acc) t.homes.table [] |> List.sort compare

let moved_rejects t = Admission.moved_rejects t.admission

let peak_queue t = Hare_msg.Rpc.peak_pending t.endpoint

let reset_peak_queue t = Hare_msg.Rpc.reset_peak t.endpoint

let queue_depth t = Hare_msg.Rpc.pending t.endpoint

(* ---------- inode and token helpers ----------------------------------- *)

let find_inode t (ino : ino) =
  match Home.lookup t.homes ino.server with
  | Some h -> Itbl.find_opt h.inodes ino.ino
  | None -> None

let global (inode : Inode.t) =
  { server = inode.Inode.home; ino = inode.Inode.lid }

(* A descriptor lives with its inode's home (the home a token names). *)
let new_token t (inode : Inode.t) ~pipe_end =
  let h = home t inode.Inode.home in
  let token = Home.mint_token h in
  let ofd = { token; inode; refcount = 1; shared_offset = None; pipe_end } in
  Itbl.replace h.tokens token ofd;
  inode.Inode.open_tokens <- inode.Inode.open_tokens + 1;
  ofd

(* A freed block's bytes are never read again (the next allocation
   zeroes it), so its DRAM page goes back once the partition took every
   block. *)
let free_blocks t blocks =
  Blocklist.free_many t.blocks blocks;
  Array.iter (fun b -> Hare_mem.Dram.release t.dram ~block:b) blocks

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
      Itbl.remove (home t inode.home).inodes inode.lid
    end
  end

(* Allocate (zeroed) blocks so the file covers [size] bytes. Raises
   {!Out_of_blocks} — with no state mutated — when the partition is dry,
   so the whole request can be retried after stealing. *)
let ensure_blocks t (inode : Inode.t) ~size =
  let have = Array.length inode.blocks in
  let need = Hare_mem.Layout.blocks_for size in
  if need > have then
    match Blocklist.alloc_many t.blocks (need - have) with
    | None -> raise Out_of_blocks
    | Some fresh ->
        Array.iter (fun b -> Hare_mem.Dram.zero_block t.dram ~block:b) fresh;
        inode.blocks <- Array.append inode.blocks fresh

(* Extent leases (alloc_extent > 1) die with the last descriptor: blocks
   allocated ahead of the file size return to the free list once no open
   token can address them, unless a crash forgot a descriptor that still
   may. Inert at the paper-faithful extent of 1, where allocation never
   runs ahead of need. *)
let reclaim_lease t (inode : Inode.t) =
  if
    t.config.Hare_config.Config.alloc_extent > 1
    && inode.open_tokens = 0 && not inode.keep_lease
  then
    free_blocks t (Inode.cut inode ~keep:(Hare_mem.Layout.blocks_for inode.size))

let do_truncate t (inode : Inode.t) ~size =
  if size < inode.size then begin
    let keep = Hare_mem.Layout.blocks_for size in
    let excess = Inode.cut inode ~keep in
    if Array.length excess > 0 then
      if inode.open_tokens > 0 then
        inode.orphans <- Array.append inode.orphans excess
      else free_blocks t excess;
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
  let len = Int.max 0 (Int.min len (inode.size - off)) in
  if len = 0 then ""
  else begin
    let out = Bytes.create len in
    Hare_mem.Layout.iter_range inode.blocks ~off ~len
      (fun pc ~block ~off ~len dst dst_off ->
        Hare_mem.Pcache.read_coherent pc ~block ~off ~len ~dst ~dst_off)
      t.pcache out;
    Bytes.unsafe_to_string out
  end

let write_data t (inode : Inode.t) ~off data =
  let len = String.length data in
  ensure_blocks t inode ~size:(off + len);
  Hare_mem.Layout.iter_range inode.blocks ~off ~len
    (fun pc ~block ~off ~len src src_off ->
      Hare_mem.Pcache.write_coherent pc ~block ~off ~len ~src ~src_off)
    t.pcache (Bytes.unsafe_of_string data);
  if off + len > inode.size then inode.size <- off + len;
  len

(* ---------- directory shards and invalidation ------------------------- *)

(* This server's entries for [dir], across every home hosted here. *)
let shard_entries t dir =
  Itbl.fold
    (fun _ h acc ->
      shard_fold
        (fun name (e : Wire.entry_info) acc -> (name, e.t_ino) :: acc)
        (find_dir h dir) acc)
    t.homes.table []

let instant t name args =
  let o = Engine.obs t.engine in
  if o.Obs.wanted land Obs.marks <> 0 then
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
  if o.Obs.wanted land Obs.lint <> 0 then begin
    let server = dir.Types.server and ino = dir.Types.ino in
    Obs.emit o (Dircache { kind = `Sent; client; server; ino; name })
  end;
  t.invals_sent <- t.invals_sent + 1

(* Callbacks are one-shot: notify every tracked client but the
   originator, then forget them — a client re-registers by looking the
   name up again. *)
let send_invals t d ~dir ~name ~except =
  match Stbl.find_opt d.clients name with
  | None -> ()
  | Some clients ->
      Home.iter_clients
        (fun client -> if client <> except then inval t ~dir ~name client)
        clients;
      Stbl.remove d.clients name

let install_root t =
  assert (t.sid = root_ino.server);
  let h = home t t.sid in
  Itbl.replace h.inodes root_ino.ino
    (Inode.dir ~lid:root_ino.ino ~home:root_ino.server ~dist:false);
  h.next_lid <- Int.max h.next_lid (root_ino.ino + 1)

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

let handle_lookup h ~dir ~name ~client (reply : reply) =
  let d = find_dir h dir in
  match shard_find d name with
  | None -> reply (Error Errno.ENOENT)
  | Some e ->
      track d ~name ~client;
      reply (Ok (Wire.P_lookup e))

(* The record of [dir] ready to take an entry, or a tombstone when the
   directory no longer exists. For a centralized directory the entries
   live with the inode, so we can (and must) refuse creations in a
   directory whose inode is gone. For distributed directories this server
   may hold only a shard: the rmdir mark protocol delays concurrent
   creates, and the tombstone catches the ones that arrive after the
   commit. A refused create makes no record. *)
let live_shard t h (dir : ino) =
  if hosts t dir.server && find_inode t dir = None then Home.gone else shard h dir

let handle_add_map t h ~dir ~name ~target ~ftype ~dist ~replace ~client
    (reply : reply) =
  let s = live_shard t h dir in
  if s.dead then reply (Error Errno.ENOENT)
  else
  let entry = { Wire.t_ino = target; t_ftype = ftype; t_dist = dist } in
  match shard_find s name with
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
        shard_set s name entry;
        send_invals t s ~dir ~name ~except:client;
        track s ~name ~client;
        reply (Ok (Wire.P_removed { target = old.t_ino; ftype = old.t_ftype }))
      end
  | None ->
      shard_set s name entry;
      track s ~name ~client;
      reply (Ok Wire.P_unit)

let handle_rm_map t h ~dir ~name ~only_if ~client (reply : reply) =
  let d = find_dir h dir in
  match shard_find d name with
  | None -> reply (Error Errno.ENOENT)
  | Some e
    when match only_if with
         | Some ino -> not (equal_ino e.t_ino ino)
         | None -> false ->
      (* the entry was re-bound by someone else: not ours to remove *)
      reply (Error Errno.ENOENT)
  | Some e ->
      shard_remove d name;
      send_invals t d ~dir ~name ~except:client;
      reply (Ok (Wire.P_removed { target = e.t_ino; ftype = e.t_ftype }))

let handle_create_open t h ~dir ~name ~excl ~trunc ~client (reply : reply) =
  let s = live_shard t h dir in
  if s.dead then reply (Error Errno.ENOENT)
  else
  match shard_find s name with
  | Some e ->
      if excl then reply (Error Errno.EEXIST)
      else if e.t_ftype = Dir then reply (Error Errno.EISDIR)
      else if hosts t e.t_ino.server then begin
        match find_inode t e.t_ino with
        | None -> reply (Error Errno.ENOENT)
        | Some inode ->
            track s ~name ~client;
            let ofd = do_open t inode ~trunc in
            reply (Ok (Wire.P_open_ino { oi = open_info ofd; entry = e }))
      end
      else
        (* The existing inode lives elsewhere; tell the client where. *)
        reply (Ok (Wire.P_lookup e))
  | None ->
      let inode = Inode.file ~lid:(alloc_lid h) ~home:h.hid in
      Itbl.replace h.inodes inode.lid inode;
      let entry = { Wire.t_ino = global inode; t_ftype = Reg; t_dist = false } in
      shard_set s name entry;
      track s ~name ~client;
      let ofd = do_open t inode ~trunc:false in
      reply (Ok (Wire.P_open_ino { oi = open_info ofd; entry }))

let handle_create_inode t h ~ftype ~dist ~and_open (reply : reply) =
  let lid = alloc_lid h and home = h.hid in
  let inode =
    match (ftype : ftype) with
    | Reg -> Inode.file ~lid ~home
    | Dir -> Inode.dir ~lid ~home ~dist
    | Fifo -> invalid_arg "Create_inode: use Pipe_create for fifos"
  in
  Itbl.replace h.inodes lid inode;
  let ino = global inode in
  if and_open && ftype = Reg then
    let ofd = do_open t inode ~trunc:false in
    let entry = { Wire.t_ino = ino; t_ftype = Reg; t_dist = false } in
    reply (Ok (Wire.P_open_ino { oi = open_info ofd; entry }))
  else reply (Ok (Wire.P_created_ino ino))

(* Coalesced mkdir (§3.6.3): directory inode + parent entry in one
   message, when creation affinity placed both on this server. *)
let handle_create_dir t h ~dir ~name ~dist ~client (reply : reply) =
  let s = live_shard t h dir in
  if s.dead then reply (Error Errno.ENOENT)
  else begin
    match shard_find s name with
    | Some _ -> reply (Error Errno.EEXIST)
    | None ->
        let inode = Inode.dir ~lid:(alloc_lid h) ~home:h.hid ~dist in
        Itbl.replace h.inodes inode.lid inode;
        let ino = global inode in
        shard_set s name { Wire.t_ino = ino; t_ftype = Dir; t_dist = dist };
        track s ~name ~client;
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
      if shard_length (find_dir h dir) > 0 then reply (Error Errno.ENOTEMPTY)
      else begin
        bury h dir;
        Itbl.remove h.inodes dir.ino;
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
let tokens t token = (home t (Home.token_home token)).tokens

let with_ofd t token (reply : reply) f =
  match Itbl.find_opt (tokens t token) token with
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
        Itbl.remove (tokens t token) token;
        ofd.inode.open_tokens <- ofd.inode.open_tokens - 1;
        reclaim_lease t ofd.inode;
        maybe_release t ofd.inode
      end;
      reply (Ok Wire.P_unit))

(* A shared O_APPEND descriptor writes at end-of-file, wherever its
   shared offset points (§3.4). *)
let effective_offset ofd ~off ~append =
  match off with
  | Some o -> Ok (o, false)
  | None -> (
      match ofd.shared_offset with
      | Some _ when append -> Ok (ofd.inode.Inode.size, true)
      | Some o -> Ok (o, true)
      | None -> Error Errno.EINVAL)

(* Server-mediated file I/O: [io ofd o advance] moves bytes at offset
   [o] and reports the count to [advance], which moves a shared offset
   past them and yields the demotion to piggy-back on the reply. *)
let file_io t ~token ~off ~append (reply : reply) io =
  with_ofd t token reply (fun ofd ->
      if ofd.pipe_end <> None then reply (Error Errno.EINVAL)
      else
        match effective_offset ofd ~off ~append with
        | Error e -> reply (Error e)
        | Ok (o, shared) ->
            io ofd o (fun moved ->
                if shared then begin
                  ofd.shared_offset <- Some (o + moved);
                  demotion ofd
                end
                else None))

let handle_read t ~token ~off ~len (reply : reply) =
  file_io t ~token ~off ~append:false reply (fun ofd o advance ->
      let data = read_data t ofd.inode ~off:o ~len in
      let now_local = advance (String.length data) in
      let payload_lines = (String.length data / 64) + 1 in
      reply ~payload_lines (Ok (Wire.P_read { data; now_local })))

let handle_write t ~token ~off ~append ~data (reply : reply) =
  file_io t ~token ~off ~append reply (fun ofd o advance ->
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
          shard_length (find_dir h ino) = 0
          && inode.open_tokens = 0
          && inode.nlink <= 1
        then begin
          drop_dir h ino;
          Itbl.remove h.inodes ino.ino;
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
let dirlock t (dir : ino) = Home.directory (home t dir.server) dir

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
  let d = Home.directory h dir in
  if Option.is_some d.mark then reply (Error Errno.EBUSY)
  else if shard_length d > 0 then reply (Error Errno.ENOTEMPTY)
  else begin
    d.mark <- Some (Queue.create ());
    reply (Ok Wire.P_unit)
  end

let handle_rmdir_commit h ~dir (reply : reply) =
  bury h dir;
  if dir.server = h.hid then
    (* The directory's own home: destroy the inode itself. *)
    Itbl.remove h.inodes dir.ino;
  reply (Ok Wire.P_unit)

(* --- pipes (§5.2: make's jobserver) ----------------------------------- *)

let handle_pipe_create t h (reply : reply) =
  let inode = Inode.fifo ~lid:(alloc_lid h) ~home:h.hid ~capacity:65536 in
  Itbl.replace h.inodes inode.lid inode;
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
   two-phase outcome is known (§3.3). The mark lives in the addressed
   home. *)
let creation_mark h (r : request) =
  match r.body with
  | Wire.Add_map { dir; _ } | Wire.Create_open { dir; _ } -> (find_dir h dir).mark
  | _ -> None

(* [h] is the record of the home the request addresses, as admission
   resolved it. *)
let rec handle t h (r : request) =
  match creation_mark h r with
  | Some parked -> Queue.push r parked
  | None -> (
      try dispatch t h r
      with Out_of_blocks -> Steal.park t.steal ~retry:(replay t) r)

(* A request parked behind a steal is resolved again when it resumes. *)
and replay t (r : request) =
  match if r.home < 0 then Home.unaddressed else Home.lookup t.homes r.home with
  | Some h -> handle t h r
  | None -> raise Not_found

and dispatch t h (r : request) =
  let reply = r.reply and client = r.sender in
  match r.body with
  | Wire.Lookup { dir; name } -> handle_lookup h ~dir ~name ~client reply
  | Wire.Add_map { dir; name; target; ftype; dist; replace } ->
      handle_add_map t h ~dir ~name ~target ~ftype ~dist ~replace ~client reply
  | Wire.Rm_map { dir; name; only_if } ->
      handle_rm_map t h ~dir ~name ~only_if ~client reply
  | Wire.Readdir_shard { dir } -> Home.readdir h dir reply
  | Wire.Create_open { dir; name; excl; trunc } ->
      handle_create_open t h ~dir ~name ~excl ~trunc ~client reply
  | Wire.Create_inode { ftype; dist; and_open } ->
      handle_create_inode t h ~ftype ~dist ~and_open reply
  | Wire.Create_dir { dir; name; dist } ->
      handle_create_dir t h ~dir ~name ~dist ~client reply
  | Wire.Rmdir_local { dir } -> handle_rmdir_local t ~dir reply
  | Wire.Open_inode { ino; trunc } -> handle_open_inode t ~ino ~trunc reply
  | Wire.Close_fd { token; size } -> handle_close t ~token ~size reply
  | Wire.Read_fd { token; off; len } -> handle_read t ~token ~off ~len reply
  | Wire.Write_fd { token; off; data; append } ->
      handle_write t ~token ~off ~append ~data reply
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
  | Wire.Rmdir_prepare { dir } -> handle_rmdir_prepare h ~dir reply
  | Wire.Rmdir_commit { dir } -> handle_rmdir_commit h ~dir reply
  | Wire.Rmdir_abort { dir } -> (
      let d = find_dir h dir in
      match d.mark with
      | None -> reply (Ok Wire.P_unit)
      | Some parked ->
          d.mark <- None;
          reply (Ok Wire.P_unit);
          (* Replay the creates that were delayed behind the mark; they
             address this home, where the mark lives. *)
          Queue.iter (handle t h) parked)
  | Wire.Pipe_create -> handle_pipe_create t h reply
  | Wire.Pipe_read { token; len } -> handle_pipe_read t ~token ~len reply
  | Wire.Pipe_write { token; data } -> handle_pipe_write t ~token ~data reply
  | Wire.Steal_blocks { count } -> Steal.donate t.steal ~count reply
  | Wire.Migrate_out { home } ->
      Migrate.pack t.migrate ~home ~stealing:(Steal.busy t.steal) ~inval:(inval t) reply
  | Wire.Install_shard { home; pack } -> Migrate.install t.migrate ~home ~pack reply

(* ---------- execution, idempotency, crash/recovery --------------------- *)

(* [dispatch = false] marks a request handled as part of a drained batch
   after its first message: the per-wakeup dispatch preamble was already
   paid once for the whole batch, so only the operation's marginal cost
   is charged (batch dispatch). *)
(* Each opcode's counter id, interned on the opcode's first request. *)
let op_ids = Array.make Wire.nops (-1)

let op_id (info : Wire.info) =
  let id = Array.unsafe_get op_ids info.op in
  if id >= 0 then id
  else begin
    let id = Hare_stats.Opcount.intern info.name in
    op_ids.(info.op) <- id;
    id
  end

let execute ~dispatch t h (r : request) =
  let info = Wire.info r.body in
  Hare_stats.Opcount.bump t.ops (op_id info);
  let dcost = if dispatch then t.costs.server_dispatch else 0 in
  let ocost =
    match r.body with
    (* allocation is charged per block granted, extent lease included *)
    | Wire.Alloc_blocks { count; ahead; _ } -> info.cost * Int.max 1 (count + ahead)
    | _ -> info.cost
  in
  (* A server-side span, child of the request: its bucket breakdown is
     recorded for the client's blocked-await. *)
  let o = Engine.obs t.engine in
  let fid = Engine.current_fid t.engine in
  if o.Obs.wanted land Obs.spans <> 0 then begin
    let op = info.span and args () = Wire.req_args r.body in
    let pending = [ (Obs.Dispatch, dcost); (Compute, ocost) ] in
    let track = Core_res.id t.core and ts = Obs.now o in
    Obs.emit o (Span_open { fid; op; track; parent = r.span; ts; args; pending })
  end;
  let close () =
    if o.Obs.wanted land Obs.spans <> 0 then
      Obs.emit o (Span_close { fid; ts = Obs.now o; server = true })
  in
  Core_res.compute t.core (dcost + ocost);
  match handle t h r with
  | () -> close ()
  | exception Errno.Error (e, _) ->
      r.reply (Error e);
      close ()
  | exception e ->
      close ();
      raise e

(* Execute an admitted request, exactly once per idempotency tag. *)
let run ~dispatch t h (r : request) =
  match r.meta with
  | None -> execute ~dispatch t h r
  | Some m -> (
      match Dedup.admit t.dedup r.sender m r.reply with
      | Replay resp ->
          (* Retransmission of a completed request: replay the cached
             response without re-executing the operation. *)
          Robust.incr t.robust Robust.dedup_hits;
          Core_res.compute t.core t.costs.server_dispatch;
          r.reply resp
      | Joined ->
          (* The original is still executing (or parked); this copy's
             reply slot is answered alongside it. *)
          Robust.incr t.robust Robust.dedup_hits
      | Fresh p ->
          let reply ?payload_lines resp =
            match Dedup.finish p resp with
            | None -> ()
            | Some joined ->
                r.reply ?payload_lines resp;
                List.iter (fun (j : reply) -> j resp) joined
          in
          execute ~dispatch t h { r with reply })

let crash t =
  if not t.down then begin
    t.down <- true;
    Option.iter (fun l -> Hare_fault.Injector.set_down l true) t.faults;
    Robust.incr t.robust Robust.crashes;
    instant t "crash" [ ("server", string_of_int t.sid) ];
    (* In-flight queued requests die with the server. Tagged copies just
       vanish — the client's deadline fires and it retries. Untagged
       (reliable, non-retryable) requests get EIO so their callers
       unblock. *)
    let queued =
      List.fold_left
        (fun n (r : request) ->
          if Option.is_none r.meta then r.reply (Error Errno.EIO);
          n + 1)
        0
        (Hare_msg.Rpc.drain_pending t.endpoint)
    in
    (* Parked continuations and volatile tables die too; the
       DRAM-resident structures survive. *)
    let parked = Home.crash t.homes in
    let stealing = Steal.abort t.steal in
    Dedup.reset t.dedup;
    (* A dead server's queue depth is meaningless; keep it out of
       deadlock reports (and free the probe slot) until restart. *)
    Hare_msg.Rpc.unwatch t.endpoint;
    Robust.add t.robust Robust.aborted (queued + parked + stealing)
  end

let restart t =
  if t.down then begin
    instant t "restart" [ ("server", string_of_int t.sid) ];
    (* The free list becomes whatever the surviving inodes reference. *)
    let live = Home.reclaim t.homes in
    Robust.add t.robust Robust.blocks_rebuilt (Blocklist.rebuild t.blocks ~live);
    t.down <- false;
    Hare_msg.Rpc.rewatch t.endpoint;
    Option.iter (fun l -> Hare_fault.Injector.set_down l false) t.faults;
    Robust.incr t.robust Robust.restarts;
    (* Clients cannot tell which of their cached entries this server
       would have invalidated while it was down: make them flush. *)
    Array.iter
      (fun port ->
        Hare_msg.Mailbox.send port ~from:t.core Wire.Inval_all;
        t.invals_sent <- t.invals_sent + 1)
      t.inval_ports;
    (* Serve the reliable requests that queued up while we were down. *)
    let queued = List.of_seq (Queue.to_seq t.boot_queue) in
    Queue.clear t.boot_queue;
    List.iter
      (fun r ->
        match Admission.placed t.admission r with
        | Some h -> run ~dispatch:true t h r
        | None -> ())
      queued
  end

let start t =
  let batch_max = Int.max 1 t.config.Hare_config.Config.batch_max in
  let serve ~dispatch (r : request) =
    if t.down then
      (* The process is gone; only reliable sends still land here (the
         injector blackholes unreliable ones). Hold them for reboot. *)
      Queue.push r t.boot_queue
    else
      match Admission.admit t.admission ~dispatch r with
      | Some h -> run ~dispatch t h r
      | None -> ()
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
    if o.Obs.wanted land Obs.marks <> 0 then begin
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
