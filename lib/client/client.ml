open Hare_sim
open Hare_proto
open Hare_proto.Types
module Robust = Hare_stats.Robust
module Perf = Hare_stats.Perf
module Pcache = Hare_mem.Pcache
module Layout = Hare_mem.Layout

(* Seeded-mutation hooks for the sanitizer self-tests: deliberately skip
   a close-to-open protocol step so the matching lint rule must fire.
   Never set outside tests. *)
let mutate_skip_open_inval = ref false

let mutate_skip_writeback = ref false

(* All shadow line keys of [block], prepended to [acc] (sanitizer lint
   bookkeeping only). *)
let block_line_keys block acc =
  let rec go line acc =
    if line >= Layout.lines_per_block then acc
    else go (line + 1) (Pcache.key_of ~block ~line :: acc)
  in
  go 0 acc

type t = {
  engine : Engine.t;
  config : Hare_config.Config.t;
  costs : Hare_config.Costs.t;
  cid : int;
  core : Core_res.t;
  pcache : Pcache.t;
  tp : Transport.t;  (* every RPC of this client goes through it *)
  nhomes : int;  (* the hashing space: logical server count *)
  server_sockets : int array;
  local_server : int;
  dircache : Dircache.t;
  syscalls : Hare_stats.Opcount.t;
  robust : Robust.t;
  perf : Perf.t;
  extent : int;
}

let create ~engine ~config ~cid ~core ~pcache ~servers ~server_sockets
    ~local_server ~inval_port ?place () =
  let robust = Robust.create () in
  let perf = Perf.create () in
  {
    engine;
    config;
    costs = config.Hare_config.Config.costs;
    cid;
    core;
    pcache;
    tp =
      Transport.create ~engine ~config ~cid ~core ~servers ?place ~robust ~perf
        ();
    nhomes =
      (match place with
      | Some p -> Hare_place.Place.nhomes p
      | None -> Array.length servers);
    server_sockets;
    local_server;
    dircache =
      Dircache.create ~enabled:config.Hare_config.Config.dir_cache
        ~capacity:config.Hare_config.Config.dircache_capacity ~robust
        ~port:inval_port ();
    syscalls = Hare_stats.Opcount.create ();
    robust;
    perf;
    extent = config.Hare_config.Config.alloc_extent;
  }

let pcache t = t.pcache

let dircache t = t.dircache

let syscalls t = t.syscalls

let rpc_count t = Transport.rpc_count t.tp

let moved_retries t = Transport.moved_retries t.tp

let robust t = t.robust

let perf t = t.perf

let open_breakers t = Transport.open_breakers t.tp

let trip_breaker t srv = Transport.trip_breaker t.tp srv

let drain_window t = Transport.drain_window t.tp

(* The hashing space: placement decisions (dentry_server, shard_servers,
   choose_inode_server) distribute over logical homes, never physical
   servers, so where things live is independent of ring membership. *)
let nservers t = t.nhomes

(* Effective distribution width: the whole machine (the paper), or the
   configured subset size (§6 extension). *)
let width t =
  match t.config.Hare_config.Config.dist_width with
  | Some w -> max 1 (min w (nservers t))
  | None -> nservers t

let obs t = Engine.obs t.engine

(* Every intercepted system call pays the interposition cost (§4). *)
let charge_trap t op =
  Hare_stats.Opcount.incr t.syscalls op;
  Core_res.compute t.core t.costs.syscall_trap

(* Run a public syscall body in a root span on this client's core track,
   after the trap ([fork] takes none of its own). Nested syscalls (close
   inside exit teardown) fold into the outer span. *)
let syscall ?(trap = true) t op f =
  let o = obs t in
  if not (Obs.on o Obs.spans) then begin
    if trap then charge_trap t op;
    f ()
  end
  else begin
    let fid = Engine.current_fid t.engine in
    let close () = Obs.emit o (Span_close { fid; ts = Obs.now o; server = false }) in
    let track = Core_res.id t.core and args = Obs.no_args and ts = Obs.now o in
    Obs.emit o (Span_open { fid; op; track; parent = 0; ts; args; pending = [] });
    match
      if trap then charge_trap t op;
      f ()
    with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* ---------- RPCs ------------------------------------------------------- *)

(* [call] hands the caller the outcome; [rpc] raises a failure, naming
   the request. *)
let call t srv req = Transport.call t.tp srv req

let rpc t srv req =
  match call t srv req with
  | Ok payload -> payload
  | Error e -> Errno.raise_errno e (Wire.info req).name

(* The two directory-entry edits, at the entry's shard server [srv];
   [via] is {!call} or {!rpc}. *)
let add_map via t srv (dir : ino) name ~target ~ftype ~dist ~replace =
  via t srv
    (Wire.Add_map
       { dir; name; target; ftype; dist; replace; client = t.cid; home = srv })

let rm_map via t srv (dir : ino) name ~only_if =
  via t srv (Wire.Rm_map { dir; name; only_if; client = t.cid; home = srv })

(* Ordering barrier first: a still-deferred close of this very inode
   could be retransmitted after this open's writes and revert the size. *)
let open_inode via t (ino : ino) ~trunc =
  Transport.drain_ino t.tp ino;
  via t ino.server (Wire.Open_inode { ino; trunc; client = t.cid })

let direct_mode t = t.config.Hare_config.Config.direct_access

let invalidate_blocks t blocks =
  Array.iter (fun b -> Pcache.invalidate_block t.pcache b) blocks

(* Adopt the server's block list and size: the lease is what the list
   holds beyond the size, and the cached lines of [stale] blocks go. *)
let adopt_blocks t (fs : Fdtable.file_state) blocks size ~stale =
  fs.f_blocks <- blocks;
  fs.f_size <- size;
  fs.f_lease <- Fdtable.lease blocks size;
  invalidate_blocks t stale

(* The server performed I/O on the file meanwhile: both the block list
   and our private cache's view of every block may be stale. *)
let refresh_blocks t (fs : Fdtable.file_state) =
  match rpc t fs.f_ino.server (Wire.Get_blocks { ino = fs.f_ino }) with
  | Wire.P_blocks { blocks; bsize } -> adopt_blocks t fs blocks bsize ~stale:blocks
  | _ -> assert false

(* A crashed server forgets its descriptor table; the first post-restart
   use of a token answers [EBADF]. Recover by re-opening the inode —
   which survived in DRAM — and patching the new token into the
   descriptor. A server-owned shared offset died with the server, so the
   descriptor falls back to a local offset at zero. *)
let recover_token t (fs : Fdtable.file_state) =
  match open_inode call t fs.f_ino ~trunc:false with
  | Ok (Wire.P_open oi) ->
      Robust.incr t.robust Robust.tokens_recovered;
      fs.f_token <- oi.token;
      (if t.extent > 1 && direct_mode t then begin
         (* The restart reclaimed our extent lease; resync the block list
            so we never write into blocks the server already freed, and
            drop dirty marks for blocks we no longer own. *)
         let owned = Hashtbl.create 16 in
         Array.iter (fun b -> Hashtbl.replace owned b ()) oi.blocks;
         Hashtbl.filter_map_inplace
           (fun b () -> if Hashtbl.mem owned b then Some () else None)
           fs.f_dirty;
         (* Disowned blocks may still sit (dirty) in our private cache;
            dropping only their dirty marks would let a later LRU
            eviction flush stale lines over whatever the server
            reallocated them to. Invalidate the lines themselves too. *)
         let disowned = Seq.filter (fun b -> not (Hashtbl.mem owned b)) in
         let size = min fs.f_size oi.isize in
         adopt_blocks t fs oi.blocks oi.isize
           ~stale:(Array.of_seq (disowned (Array.to_seq fs.f_blocks)));
         fs.f_size <- size
       end);
      if fs.f_pos = Shared then fs.f_pos <- Local 0
  | Ok _ | Error _ ->
      Errno.raise_errno Errno.EBADF "descriptor lost in server crash"

(* A descriptor RPC, its reply handed to [k]. On a token a crashed server
   forgot, recover the descriptor and [retry] the whole operation, which
   may now take the local path. *)
let fd_rpc t (fs : Fdtable.file_state) req ~retry k =
  match call t fs.f_ino.server req with
  | Ok payload -> k payload
  | Error e when Transport.stale_token t.tp e ->
      recover_token t fs;
      retry ()
  | Error e -> Errno.raise_errno e (Wire.info req).name

(* ---------- path resolution -------------------------------------------- *)

type dirref = { d_ino : ino; d_dist : bool }

(* The root directory is never distributed. *)
let root = { d_ino = root_ino; d_dist = false }

let entry_server t (dir : dirref) name =
  Types.dentry_server ~dist:dir.d_dist ~width:(width t)
    ~nservers:(nservers t) ~dir:dir.d_ino ~name

let shard_servers t (dir : ino) =
  Types.shard_servers ~dist:true ~width:(width t) ~nservers:(nservers t) ~dir

let lookup_entry t (dir : dirref) name : Wire.entry_info =
  match Dircache.find t.dircache ~dir:dir.d_ino ~name with
  | Some e -> e
  | None -> (
      let srv = entry_server t dir name in
      match
        rpc t srv (Wire.Lookup { dir = dir.d_ino; name; client = t.cid; home = srv })
      with
      | Wire.P_lookup { target; ftype; dist } ->
          let e = { Wire.t_ino = target; t_ftype = ftype; t_dist = dist } in
          Dircache.add t.dircache ~dir:dir.d_ino ~name e;
          e
      | _ -> assert false)

let resolve_dir t comps =
  List.fold_left
    (fun dir comp ->
      let e = lookup_entry t dir comp in
      match e.Wire.t_ftype with
      | Dir -> { d_ino = e.Wire.t_ino; d_dist = e.Wire.t_dist }
      | Reg | Fifo -> Errno.raise_errno Errno.ENOTDIR comp)
    root comps

let resolve_parent t ~cwd path =
  let comps = Path.normalize ~cwd path in
  let parent_comps, name = Path.parent_and_name comps in
  (resolve_dir t parent_comps, name)

(* The server placement for a new inode (§3.6.4, creation affinity): the
   entry's server when it is already close (or when affinity is off, to
   maximize coalescing); otherwise this client's designated local
   server. *)
let choose_inode_server t entry_srv =
  if not t.config.Hare_config.Config.creation_affinity then entry_srv
  else if t.server_sockets.(entry_srv) = Core_res.socket t.core then entry_srv
  else t.local_server

(* ---------- close-to-open cache actions -------------------------------- *)

let writeback_dirty ?(what = "close/fsync") t (fs : Fdtable.file_state) =
  (* Capture the dirty block set up front: the reset below must happen
     whether or not the (possibly mutation-skipped) write-back ran, and
     the lint needs the keys afterwards. *)
  let o = obs t in
  let blocks =
    if Obs.on o Obs.lint then Hashtbl.fold (fun b () acc -> b :: acc) fs.f_dirty []
    else []
  in
  if not !mutate_skip_writeback then
    Hashtbl.iter
      (fun b () -> Pcache.writeback_block t.pcache b)
      fs.f_dirty;
  Hashtbl.reset fs.f_dirty;
  if Obs.on o Obs.lint then
    let keys () = List.fold_left (Fun.flip block_line_keys) [] blocks in
    Obs.emit o (Lint_flush { core = Core_res.id t.core; keys; what })

(* ---------- open -------------------------------------------------------- *)

let file_entry t ~(flags : open_flags) ~ino ~(oi : Wire.open_info) : Fdtable.entry
    =
  (* Close-to-open (§3.2): invalidate our private cache's copies of the
     file's blocks, which another core may have rewritten since we last
     saw them. Only needed when we will access the buffer cache
     directly. *)
  (if direct_mode t then begin
     if not !mutate_skip_open_inval then invalidate_blocks t oi.blocks;
     let o = obs t in
     if Obs.on o Obs.lint then
       let keys () = Array.fold_left (Fun.flip block_line_keys) [] oi.blocks in
       Obs.emit o (Lint_open { core = Core_res.id t.core; keys })
   end);
  let pos = Fdtable.Local (if flags.append then oi.isize else 0) in
  {
    Fdtable.desc =
      Fdtable.File
        (Fdtable.file_state ~ino ~token:oi.token ~flags ~pos ~blocks:oi.blocks
           ~size:oi.isize);
    local_refs = 1;
  }

let open_existing t (flags : open_flags) (target : ino) =
  match open_inode rpc t target ~trunc:flags.trunc with
  | Wire.P_open oi -> (target, oi)
  | _ -> assert false

let create_file t (dir : dirref) name (flags : open_flags) =
  let entry_srv = entry_server t dir name in
  let inode_srv = choose_inode_server t entry_srv in
  if inode_srv = entry_srv then begin
    (* Coalesced create: inode + entry + fd in one message (§3.6.3). *)
    match
      rpc t entry_srv
        (Wire.Create_open
           {
             dir = dir.d_ino;
             name;
             excl = flags.excl;
             trunc = flags.trunc;
             client = t.cid;
             home = entry_srv;
           })
    with
    | Wire.P_open_ino { oi; ino } ->
        Dircache.add t.dircache ~dir:dir.d_ino ~name
          { Wire.t_ino = ino; t_ftype = Reg; t_dist = false };
        (ino, oi)
    | Wire.P_lookup { target; ftype; dist } ->
        (* The name exists but its inode lives on another server. *)
        Dircache.add t.dircache ~dir:dir.d_ino ~name
          { Wire.t_ino = target; t_ftype = ftype; t_dist = dist };
        if ftype = Dir then Errno.raise_errno Errno.EISDIR name
        else open_existing t flags target
    | _ -> assert false
  end
  else begin
    match
      rpc t inode_srv
        (Wire.Create_inode
           { ftype = Reg; dist = false; and_open = true; home = inode_srv })
    with
    | Wire.P_open_ino { oi; ino } -> (
        match
          add_map call t entry_srv dir.d_ino name ~target:ino ~ftype:Reg
            ~dist:false ~replace:false
        with
        | Ok _ ->
            Dircache.add t.dircache ~dir:dir.d_ino ~name
              { Wire.t_ino = ino; t_ftype = Reg; t_dist = false };
            (ino, oi)
        | Error err ->
            (* Lost a create race, or the directory vanished: roll the
               fresh inode back before reporting. The close+unlink pair
               goes to one server, so the two legs pipeline. *)
            let must = function
              | None | Some (Ok _) -> ()
              | Some (Error e) -> Errno.raise_errno e name
            in
            must
              (Transport.defer t.tp ino.server ~ino
                 (Wire.Close_fd { token = oi.token; size = None }));
            must
              (Transport.defer t.tp ino.server ~ino (Wire.Unlink_ino { ino }));
            if err <> Errno.EEXIST then Errno.raise_errno err name
            else if flags.excl then Errno.raise_errno Errno.EEXIST name
            else
              let e = lookup_entry t dir name in
              if e.Wire.t_ftype = Dir then Errno.raise_errno Errno.EISDIR name
              else open_existing t flags e.Wire.t_ino)
    | _ -> assert false
  end

let openf t fdt ~cwd path (flags : open_flags) =
  syscall t "open" @@ fun () ->
  let dir, name = resolve_parent t ~cwd path in
  let ino, oi =
    if flags.creat then
      if flags.excl then create_file t dir name flags
      else begin
        (* Common fast path: try the (possibly cached) existing file
           first only if the cache knows it; otherwise go create. *)
        match Dircache.find t.dircache ~dir:dir.d_ino ~name with
        | Some e when e.Wire.t_ftype = Reg -> open_existing t flags e.Wire.t_ino
        | Some e when e.Wire.t_ftype = Dir -> Errno.raise_errno Errno.EISDIR name
        | _ -> create_file t dir name flags
      end
    else begin
      let e = lookup_entry t dir name in
      match e.Wire.t_ftype with
      | Dir -> Errno.raise_errno Errno.EISDIR name
      | Fifo -> Errno.raise_errno Errno.EINVAL name
      | Reg -> open_existing t flags e.Wire.t_ino
    end
  in
  Fdtable.alloc fdt (file_entry t ~flags ~ino ~oi)

(* ---------- read / write / seek ---------------------------------------- *)

let console_write t (c : Wire.console_ref) data =
  match c with
  | Wire.Console_local buf ->
      Buffer.add_string buf data;
      String.length data
  | Wire.Console_remote port ->
      let ack = Ivar.create () in
      Hare_msg.Mailbox.send port ~from:t.core
        ~payload_lines:((String.length data / 64) + 1)
        (Wire.Pm_console_write { data; ack });
      let b0 = Engine.now t.engine in
      Ivar.read ack;
      let o = obs t in
      if Obs.on o Obs.spans then begin
        let cycles = Int64.to_int (Int64.sub (Engine.now t.engine) b0) in
        Obs.emit o (Wait { fid = Engine.current_fid t.engine; cycles })
      end;
      String.length data

let direct_read t (fs : Fdtable.file_state) ~off ~len =
  let len = max 0 (min len (fs.f_size - off)) in
  if len = 0 then ""
  else begin
    let out = Bytes.create len in
    Layout.iter_range fs.f_blocks ~off ~len
      (fun pc ~block ~off ~len dst dst_off ->
        Pcache.read pc ~block ~off ~len ~dst ~dst_off)
      t.pcache out;
    Bytes.unsafe_to_string out
  end

let ensure_client_blocks t (fs : Fdtable.file_state) ~size =
  let need = Layout.blocks_for size in
  let have = Array.length fs.f_blocks in
  if need > have then begin
    (* Extent-granularity allocation: ask for [alloc_extent - 1] blocks
       beyond the immediate need, so a sequential writer goes back to
       the server once per extent instead of once per block. The hint is
       best-effort — a full server drops it before failing. *)
    let ahead = if t.extent > 1 then t.extent - 1 else 0 in
    if ahead > 0 then
      Perf.incr t.perf Perf.lease_misses;
    match
      rpc t fs.f_ino.server
        (Wire.Alloc_blocks { ino = fs.f_ino; count = need - have; ahead })
    with
    | Wire.P_blocks { blocks; bsize = _ } ->
        (* Invalidate the fresh blocks: our cache may hold stale lines
           from the blocks' previous life in another file. *)
        let added = Array.sub blocks have (Array.length blocks - have) in
        invalidate_blocks t added;
        fs.f_blocks <- blocks;
        let surplus = Array.length blocks - need in
        fs.f_lease <- max 0 surplus;
        if surplus > 0 then
          Perf.add t.perf Perf.lease_blocks surplus
    | _ -> assert false
  end
  else if fs.f_lease > 0 && need > have - fs.f_lease then begin
    (* The file grew into blocks held ahead of need: a lease hit, no RPC. *)
    fs.f_lease <- have - need;
    Perf.incr t.perf Perf.lease_hits
  end

let direct_write t (fs : Fdtable.file_state) ~off data =
  let len = String.length data in
  ensure_client_blocks t fs ~size:(off + len);
  Layout.iter_range fs.f_blocks ~off ~len
    (fun pc ~block ~off ~len src src_off ->
      Pcache.write pc ~block ~off ~len ~src ~src_off)
    t.pcache (Bytes.unsafe_of_string data);
  (* Marked apart from the walk, whose access then closes over nothing:
     a per-write closure would show in the host's allocation per op. *)
  if len > 0 then
    for bi = off / Layout.block_size to (off + len - 1) / Layout.block_size do
      Hashtbl.replace fs.f_dirty fs.f_blocks.(bi) ()
    done;
  if off + len > fs.f_size then fs.f_size <- off + len;
  fs.f_wrote <- true;
  len

(* After [n] bytes moved through the server at [off]: a local offset
   moves past them; a shared one ([off = None]) moved at the server,
   which may hand it back to us (§3.4). *)
let advance t (fs : Fdtable.file_state) ~off n now_local =
  match (off, now_local) with
  | Some o, _ -> fs.f_pos <- Local (o + n)
  | None, Some o ->
      fs.f_pos <- Local o;
      if direct_mode t then refresh_blocks t fs
  | None, None -> ()

let rec file_read t (fs : Fdtable.file_state) ~len =
  match fs.f_pos with
  | Local off when direct_mode t ->
      let data = direct_read t fs ~off ~len in
      fs.f_pos <- Local (off + String.length data);
      data
  | pos ->
      let off = match pos with Local o -> Some o | Shared -> None in
      fd_rpc t fs (Wire.Read_fd { token = fs.f_token; off; len })
        ~retry:(fun () -> file_read t fs ~len)
      @@ function
      | Wire.P_read { data; now_local } ->
          advance t fs ~off (String.length data) now_local;
          data
      | _ -> assert false

let rec file_write t (fs : Fdtable.file_state) data =
  let append = fs.f_flags.append in
  match fs.f_pos with
  | Local o when direct_mode t ->
      let off = if append then fs.f_size else o in
      let n = direct_write t fs ~off data in
      fs.f_pos <- Local (off + n);
      n
  | pos ->
      let off =
        match pos with
        | Local o -> Some (if append then fs.f_size else o)
        | Shared -> None
      in
      fd_rpc t fs (Wire.Write_fd { token = fs.f_token; off; data; append })
        ~retry:(fun () -> file_write t fs data)
      @@ function
      | Wire.P_write { written; size; now_local } ->
          fs.f_size <- size;
          fs.f_wrote <- true;
          advance t fs ~off written now_local;
          written
      | _ -> assert false

let read t fdt fd ~len =
  syscall t "read" @@ fun () ->
  let entry = Fdtable.find_exn fdt fd in
  match entry.Fdtable.desc with
  | Fdtable.File fs -> file_read t fs ~len
  | Fdtable.Pipe p -> (
      if p.p_write then Errno.raise_errno Errno.EBADF "write end of pipe"
      else
        match rpc t p.p_ino.server (Wire.Pipe_read { token = p.p_token; len }) with
        | Wire.P_read { data; _ } -> data
        | _ -> assert false)
  | Fdtable.Console _ -> ""

let write t fdt fd data =
  syscall t "write" @@ fun () ->
  let entry = Fdtable.find_exn fdt fd in
  match entry.Fdtable.desc with
  | Fdtable.File fs -> file_write t fs data
  | Fdtable.Pipe p -> (
      if not p.p_write then Errno.raise_errno Errno.EBADF "read end of pipe"
      else
        match
          rpc t p.p_ino.server
            (Wire.Pipe_write { token = p.p_token; data })
        with
        | Wire.P_write { written; _ } -> written
        | _ -> assert false)
  | Fdtable.Console c -> console_write t c data

let rec seek_file t (fs : Fdtable.file_state) ~pos whence =
  match fs.Fdtable.f_pos with
  | Local cur ->
      let target =
        match whence with
        | Seek_set -> pos
        | Seek_cur -> cur + pos
        | Seek_end -> fs.f_size + pos
      in
      if target < 0 then Errno.raise_errno Errno.EINVAL "negative offset";
      fs.f_pos <- Local target;
      target
  | Shared -> (
      fd_rpc t fs (Wire.Lseek_fd { token = fs.f_token; pos; whence })
        ~retry:(fun () -> seek_file t fs ~pos whence)
      @@ function
      | Wire.P_lseek target -> target
      | _ -> assert false)

let lseek t fdt fd ~pos whence =
  syscall t "lseek" @@ fun () ->
  let entry = Fdtable.find_exn fdt fd in
  match entry.Fdtable.desc with
  | Fdtable.Pipe _ | Fdtable.Console _ -> Errno.raise_errno Errno.ESPIPE "lseek"
  | Fdtable.File fs -> seek_file t fs ~pos whence

(* ---------- close / fsync / truncate ----------------------------------- *)

(* Push our size view to the server (after a direct-mode writeback). *)
let rec update_size t (fs : Fdtable.file_state) =
  fd_rpc t fs (Wire.Update_size { token = fs.f_token; size = fs.f_size })
    ~retry:(fun () -> update_size t fs)
    ignore

(* Make our direct-mode writes visible through the server: write the
   dirty blocks back, and report our size view while the offset (and
   hence the size) is client-owned; for a shared descriptor the server's
   view is authoritative (§3.4). *)
let flush t ~what (fs : Fdtable.file_state) =
  if fs.f_wrote && direct_mode t then begin
    writeback_dirty ~what t fs;
    if fs.f_pos <> Shared then update_size t fs
  end

let release_desc t (entry : Fdtable.entry) =
  match entry.Fdtable.desc with
  | Fdtable.File fs ->
      if fs.f_wrote && direct_mode t then writeback_dirty ~what:"close" t fs;
      (* Report our size view only while the offset (and hence the size)
         is client-owned; for a shared descriptor the server's view is
         authoritative (§3.4). *)
      let size =
        match fs.f_pos with
        | Local _ when fs.f_wrote && direct_mode t -> Some fs.f_size
        | Local _ | Shared -> None
      in
      (* The close's reply carries nothing the caller needs, so with a
         window it is deferred: per-server FIFO delivery means any later
         request to the same server is processed after it. *)
      (match
         Transport.defer t.tp fs.f_ino.server ~ino:fs.f_ino
           (Wire.Close_fd { token = fs.f_token; size })
       with
      | None | Some (Ok _) -> ()
      | Some (Error e) when Transport.stale_token t.tp e ->
          (* The crash already closed the descriptor for us. *)
          ()
      | Some (Error e) -> Errno.raise_errno e "close")
  | Fdtable.Pipe p -> (
      match call t p.p_ino.server (Wire.Close_fd { token = p.p_token; size = None }) with
      | Ok _ -> ()
      | Error e when Transport.stale_token t.tp e -> ()
      | Error e -> Errno.raise_errno e "close")
  | Fdtable.Console _ -> ()

(* Drop one of this process's references to [entry]. *)
let unref t (entry : Fdtable.entry) =
  entry.local_refs <- entry.local_refs - 1;
  if entry.local_refs <= 0 then release_desc t entry

let close t fdt fd =
  syscall t "close" @@ fun () ->
  let entry = Fdtable.find_exn fdt fd in
  Fdtable.remove fdt fd;
  unref t entry

let close_all t fdt =
  (* Process exit: release everything we can; one sick descriptor must
     not keep the rest (and their server-side state) alive. *)
  List.iter
    (fun fd -> try close t fdt fd with Errno.Error _ -> ())
    (Fdtable.fds fdt);
  (* Exit is externally visible (a parent may be waiting): make sure
     every deferred close has actually landed. *)
  drain_window t

let fsync t fdt fd =
  syscall t "fsync" @@ fun () ->
  (* Durability barrier: deferred requests count as outstanding I/O. *)
  drain_window t;
  let entry = Fdtable.find_exn fdt fd in
  match entry.Fdtable.desc with
  | Fdtable.File fs -> flush t ~what:"fsync" fs
  | Fdtable.Pipe _ | Fdtable.Console _ -> ()

let ftruncate t fdt fd ~size =
  syscall t "ftruncate" @@ fun () ->
  let entry = Fdtable.find_exn fdt fd in
  match entry.Fdtable.desc with
  | Fdtable.Pipe _ | Fdtable.Console _ -> Errno.raise_errno Errno.EINVAL "ftruncate"
  | Fdtable.File fs ->
      (* Surviving bytes must be in DRAM before the server scrubs the
         tail; flush our dirty lines first. *)
      flush t ~what:"ftruncate" fs;
      ignore (rpc t fs.f_ino.server (Wire.Truncate { ino = fs.f_ino; size }));
      fs.f_size <- size;
      if direct_mode t then refresh_blocks t fs

let get_attr t (ino : ino) =
  match rpc t ino.server (Wire.Get_attr { ino }) with
  | Wire.P_attr a -> a
  | _ -> assert false

let fstat t fdt fd =
  syscall t "fstat" @@ fun () ->
  match (Fdtable.find_exn fdt fd).Fdtable.desc with
  | Fdtable.File fs -> get_attr t fs.f_ino
  | Fdtable.Pipe p -> get_attr t p.p_ino
  | Fdtable.Console _ -> Errno.raise_errno Errno.EINVAL "fstat on console"

(* ---------- dup / pipe -------------------------------------------------- *)

let dup t fdt fd =
  syscall t "dup" @@ fun () ->
  let entry = Fdtable.find_exn fdt fd in
  entry.Fdtable.local_refs <- entry.Fdtable.local_refs + 1;
  Fdtable.alloc fdt entry

let dup2 t fdt ~src ~dst =
  syscall t "dup2" @@ fun () ->
  let entry = Fdtable.find_exn fdt src in
  if src = dst then dst
  else begin
    (match Fdtable.find fdt dst with
    | Some old ->
        Fdtable.remove fdt dst;
        unref t old
    | None -> ());
    entry.Fdtable.local_refs <- entry.Fdtable.local_refs + 1;
    Fdtable.alloc_at fdt dst entry;
    dst
  end

let pipe t fdt =
  syscall t "pipe" @@ fun () ->
  match
    rpc t t.local_server
      (Wire.Pipe_create { client = t.cid; home = t.local_server })
  with
  | Wire.P_pipe { pipe_ino; rd; wr } ->
      let mk token write =
        {
          Fdtable.desc =
            Fdtable.Pipe { p_ino = pipe_ino; p_token = token; p_write = write };
          local_refs = 1;
        }
      in
      let rfd = Fdtable.alloc fdt (mk rd false) in
      let wfd = Fdtable.alloc fdt (mk wr true) in
      (rfd, wfd)
  | _ -> assert false

(* ---------- name-space operations --------------------------------------- *)

let unlink t ~cwd path =
  syscall t "unlink" @@ fun () ->
  let dir, name = resolve_parent t ~cwd path in
  let srv = entry_server t dir name in
  match rm_map rpc t srv dir.d_ino name ~only_if:None with
  | Wire.P_removed { target; ftype } ->
      Dircache.remove t.dircache ~dir:dir.d_ino ~name;
      if ftype = Dir then begin
        (* Roll back: directories are removed with rmdir. *)
        ignore
          (add_map rpc t srv dir.d_ino name ~target ~ftype ~dist:true
             ~replace:false);
        Errno.raise_errno Errno.EISDIR name
      end;
      (* The entry is gone (the visible effect); dropping the link count
         is independent, so it rides the window. *)
      (match
         Transport.defer t.tp target.server ~ino:target
           (Wire.Unlink_ino { ino = target })
       with
      | None | Some (Ok _) -> ()
      | Some (Error e) -> Errno.raise_errno e "unlink")
  | _ -> assert false

let mkdir t ~cwd ?(dist = false) path =
  syscall t "mkdir" @@ fun () ->
  let dir, name = resolve_parent t ~cwd path in
  let dist = dist && t.config.Hare_config.Config.dir_distribution in
  let entry_srv = entry_server t dir name in
  let home_srv = choose_inode_server t entry_srv in
  if home_srv = entry_srv then begin
    (* Coalesced mkdir (§3.6.3): one message creates inode + entry. *)
    match
      rpc t entry_srv
        (Wire.Create_dir
           { dir = dir.d_ino; name; dist; client = t.cid; home = entry_srv })
    with
    | Wire.P_created_ino ino ->
        Dircache.add t.dircache ~dir:dir.d_ino ~name
          { Wire.t_ino = ino; t_ftype = Dir; t_dist = dist }
    | _ -> assert false
  end
  else
  match
    rpc t home_srv
      (Wire.Create_inode
         { ftype = Dir; dist; and_open = false; home = home_srv })
  with
  | Wire.P_created_ino ino -> (
      match
        add_map call t entry_srv dir.d_ino name ~target:ino ~ftype:Dir ~dist
          ~replace:false
      with
      | Ok _ ->
          Dircache.add t.dircache ~dir:dir.d_ino ~name
            { Wire.t_ino = ino; t_ftype = Dir; t_dist = dist }
      | Error e ->
          ignore (rpc t home_srv (Wire.Unlink_ino { ino }));
          Errno.raise_errno e name)
  | _ -> assert false

let rmdir t ~cwd path =
  syscall t "rmdir" @@ fun () ->
  let dir, name = resolve_parent t ~cwd path in
  let e = lookup_entry t dir name in
  if e.Wire.t_ftype <> Dir then Errno.raise_errno Errno.ENOTDIR name;
  let target = e.Wire.t_ino in
  let home = target.server in
  (* conditional: a same-named directory may already have been
     recreated; its entry is not ours to remove *)
  let unlink_entry () =
    rm_map call t (entry_server t dir name) dir.d_ino name ~only_if:(Some target)
  in
  if not e.Wire.t_dist then begin
    (* Centralized directory: the home server holds every entry, so the
       emptiness check and removal coalesce into one atomic message; only
       the parent's entry needs a second RPC. *)
    ignore (rpc t home (Wire.Rmdir_local { dir = target; client = t.cid }));
    (match unlink_entry () with
    | Ok _ | Error Errno.ENOENT -> ()
    | Error err -> Errno.raise_errno err name);
    Dircache.remove t.dircache ~dir:dir.d_ino ~name
  end
  else begin
  (* Phase 0: serialize concurrent rmdirs at the home server (§3.3). The
     lock reply arrives only once we hold it; ENOENT means the directory
     vanished while we waited. *)
  (match call t home (Wire.Rmdir_lock { dir = target }) with
  | Ok _ -> ()
  | Error err -> Errno.raise_errno err name);
  let servers_involved =
    List.sort_uniq compare (home :: shard_servers t target)
  in
  (* Phase 1: ask every involved server to mark-for-deletion; succeeds
     only on empty shards. *)
  let prepare_results =
    Transport.multicast t.tp servers_involved (fun srv ->
        Wire.Rmdir_prepare { dir = target; home = srv })
  in
  let all_ok = List.for_all Result.is_ok prepare_results in
  if all_ok then begin
    (* Unlink the directory's own entry from its parent, then commit. *)
    if Result.is_ok (unlink_entry ()) then
      Dircache.remove t.dircache ~dir:dir.d_ino ~name;
    ignore
      (Transport.multicast t.tp servers_involved (fun srv ->
           Wire.Rmdir_commit { dir = target; client = t.cid; home = srv }))
    (* The commit at the home server destroys the lock with the inode. *)
  end
  else begin
    List.iter
      (fun srv -> ignore (call t srv (Wire.Rmdir_abort { dir = target; home = srv })))
      servers_involved;
    ignore (call t home (Wire.Rmdir_unlock { dir = target }));
    (* Distinguish "a shard holds entries" from "a shard's server is
       unreachable": the latter must not masquerade as ENOTEMPTY. *)
    let hard =
      List.exists
        (function Error Errno.EIO -> true | _ -> false)
        prepare_results
    in
    Errno.raise_errno (if hard then Errno.EIO else Errno.ENOTEMPTY) name
  end
  end

let readdir t ~cwd path =
  syscall t "readdir" @@ fun () ->
  let comps = Path.normalize ~cwd path in
  let dir = resolve_dir t comps in
  if dir.d_dist then begin
    let results =
      Transport.multicast t.tp (shard_servers t dir.d_ino) (fun srv ->
          Wire.Readdir_shard { dir = dir.d_ino; home = srv })
    in
    List.concat_map
      (function
        | Ok (Wire.P_entries es) -> es
        | Ok _ -> assert false
        | Error e ->
            (* A shard did not answer (its server is down and retries ran
               out). Per configuration: return what the live shards hold,
               or refuse to return a silently truncated listing. *)
            if t.config.Hare_config.Config.partial_broadcast then begin
              Robust.incr t.robust Robust.partial_broadcasts;
              []
            end
            else Errno.raise_errno e "readdir")
      results
  end
  else
    match
      rpc t dir.d_ino.server
        (Wire.Readdir_shard { dir = dir.d_ino; home = dir.d_ino.server })
    with
    | Wire.P_entries es -> es
    | _ -> assert false

let rename t ~cwd oldp newp =
  syscall t "rename" @@ fun () ->
  let odir, oname = resolve_parent t ~cwd oldp in
  let ndir, nname = resolve_parent t ~cwd newp in
  if odir.d_ino = ndir.d_ino && oname = nname then ()
  else begin
    let e = lookup_entry t odir oname in
    let target = e.Wire.t_ino in
    (* The paper's rename: ADD_MAP at the new name's server, then RM_MAP
       at the old name's (§3.3) — two RPCs (§5.3.3). A concurrent unlink
       or rename of the old name can win the race; because the removal is
       conditional on the entry still denoting [target] (and inode ids
       are never reused), we detect that and compensate by removing the
       entry we just added, so no dangling name survives. *)
    let nsrv = entry_server t ndir nname in
    let replaced =
      match
        add_map rpc t nsrv ndir.d_ino nname ~target ~ftype:e.Wire.t_ftype
          ~dist:e.Wire.t_dist ~replace:true
      with
      | Wire.P_removed { target = victim; ftype = Reg } -> Some victim
      | Wire.P_removed _ | Wire.P_unit -> None
      | _ -> assert false
    in
    Dircache.add t.dircache ~dir:ndir.d_ino ~name:nname e;
    let unlink_victim () =
      match replaced with
      | Some victim when victim <> target ->
          ignore
            (Transport.defer t.tp victim.server ~ino:victim
               (Wire.Unlink_ino { ino = victim }))
      | _ -> ()
    in
    let osrv = entry_server t odir oname in
    match rm_map call t osrv odir.d_ino oname ~only_if:(Some target) with
    | Ok _ ->
        Dircache.remove t.dircache ~dir:odir.d_ino ~name:oname;
        unlink_victim ()
    | Error Errno.ENOENT ->
        (* lost the race for the old name: undo our half *)
        Dircache.remove t.dircache ~dir:ndir.d_ino ~name:nname;
        ignore (rm_map call t nsrv ndir.d_ino nname ~only_if:(Some target));
        unlink_victim ();
        Errno.raise_errno Errno.ENOENT oname
    | Error err -> Errno.raise_errno err oname
  end

let stat t ~cwd path =
  syscall t "stat" @@ fun () ->
  match Path.normalize ~cwd path with
  | [] -> get_attr t root_ino
  | comps ->
      let parent_comps, name = Path.parent_and_name comps in
      let dir = resolve_dir t parent_comps in
      get_attr t (lookup_entry t dir name).Wire.t_ino

(* ---------- descriptor transfer ----------------------------------------- *)

let fork_fds t fdt =
  syscall ~trap:false t "fork" @@ fun () ->
  (* The child must not observe server state that a deferred request is
     still about to change; settle the window before sharing. *)
  drain_window t;
  let child = Fdtable.create () in
  let mapping = ref [] in
  let share (entry : Fdtable.entry) : Fdtable.entry =
    match List.assq_opt entry !mapping with
    | Some e -> e
    | None ->
        let child_entry =
          match entry.Fdtable.desc with
          | Fdtable.File fs ->
              let offset =
                match fs.f_pos with Local o -> Some o | Shared -> None
              in
              (* Synchronous share RPC (§3.4): bump the server refcount
                 and migrate the offset; descriptor I/O now routes through
                 the server in both processes. *)
              ignore
                (rpc t fs.f_ino.server
                   (Wire.Inc_fd_ref { token = fs.f_token; offset }));
              (* Make our writes visible before the other process reads
                 through the server. *)
              flush t ~what:"fd-share" fs;
              fs.f_pos <- Shared;
              {
                Fdtable.desc =
                  Fdtable.File
                    { fs with f_pos = Shared; f_dirty = Hashtbl.create 8 };
                local_refs = 0;
              }
          | Fdtable.Pipe p ->
              ignore
                (rpc t p.p_ino.server
                   (Wire.Inc_fd_ref { token = p.p_token; offset = None }));
              { Fdtable.desc = Fdtable.Pipe p; local_refs = 0 }
          | Fdtable.Console c ->
              { Fdtable.desc = Fdtable.Console c; local_refs = 0 }
        in
        mapping := (entry, child_entry) :: !mapping;
        child_entry
  in
  List.iter
    (fun (fd, entry) ->
      let child_entry = share entry in
      child_entry.Fdtable.local_refs <- child_entry.Fdtable.local_refs + 1;
      Fdtable.alloc_at child fd child_entry)
    (Fdtable.bindings fdt);
  child

let export_fds fdt =
  List.map
    (fun (fd, (entry : Fdtable.entry)) ->
      let x =
        match entry.Fdtable.desc with
        | Fdtable.File fs ->
            Wire.Xfile
              { ino = fs.f_ino; token = fs.f_token; flags = fs.f_flags; pos = fs.f_pos }
        | Fdtable.Pipe p ->
            Wire.Xpipe
              { pipe_ino = p.p_ino; token = p.p_token; write_end = p.p_write }
        | Fdtable.Console c -> Wire.Xconsole c
      in
      (fd, x))
    (Fdtable.bindings fdt)

let import_fds t xfers =
  let fdt = Fdtable.create () in
  let by_token : (int * Fdtable.entry) list ref = ref [] in
  let entry_of (x : Wire.xfer_fd) =
    let keyed token mk =
      match List.assoc_opt token !by_token with
      | Some e -> e
      | None ->
          let e = mk () in
          by_token := (token, e) :: !by_token;
          e
    in
    match x with
    | Wire.Xfile { ino; token; flags; pos } ->
        keyed token (fun () ->
            let fs = Fdtable.file_state ~ino ~token ~flags ~pos ~blocks:[||] ~size:0 in
            if direct_mode t then refresh_blocks t fs;
            { Fdtable.desc = Fdtable.File fs; local_refs = 0 })
    | Wire.Xpipe { pipe_ino; token; write_end } ->
        keyed token (fun () ->
            {
              Fdtable.desc =
                Fdtable.Pipe
                  { p_ino = pipe_ino; p_token = token; p_write = write_end };
              local_refs = 0;
            })
    | Wire.Xconsole c -> { Fdtable.desc = Fdtable.Console c; local_refs = 0 }
  in
  List.iter
    (fun (fd, x) ->
      let e = entry_of x in
      e.Fdtable.local_refs <- e.Fdtable.local_refs + 1;
      Fdtable.alloc_at fdt fd e)
    xfers;
  fdt
