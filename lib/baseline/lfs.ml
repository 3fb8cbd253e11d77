open Hare_sim
open Hare_proto
open Hare_proto.Types
module Path = Hare_client.Path

let bs = Hare_mem.Layout.block_size

type node = {
  id : int;
  ftype : ftype;
  mutable size : int;
  mutable blocks : int array;
  mutable nlink : int;
  mutable open_count : int;
  mutable unlinked : bool;
  children : (string, node) Hashtbl.t;
  lock : Slock.t;
}

type t = {
  engine : Engine.t;
  costs : Hare_config.Costs.t;
  dram : Hare_mem.Dram.t;
  free : Hare_mem.Freelist.t;
  alloc_lock : Slock.t;
  block_home : int array ref;
      (* socket that first touched each block handed out so far: grown
         to the highest block number, unknown blocks on socket 0 *)
  cores : Core_res.t array;
  pcaches : Hare_mem.Pcache.t array;
  root : node;
  mutable next_id : int;
  ops : Hare_stats.Opcount.t;
}

(* Per-operation CPU work of the in-kernel VFS + tmpfs code paths, in
   cycles. Calibrated so single-core Hare lands at roughly 0.4x of Linux
   (Figure 8: median 0.39x). *)
let c_lookup_component = 250

let c_open = 900

let c_create_work = 2000

let c_unlink_work = 1000

let c_rename_work = 1500

let c_mkdir_work = 2500

let c_rmdir_work = 2000

let c_stat = 500

let c_rw_base = 400

let c_readdir_base = 400

let c_readdir_entry = 40

let mk_node t ftype =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  {
    id;
    ftype;
    size = 0;
    blocks = [||];
    nlink = 1;
    open_count = 0;
    unlinked = false;
    children = Hashtbl.create 8;
    lock = Slock.create ~name:(Printf.sprintf "inode-%d" id);
  }

let create ~engine ~config ~cores =
  let costs = config.Hare_config.Config.costs in
  let nblocks = config.Hare_config.Config.buffer_cache_blocks in
  let dram = Hare_mem.Dram.create ~nblocks in
  let free = Hare_mem.Freelist.create ~first:0 ~count:nblocks in
  let block_home = ref [||] in
  let block_socket b =
    let h = !block_home in
    if b < Array.length h then h.(b) else 0
  in
  let pcaches =
    Array.map
      (fun core ->
        Hare_mem.Pcache.create ~block_socket dram ~core ~costs
          ~capacity_lines:config.Hare_config.Config.pcache_lines)
      cores
  in
  let root =
    {
      id = 0;
      ftype = Dir;
      size = 0;
      blocks = [||];
      nlink = 1;
      open_count = 0;
      unlinked = false;
      children = Hashtbl.create 8;
      lock = Slock.create ~name:"inode-0";
    }
  in
  {
    engine;
    costs;
    dram;
    free;
    alloc_lock = Slock.create ~name:"alloc";
    block_home;
    cores;
    pcaches;
    root;
    next_id = 1;
    ops = Hare_stats.Opcount.create ();
  }

let size n = n.size

let syscalls t = t.ops

let node_attr n =
  {
    a_ino = { server = 0; ino = n.id };
    a_ftype = n.ftype;
    a_size = n.size;
    a_nlink = n.nlink;
    a_dist = false;
  }

let core t core = t.cores.(core)

let syscall t ~core:c name extra =
  Hare_stats.Opcount.incr t.ops name;
  Core_res.compute (core t c) (t.costs.linux_syscall + extra)

(* ---------- block allocation (global lock, first-touch NUMA) ---------- *)

let set_home t b socket =
  let h = !(t.block_home) in
  if b >= Array.length h then begin
    let grown = Array.make (Int.max (b + 1) (2 * Array.length h)) 0 in
    Array.blit h 0 grown 0 (Array.length h);
    t.block_home := grown
  end;
  !(t.block_home).(b) <- socket

let alloc_blocks t ~core:c n =
  Slock.acquire t.alloc_lock ~core:(core t c) ~cost:t.costs.linux_lock;
  Core_res.compute (core t c) (100 * n);
  let out =
    if Hare_mem.Freelist.length t.free < n then None
    else
      Some
        (Array.init n (fun _ ->
             let b = Hare_mem.Freelist.pop t.free in
             set_home t b (Core_res.socket (core t c));
             Hare_mem.Dram.zero_block t.dram ~block:b;
             b))
  in
  Slock.release t.alloc_lock;
  match out with None -> Errno.raise_errno Errno.ENOSPC "alloc" | Some a -> a

(* As on Hare, a freed block's page goes back to DRAM. *)
let free_blocks t blocks =
  Array.iter
    (fun b ->
      Hare_mem.Freelist.push t.free b;
      Hare_mem.Dram.release t.dram ~block:b)
    blocks

let ensure_blocks t ~core node ~sz =
  let need = Hare_mem.Layout.blocks_for sz in
  let have = Array.length node.blocks in
  if need > have then
    node.blocks <- Array.append node.blocks (alloc_blocks t ~core (need - have))

(* ---------- path resolution ------------------------------------------- *)

let lookup_child t ~core:c dir name =
  Core_res.compute (core t c) c_lookup_component;
  match Hashtbl.find_opt dir.children name with
  | Some n -> n
  | None -> Errno.raise_errno Errno.ENOENT name

let resolve_comps t ~core comps =
  List.fold_left
    (fun dir comp ->
      if dir.ftype <> Dir then Errno.raise_errno Errno.ENOTDIR comp
      else lookup_child t ~core dir comp)
    t.root comps

let resolve t ~core ~cwd path =
  resolve_comps t ~core (Path.normalize ~cwd path)

let resolve_parent t ~core ~cwd path =
  let comps = Path.normalize ~cwd path in
  let parent_comps, name = Path.parent_and_name comps in
  let parent = resolve_comps t ~core parent_comps in
  if parent.ftype <> Dir then Errno.raise_errno Errno.ENOTDIR path;
  (parent, name)

(* ---------- data path -------------------------------------------------- *)

let copy_out t ~core node ~off ~len =
  let len = max 0 (min len (node.size - off)) in
  if len = 0 then ""
  else begin
    let out = Bytes.create len in
    Hare_mem.Layout.iter_range node.blocks ~off ~len
      (fun pc ~block ~off ~len dst dst_off ->
        Hare_mem.Pcache.read_coherent pc ~block ~off ~len ~dst ~dst_off)
      t.pcaches.(core) out;
    Bytes.unsafe_to_string out
  end

let copy_in t ~core node ~off data =
  let len = String.length data in
  ensure_blocks t ~core node ~sz:(off + len);
  Hare_mem.Layout.iter_range node.blocks ~off ~len
    (fun pc ~block ~off ~len src src_off ->
      Hare_mem.Pcache.write_coherent pc ~block ~off ~len ~src ~src_off)
    t.pcaches.(core) (Bytes.unsafe_of_string data);
  if off + len > node.size then node.size <- off + len;
  len

(* ---------- operations ------------------------------------------------- *)

let maybe_free t node =
  if node.unlinked && node.open_count = 0 && node.nlink <= 0 then begin
    free_blocks t node.blocks;
    node.blocks <- [||]
  end

let do_truncate t ~core:c node ~sz =
  if sz < node.size then begin
    let keep = Hare_mem.Layout.blocks_for sz in
    let have = Array.length node.blocks in
    if keep < have then begin
      free_blocks t (Array.sub node.blocks keep (have - keep));
      node.blocks <- Array.sub node.blocks 0 keep
    end;
    (if keep > 0 then
       let tail = sz mod bs in
       if tail > 0 then
         Hare_mem.Dram.zero_range t.dram ~block:node.blocks.(keep - 1) ~off:tail
           ~len:(bs - tail));
    node.size <- sz
  end
  else if sz > node.size then begin
    ensure_blocks t ~core:c node ~sz;
    node.size <- sz
  end

let open_file t ~core:c ~cwd path (flags : open_flags) =
  syscall t ~core:c "open" c_open;
  let parent, name = resolve_parent t ~core:c ~cwd path in
  let node =
    match Hashtbl.find_opt parent.children name with
    | Some n ->
        Core_res.compute (core t c) c_lookup_component;
        if flags.excl && flags.creat then Errno.raise_errno Errno.EEXIST name;
        if n.ftype = Dir then Errno.raise_errno Errno.EISDIR name;
        n
    | None ->
        if not flags.creat then Errno.raise_errno Errno.ENOENT name;
        (* Serialize creates in one directory on its lock (the Linux
           bottleneck the paper contrasts with directory distribution). *)
        Slock.acquire parent.lock ~core:(core t c) ~cost:t.costs.linux_lock;
        Core_res.compute (core t c) (t.costs.linux_dirlock_hold + c_create_work);
        let n =
          match Hashtbl.find_opt parent.children name with
          | Some existing -> existing (* lost the race *)
          | None ->
              let n = mk_node t Reg in
              Hashtbl.replace parent.children name n;
              n
        in
        Slock.release parent.lock;
        n
  in
  if flags.trunc then do_truncate t ~core:c node ~sz:0;
  node.open_count <- node.open_count + 1;
  node

let close_file t ~core:c node =
  syscall t ~core:c "close" 200;
  node.open_count <- node.open_count - 1;
  maybe_free t node

let read_file t ~core:c node ~off ~len =
  syscall t ~core:c "read" c_rw_base;
  copy_out t ~core:c node ~off ~len

let write_file t ~core:c node ~off data =
  syscall t ~core:c "write" c_rw_base;
  (* Writers serialize on the inode lock while copying. *)
  Slock.acquire node.lock ~core:(core t c) ~cost:t.costs.linux_lock;
  let n = copy_in t ~core:c node ~off data in
  Slock.release node.lock;
  n

let truncate t ~core:c node ~size =
  syscall t ~core:c "ftruncate" 600;
  Slock.acquire node.lock ~core:(core t c) ~cost:t.costs.linux_lock;
  do_truncate t ~core:c node ~sz:size;
  Slock.release node.lock

let fsync_file t ~core:c _node = syscall t ~core:c "fsync" 400

let unlink t ~core:c ~cwd path =
  syscall t ~core:c "unlink" 0;
  let parent, name = resolve_parent t ~core:c ~cwd path in
  Slock.acquire parent.lock ~core:(core t c) ~cost:t.costs.linux_lock;
  Core_res.compute (core t c) (t.costs.linux_dirlock_hold + c_unlink_work);
  let result =
    match Hashtbl.find_opt parent.children name with
    | None -> Error Errno.ENOENT
    | Some n when n.ftype = Dir -> Error Errno.EISDIR
    | Some n ->
        Hashtbl.remove parent.children name;
        n.nlink <- n.nlink - 1;
        if n.nlink <= 0 then n.unlinked <- true;
        Ok n
  in
  Slock.release parent.lock;
  match result with
  | Ok n -> maybe_free t n
  | Error e -> Errno.raise_errno e name

let mkdir t ~core:c ~cwd path =
  syscall t ~core:c "mkdir" 0;
  let parent, name = resolve_parent t ~core:c ~cwd path in
  Slock.acquire parent.lock ~core:(core t c) ~cost:t.costs.linux_lock;
  Core_res.compute (core t c) (t.costs.linux_dirlock_hold + c_mkdir_work);
  let result =
    if Hashtbl.mem parent.children name then Error Errno.EEXIST
    else begin
      Hashtbl.replace parent.children name (mk_node t Dir);
      Ok ()
    end
  in
  Slock.release parent.lock;
  match result with Ok () -> () | Error e -> Errno.raise_errno e name

let rmdir t ~core:c ~cwd path =
  syscall t ~core:c "rmdir" 0;
  let parent, name = resolve_parent t ~core:c ~cwd path in
  Slock.acquire parent.lock ~core:(core t c) ~cost:t.costs.linux_lock;
  Core_res.compute (core t c) (t.costs.linux_dirlock_hold + c_rmdir_work);
  let result =
    match Hashtbl.find_opt parent.children name with
    | None -> Error Errno.ENOENT
    | Some n when n.ftype <> Dir -> Error Errno.ENOTDIR
    | Some n when Hashtbl.length n.children > 0 -> Error Errno.ENOTEMPTY
    | Some _ ->
        Hashtbl.remove parent.children name;
        Ok ()
  in
  Slock.release parent.lock;
  match result with Ok () -> () | Error e -> Errno.raise_errno e name

let rename t ~core:c ~cwd oldp newp =
  syscall t ~core:c "rename" 0;
  let oparent, oname = resolve_parent t ~core:c ~cwd oldp in
  let nparent, nname = resolve_parent t ~core:c ~cwd newp in
  if oparent == nparent && oname = nname then begin
    (* The old name must exist even when renamed onto itself (POSIX). *)
    if not (Hashtbl.mem oparent.children oname) then
      Errno.raise_errno Errno.ENOENT oldp
  end
  else begin
    (* Lock ordering by inode id, as the kernel does. *)
    let first, second =
      if oparent == nparent then (oparent, None)
      else if oparent.id < nparent.id then (oparent, Some nparent)
      else (nparent, Some oparent)
    in
    Slock.acquire first.lock ~core:(core t c) ~cost:t.costs.linux_lock;
    (match second with
    | Some s -> Slock.acquire s.lock ~core:(core t c) ~cost:t.costs.linux_lock
    | None -> ());
    Core_res.compute (core t c) (t.costs.linux_dirlock_hold + c_rename_work);
    let result =
      match Hashtbl.find_opt oparent.children oname with
      | None -> Error Errno.ENOENT
      | Some n -> (
          match Hashtbl.find_opt nparent.children nname with
          | Some victim when victim.ftype = Dir -> Error Errno.EISDIR
          | Some _ when n.ftype = Dir ->
              (* directory over an existing file: POSIX says ENOTDIR *)
              Error Errno.ENOTDIR
          | victim ->
              Hashtbl.remove oparent.children oname;
              Hashtbl.replace nparent.children nname n;
              (match victim with
              | Some v when v != n ->
                  v.nlink <- v.nlink - 1;
                  if v.nlink <= 0 then v.unlinked <- true;
                  maybe_free t v
              | _ -> ());
              Ok ())
    in
    (match second with Some s -> Slock.release s.lock | None -> ());
    Slock.release first.lock;
    match result with Ok () -> () | Error e -> Errno.raise_errno e oldp
  end

let readdir t ~core:c ~cwd path =
  let dir = resolve t ~core:c ~cwd path in
  if dir.ftype <> Dir then Errno.raise_errno Errno.ENOTDIR path;
  syscall t ~core:c "readdir"
    (c_readdir_base + (c_readdir_entry * Hashtbl.length dir.children));
  Slock.acquire dir.lock ~core:(core t c) ~cost:t.costs.linux_lock;
  let out =
    Hashtbl.fold (fun name n acc -> (name, n.ftype) :: acc) dir.children []
  in
  Slock.release dir.lock;
  out

let stat t ~core:c ~cwd path =
  syscall t ~core:c "stat" c_stat;
  node_attr (resolve t ~core:c ~cwd path)
