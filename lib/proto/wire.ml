open Types

(* Extensible so [Hare_server] can define the concrete migration payload
   (it references server-internal types) without a dependency cycle. *)
type pack = ..

type fs_req =
  | Lookup of { home : int; dir : ino; name : string; client : client_id }
  | Add_map of {
      home : int;
      dir : ino;
      name : string;
      target : ino;
      ftype : ftype;
      dist : bool;
      replace : bool;
      client : client_id;
    }
  | Rm_map of {
      home : int;
      dir : ino;
      name : string;
      only_if : ino option;
      client : client_id;
    }
  | Readdir_shard of { home : int; dir : ino }
  | Create_open of {
      home : int;
      dir : ino;
      name : string;
      excl : bool;
      trunc : bool;
      client : client_id;
    }
  | Create_inode of { home : int; ftype : ftype; dist : bool; and_open : bool }
  | Create_dir of {
      home : int;
      dir : ino;
      name : string;
      dist : bool;
      client : client_id;
    }
  | Open_inode of { ino : ino; trunc : bool; client : client_id }
  | Close_fd of { token : fd_token; size : int option }
  | Read_fd of { token : fd_token; off : int option; len : int }
  | Write_fd of { token : fd_token; off : int option; data : string }
  | Lseek_fd of { token : fd_token; pos : int; whence : whence }
  | Alloc_blocks of { ino : ino; count : int; ahead : int }
  | Get_blocks of { ino : ino }
  | Update_size of { token : fd_token; size : int }
  | Get_attr of { ino : ino }
  | Truncate of { ino : ino; size : int }
  | Unlink_ino of { ino : ino }
  | Link_ino of { ino : ino }
  | Inc_fd_ref of { token : fd_token; offset : int option }
  | Rmdir_lock of { dir : ino }
  | Rmdir_unlock of { dir : ino }
  | Rmdir_prepare of { home : int; dir : ino }
  | Rmdir_commit of { home : int; dir : ino; client : client_id }
  | Rmdir_abort of { home : int; dir : ino }
  | Rmdir_local of { dir : ino; client : client_id }
  | Pipe_create of { home : int; client : client_id }
  | Pipe_read of { token : fd_token; len : int }
  | Pipe_write of { token : fd_token; data : string }
  | Steal_blocks of { count : int }
  | Migrate_out of { home : int }
  | Install_shard of { home : int; pack : pack }

type open_info = { token : fd_token; blocks : int array; isize : int }

(** What a directory entry denotes: the target inode, its type, and (for
    directories) its distribution flag — denormalized so a single lookup
    RPC suffices to keep walking a path. *)
type entry_info = { t_ino : ino; t_ftype : ftype; t_dist : bool }

type entry = { e_name : string; e_ino : ino; e_ftype : ftype }

type fs_payload =
  | P_unit
  | P_ino of ino
  | P_attr of attr
  | P_lookup of { target : ino; ftype : ftype; dist : bool }
  | P_open of open_info
  | P_create of open_info
  | P_created_ino of ino
  | P_read of { data : string; now_local : int option }
  | P_write of { written : int; size : int; now_local : int option }
  | P_lseek of int
  | P_entries of entry list
  | P_blocks of { blocks : int array; bsize : int }
  | P_removed of { target : ino; ftype : ftype }
  | P_pipe of { pipe_ino : ino; rd : fd_token; wr : fd_token }
  | P_open_ino of { oi : open_info; ino : ino }
  | P_pack of pack

type fs_resp = (fs_payload, Errno.t) result

type inval =
  | Inval_entry of { i_dir : ino; i_name : string }
  | Inval_all

type proxy_msg =
  | Pm_child_exit of int
  | Pm_console_write of { data : string; ack : unit Hare_sim.Ivar.t }
  | Pm_signal of int

type console_ref =
  | Console_local of Buffer.t
  | Console_remote of proxy_msg Hare_msg.Mailbox.t

type xfer_fd =
  | Xfile of { ino : ino; token : fd_token; flags : open_flags; pos : xfer_pos }
  | Xpipe of { pipe_ino : ino; token : fd_token; write_end : bool }
  | Xconsole of console_ref

and xfer_pos = Xlocal of int | Xshared

type sched_req =
  | S_exec of {
      prog : string;
      args : string list;
      env : (string * string) list;
      cwd_path : string;
      fds : (int * xfer_fd) list;
      proxy : proxy_msg Hare_msg.Mailbox.t;
      rr_next : int;
    }
  | S_signal of { pid : pid; signal : int }

type sched_resp = (pid, Errno.t) result

let req_name = function
  | Lookup _ -> "LOOKUP"
  | Add_map _ -> "ADD_MAP"
  | Rm_map _ -> "RM_MAP"
  | Readdir_shard _ -> "READDIR"
  | Create_open _ -> "CREATE_OPEN"
  | Create_inode _ -> "CREATE_INODE"
  | Create_dir _ -> "CREATE_DIR"
  | Open_inode _ -> "OPEN"
  | Close_fd _ -> "CLOSE"
  | Read_fd _ -> "READ"
  | Write_fd _ -> "WRITE"
  | Lseek_fd _ -> "LSEEK"
  | Alloc_blocks _ -> "ALLOC"
  | Get_blocks _ -> "GET_BLOCKS"
  | Update_size _ -> "UPDATE_SIZE"
  | Get_attr _ -> "GETATTR"
  | Truncate _ -> "TRUNCATE"
  | Unlink_ino _ -> "UNLINK_INO"
  | Link_ino _ -> "LINK_INO"
  | Inc_fd_ref _ -> "INC_FD_REF"
  | Rmdir_lock _ -> "RMDIR_LOCK"
  | Rmdir_unlock _ -> "RMDIR_UNLOCK"
  | Rmdir_prepare _ -> "RMDIR_PREPARE"
  | Rmdir_commit _ -> "RMDIR_COMMIT"
  | Rmdir_abort _ -> "RMDIR_ABORT"
  | Rmdir_local _ -> "RMDIR_LOCAL"
  | Pipe_create _ -> "PIPE_CREATE"
  | Pipe_read _ -> "PIPE_READ"
  | Pipe_write _ -> "PIPE_WRITE"
  | Steal_blocks _ -> "STEAL_BLOCKS"
  | Migrate_out _ -> "MIGRATE_OUT"
  | Install_shard _ -> "INSTALL_SHARD"

(* Span names for server-side trace contexts. Literal per constructor —
   ["srv:" ^ req_name req] would allocate a fresh string on every traced
   request. *)
let req_srv_name = function
  | Lookup _ -> "srv:LOOKUP"
  | Add_map _ -> "srv:ADD_MAP"
  | Rm_map _ -> "srv:RM_MAP"
  | Readdir_shard _ -> "srv:READDIR"
  | Create_open _ -> "srv:CREATE_OPEN"
  | Create_inode _ -> "srv:CREATE_INODE"
  | Create_dir _ -> "srv:CREATE_DIR"
  | Open_inode _ -> "srv:OPEN"
  | Close_fd _ -> "srv:CLOSE"
  | Read_fd _ -> "srv:READ"
  | Write_fd _ -> "srv:WRITE"
  | Lseek_fd _ -> "srv:LSEEK"
  | Alloc_blocks _ -> "srv:ALLOC"
  | Get_blocks _ -> "srv:GET_BLOCKS"
  | Update_size _ -> "srv:UPDATE_SIZE"
  | Get_attr _ -> "srv:GETATTR"
  | Truncate _ -> "srv:TRUNCATE"
  | Unlink_ino _ -> "srv:UNLINK_INO"
  | Link_ino _ -> "srv:LINK_INO"
  | Inc_fd_ref _ -> "srv:INC_FD_REF"
  | Rmdir_lock _ -> "srv:RMDIR_LOCK"
  | Rmdir_unlock _ -> "srv:RMDIR_UNLOCK"
  | Rmdir_prepare _ -> "srv:RMDIR_PREPARE"
  | Rmdir_commit _ -> "srv:RMDIR_COMMIT"
  | Rmdir_abort _ -> "srv:RMDIR_ABORT"
  | Rmdir_local _ -> "srv:RMDIR_LOCAL"
  | Pipe_create _ -> "srv:PIPE_CREATE"
  | Pipe_read _ -> "srv:PIPE_READ"
  | Pipe_write _ -> "srv:PIPE_WRITE"
  | Steal_blocks _ -> "srv:STEAL_BLOCKS"
  | Migrate_out _ -> "srv:MIGRATE_OUT"
  | Install_shard _ -> "srv:INSTALL_SHARD"

(* Overload priority class: metadata RPCs (0) are never shed, data RPCs
   (1) move bulk bytes, background RPCs (2) are deferrable housekeeping.
   Rides the RPC envelope so a loaded server can shed by class. *)
let req_prio : fs_req -> int = function
  | Read_fd _ | Write_fd _ | Alloc_blocks _ | Get_blocks _ | Update_size _
  | Pipe_read _ | Pipe_write _ ->
      1
  | Unlink_ino _ | Steal_blocks _ -> 2
  | _ -> 0

(* Compact request arguments for trace spans: enough to identify the
   object an op touched without dumping payloads. *)
let req_args req =
  let pp i = Format.asprintf "%a" pp_ino i in
  let ino i = [ ("ino", pp i) ] in
  let dir d = [ ("dir", pp d) ] in
  match req with
  | Lookup { dir = d; name; _ } -> dir d @ [ ("name", name) ]
  | Add_map { dir = d; name; _ } -> dir d @ [ ("name", name) ]
  | Rm_map { dir = d; name; _ } -> dir d @ [ ("name", name) ]
  | Readdir_shard { dir = d; _ } -> dir d
  | Create_open { dir = d; name; _ } -> dir d @ [ ("name", name) ]
  | Create_inode _ -> []
  | Create_dir { dir = d; name; _ } -> dir d @ [ ("name", name) ]
  | Open_inode { ino = i; _ } -> ino i
  | Close_fd _ | Lseek_fd _ | Update_size _ | Inc_fd_ref _ -> []
  | Read_fd { len; _ } -> [ ("len", string_of_int len) ]
  | Write_fd { data; _ } -> [ ("len", string_of_int (String.length data)) ]
  | Alloc_blocks { ino = i; count; _ } ->
      ino i @ [ ("count", string_of_int count) ]
  | Get_blocks { ino = i } -> ino i
  | Get_attr { ino = i } -> ino i
  | Truncate { ino = i; size } -> ino i @ [ ("size", string_of_int size) ]
  | Unlink_ino { ino = i } -> ino i
  | Link_ino { ino = i } -> ino i
  | Rmdir_lock { dir = d }
  | Rmdir_unlock { dir = d }
  | Rmdir_prepare { dir = d; _ }
  | Rmdir_abort { dir = d; _ } ->
      dir d
  | Rmdir_commit { dir = d; _ } | Rmdir_local { dir = d; _ } -> dir d
  | Pipe_create _ -> []
  | Pipe_read { len; _ } -> [ ("len", string_of_int len) ]
  | Pipe_write { data; _ } -> [ ("len", string_of_int (String.length data)) ]
  | Steal_blocks { count } -> [ ("count", string_of_int count) ]
  | Migrate_out { home } | Install_shard { home; _ } ->
      [ ("home", string_of_int home) ]

let pp_fs_req ppf req =
  match req with
  | Lookup { dir; name; _ } ->
      Format.fprintf ppf "LOOKUP(%a, %s)" pp_ino dir name
  | Add_map { dir; name; target; _ } ->
      Format.fprintf ppf "ADD_MAP(%a, %s -> %a)" pp_ino dir name pp_ino target
  | Rm_map { dir; name; _ } ->
      Format.fprintf ppf "RM_MAP(%a, %s)" pp_ino dir name
  | Create_open { dir; name; _ } ->
      Format.fprintf ppf "CREATE_OPEN(%a, %s)" pp_ino dir name
  | Open_inode { ino; _ } -> Format.fprintf ppf "OPEN(%a)" pp_ino ino
  | Readdir_shard { dir; _ } -> Format.fprintf ppf "READDIR(%a)" pp_ino dir
  | _ -> Format.pp_print_string ppf (req_name req)
