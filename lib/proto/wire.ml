open Types

(* Extensible so [Hare_server] can define the concrete migration payload
   (it references server-internal types) without a dependency cycle. *)
type pack = ..

type fs_req =
  | Lookup of { dir : ino; name : string }
  | Add_map of {
      dir : ino;
      name : string;
      target : ino;
      ftype : ftype;
      dist : bool;
      replace : bool;
    }
  | Rm_map of { dir : ino; name : string; only_if : ino option }
  | Readdir_shard of { dir : ino }
  | Create_open of { dir : ino; name : string; excl : bool; trunc : bool }
  | Create_inode of { ftype : ftype; dist : bool; and_open : bool }
  | Create_dir of { dir : ino; name : string; dist : bool }
  | Open_inode of { ino : ino; trunc : bool }
  | Close_fd of { token : fd_token; size : int option }
  | Read_fd of { token : fd_token; off : int option; len : int }
  | Write_fd of { token : fd_token; off : int option; data : string; append : bool }
  | Lseek_fd of { token : fd_token; pos : int; whence : whence }
  | Alloc_blocks of { ino : ino; count : int; ahead : int }
  | Get_blocks of { ino : ino }
  | Update_size of { token : fd_token; size : int }
  | Get_attr of { ino : ino }
  | Truncate of { ino : ino; size : int }
  | Unlink_ino of { ino : ino }
  | Inc_fd_ref of { token : fd_token; offset : int option }
  | Rmdir_lock of { dir : ino }
  | Rmdir_unlock of { dir : ino }
  | Rmdir_prepare of { dir : ino }
  | Rmdir_commit of { dir : ino }
  | Rmdir_abort of { dir : ino }
  | Rmdir_local of { dir : ino }
  | Pipe_create
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
  | P_attr of attr
  | P_lookup of entry_info
  | P_open of open_info
  | P_created_ino of ino
  | P_read of { data : string; now_local : int option }
  | P_write of { written : int; size : int; now_local : int option }
  | P_lseek of int
  | P_entries of entry list
  | P_blocks of { blocks : int array; bsize : int }
  | P_removed of { target : ino; ftype : ftype }
  | P_pipe of { pipe_ino : ino; rd : fd_token; wr : fd_token }
  | P_open_ino of { oi : open_info; entry : entry_info }
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

and xfer_pos = Local of int | Shared

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

type shed_class = Metadata | Data | Background

type info = {
  op : int;
  name : string;
  span : string;
  shed : shed_class;
  cost : int;
  retryable : bool;
}

(* The request catalogue. Each arm is a constant record, so a lookup
   allocates nothing; the span name is spelled out for the same reason
   (["srv:" ^ name] would build a string per traced request). *)
let info = function
  | Lookup _ -> { op = 0; name = "LOOKUP"; span = "srv:LOOKUP";
      shed = Metadata; cost = 200; retryable = true }
  | Add_map _ -> { op = 1; name = "ADD_MAP"; span = "srv:ADD_MAP";
      shed = Metadata; cost = 400; retryable = true }
  | Rm_map _ -> { op = 2; name = "RM_MAP"; span = "srv:RM_MAP";
      shed = Metadata; cost = 0; retryable = true }
  | Readdir_shard _ -> { op = 3; name = "READDIR"; span = "srv:READDIR";
      shed = Metadata; cost = 200; retryable = true }
  | Create_open _ -> { op = 4; name = "CREATE_OPEN"; span = "srv:CREATE_OPEN";
      shed = Metadata; cost = 900; retryable = true }
  | Create_inode _ -> { op = 5; name = "CREATE_INODE"; span = "srv:CREATE_INODE";
      shed = Metadata; cost = 500; retryable = true }
  | Create_dir _ -> { op = 6; name = "CREATE_DIR"; span = "srv:CREATE_DIR";
      shed = Metadata; cost = 800; retryable = true }
  | Open_inode _ -> { op = 7; name = "OPEN"; span = "srv:OPEN";
      shed = Metadata; cost = 400; retryable = true }
  | Close_fd _ -> { op = 8; name = "CLOSE"; span = "srv:CLOSE";
      shed = Metadata; cost = 200; retryable = true }
  | Read_fd _ -> { op = 9; name = "READ"; span = "srv:READ";
      shed = Data; cost = 300; retryable = true }
  | Write_fd _ -> { op = 10; name = "WRITE"; span = "srv:WRITE";
      shed = Data; cost = 300; retryable = true }
  | Lseek_fd _ -> { op = 11; name = "LSEEK"; span = "srv:LSEEK";
      shed = Metadata; cost = 100; retryable = true }
  (* per block: the server charges [max 1 (count + ahead)] times this *)
  | Alloc_blocks _ -> { op = 12; name = "ALLOC"; span = "srv:ALLOC";
      shed = Data; cost = 150; retryable = true }
  | Get_blocks _ -> { op = 13; name = "GET_BLOCKS"; span = "srv:GET_BLOCKS";
      shed = Data; cost = 150; retryable = true }
  | Update_size _ -> { op = 14; name = "UPDATE_SIZE"; span = "srv:UPDATE_SIZE";
      shed = Data; cost = 100; retryable = true }
  | Get_attr _ -> { op = 15; name = "GETATTR"; span = "srv:GETATTR";
      shed = Metadata; cost = 150; retryable = true }
  | Truncate _ -> { op = 16; name = "TRUNCATE"; span = "srv:TRUNCATE";
      shed = Metadata; cost = 300; retryable = true }
  | Unlink_ino _ -> { op = 17; name = "UNLINK_INO"; span = "srv:UNLINK_INO";
      shed = Background; cost = 250; retryable = true }
  | Inc_fd_ref _ -> { op = 18; name = "INC_FD_REF"; span = "srv:INC_FD_REF";
      shed = Metadata; cost = 150; retryable = true }
  (* not retryable: it parks until the previous holder commits *)
  | Rmdir_lock _ -> { op = 19; name = "RMDIR_LOCK"; span = "srv:RMDIR_LOCK";
      shed = Metadata; cost = 150; retryable = false }
  | Rmdir_unlock _ -> { op = 20; name = "RMDIR_UNLOCK"; span = "srv:RMDIR_UNLOCK";
      shed = Metadata; cost = 150; retryable = true }
  | Rmdir_prepare _ -> { op = 21; name = "RMDIR_PREPARE"; span = "srv:RMDIR_PREPARE";
      shed = Metadata; cost = 250; retryable = true }
  | Rmdir_commit _ -> { op = 22; name = "RMDIR_COMMIT"; span = "srv:RMDIR_COMMIT";
      shed = Metadata; cost = 250; retryable = true }
  | Rmdir_abort _ -> { op = 23; name = "RMDIR_ABORT"; span = "srv:RMDIR_ABORT";
      shed = Metadata; cost = 250; retryable = true }
  | Rmdir_local _ -> { op = 24; name = "RMDIR_LOCAL"; span = "srv:RMDIR_LOCAL";
      shed = Metadata; cost = 400; retryable = true }
  | Pipe_create -> { op = 25; name = "PIPE_CREATE"; span = "srv:PIPE_CREATE";
      shed = Metadata; cost = 500; retryable = true }
  (* not retryable: a parked pipe read or write may legitimately wait
     forever, and no deadline tells a slow peer from a dead server *)
  | Pipe_read _ -> { op = 26; name = "PIPE_READ"; span = "srv:PIPE_READ";
      shed = Data; cost = 200; retryable = false }
  | Pipe_write _ -> { op = 27; name = "PIPE_WRITE"; span = "srv:PIPE_WRITE";
      shed = Data; cost = 200; retryable = false }
  | Steal_blocks _ -> { op = 28; name = "STEAL_BLOCKS"; span = "srv:STEAL_BLOCKS";
      shed = Background; cost = 300; retryable = true }
  | Migrate_out _ -> { op = 29; name = "MIGRATE_OUT"; span = "srv:MIGRATE_OUT";
      shed = Metadata; cost = 800; retryable = true }
  | Install_shard _ -> { op = 30; name = "INSTALL_SHARD"; span = "srv:INSTALL_SHARD";
      shed = Metadata; cost = 800; retryable = true }

let nops = 31

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
  | Readdir_shard { dir = d } -> dir d
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
  | Rmdir_lock { dir = d }
  | Rmdir_unlock { dir = d }
  | Rmdir_prepare { dir = d }
  | Rmdir_commit { dir = d }
  | Rmdir_abort { dir = d }
  | Rmdir_local { dir = d } ->
      dir d
  | Pipe_create -> []
  | Pipe_read { len; _ } -> [ ("len", string_of_int len) ]
  | Pipe_write { data; _ } -> [ ("len", string_of_int (String.length data)) ]
  | Steal_blocks { count } -> [ ("count", string_of_int count) ]
  | Migrate_out { home } | Install_shard { home; _ } ->
      [ ("home", string_of_int home) ]
