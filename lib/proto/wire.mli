(** Message formats of the Hare protocol.

    File-system requests are grouped by the server that handles them:
    directory-entry operations go to the shard server determined by
    {!Types.dentry_server}; inode/file-descriptor operations go to the
    inode's home server; the three-phase rmdir protocol (§3.3) touches the
    home server (lock) and then every server (prepare/commit/abort).

    Coalesced messages ({!fs_req.Create_open}) implement §3.6.3: when the
    directory entry and the new inode land on the same server, create +
    link + open travel as one message. *)

open Types

type pack = ..
(** Opaque shard-migration payload: the whole state of one logical home
    (inodes, dentry shards, open descriptors, dedup memory, block
    ownership). Extensible so [Hare_server] can define the concrete
    constructor — it references server-internal types — without a
    dependency cycle. *)

(** Requests that address a directory-entry shard or mint an inode carry
    the {e logical home} ([home]) they are aimed at: under [Sharded]
    placement several homes can share a physical server (and move between
    servers mid-run), so the receiving server cannot infer the home from
    its own id. A server answers [EMOVED] — before execution, before
    dedup recording — when it does not currently host the request's home;
    clients then re-resolve the ring route and resend. Inode, token and
    rmdir-lock requests derive their home from the [ino]/[token]/[dir]
    field instead. *)
type fs_req =
  (* directory-entry (shard) operations *)
  | Lookup of { home : int; dir : ino; name : string; client : client_id }
  | Add_map of {
      home : int;
      dir : ino;
      name : string;
      target : ino;
      ftype : ftype;
      dist : bool;  (** target's distribution flag, denormalized into the
                        entry so lookups need one RPC (§3.6.1). *)
      replace : bool;
      client : client_id;
    }
  | Rm_map of {
      home : int;
      dir : ino;
      name : string;
      only_if : ino option;
          (** remove only if the entry still points here — rename's
              compensation relies on inode ids never being reused. *)
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
    }  (** coalesced create-inode + add-map + open for regular files. *)
  (* inode (home server) operations *)
  | Create_inode of { home : int; ftype : ftype; dist : bool; and_open : bool }
  | Create_dir of {
      home : int;
      dir : ino;
      name : string;
      dist : bool;
      client : client_id;
    }
      (** coalesced mkdir: inode + entry when both land on one server
          (§3.6.3). *)
  | Open_inode of { ino : ino; trunc : bool; client : client_id }
  | Close_fd of { token : fd_token; size : int option }
  | Read_fd of { token : fd_token; off : int option; len : int }
  | Write_fd of { token : fd_token; off : int option; data : string; append : bool }
      (** [off = None] writes at the shared offset, or at end-of-file when
          the descriptor was opened [append] (§3.4). *)
  | Lseek_fd of { token : fd_token; pos : int; whence : whence }
  | Alloc_blocks of { ino : ino; count : int; ahead : int }
      (** grow the file by [count] blocks, plus up to [ahead] extra as an
          extent lease (best effort: the hint is dropped before failing
          with ENOSPC). [ahead = 0] is the paper's per-need allocation. *)
  | Get_blocks of { ino : ino }
  | Update_size of { token : fd_token; size : int }
  | Get_attr of { ino : ino }
  | Truncate of { ino : ino; size : int }
  | Unlink_ino of { ino : ino }
  | Inc_fd_ref of { token : fd_token; offset : int option }
      (** fork-time share: the client's local offset migrates in. *)
  (* three-phase rmdir *)
  | Rmdir_lock of { dir : ino }
  | Rmdir_unlock of { dir : ino }
  | Rmdir_prepare of { home : int; dir : ino }
  | Rmdir_commit of { home : int; dir : ino; client : client_id }
  | Rmdir_abort of { home : int; dir : ino }
  | Rmdir_local of { dir : ino; client : client_id }
      (** coalesced rmdir of a {e centralized} directory: emptiness check
          and inode removal are atomic at the home server, so the
          three-phase protocol is unnecessary. *)
  (* pipes *)
  | Pipe_create of { home : int; client : client_id }
  | Pipe_read of { token : fd_token; len : int }
  | Pipe_write of { token : fd_token; data : string }
  | Steal_blocks of { count : int }
      (** server→server ({e extension}, §3.2): ask a peer to donate free
          buffer-cache blocks when this server's partition is dry. *)
  (* shard migration (coordinator→server, {e extension}) *)
  | Migrate_out of { home : int }
      (** pack up logical home [home] and stop hosting it. Replies
          [P_pack] with the home's entire state, or [EBUSY] if the home
          holds parked continuations (pipe waiters, rmdir marks/locks)
          that cannot move. Sent reliably (no idempotency tag), so fault
          plans never drop it and a crashed server replays it at
          restart. *)
  | Install_shard of { home : int; pack : pack }
      (** adopt a packed home: install its inodes, dentry shards, open
          descriptors and dedup memory, and take ownership of its
          buffer-cache blocks. Also reliable. *)

type open_info = { token : fd_token; blocks : int array; isize : int }

(** What a directory entry denotes: the target inode, its type, and (for
    directories) its distribution flag — denormalized so a single lookup
    RPC suffices to keep walking a path. *)
type entry_info = { t_ino : ino; t_ftype : ftype; t_dist : bool }

type entry = { e_name : string; e_ino : ino; e_ftype : ftype }

type fs_payload =
  | P_unit
  | P_attr of attr
  | P_lookup of { target : ino; ftype : ftype; dist : bool }
  | P_open of open_info
  | P_created_ino of ino  (** reply to [Create_inode]. *)
  | P_read of { data : string; now_local : int option }
      (** [now_local]: lazy demotion — the fd's shared refcount dropped to
          one, the offset migrates back to the client (§3.4). *)
  | P_write of { written : int; size : int; now_local : int option }
  | P_lseek of int
  | P_entries of entry list
  | P_blocks of { blocks : int array; bsize : int }
  | P_removed of { target : ino; ftype : ftype }
  | P_pipe of { pipe_ino : ino; rd : fd_token; wr : fd_token }
  | P_open_ino of { oi : open_info; ino : ino }
  | P_pack of pack  (** reply to [Migrate_out]. *)

type fs_resp = (fs_payload, Errno.t) result

(** Directory-cache invalidation pushed from server to client (§3.6.1).
    [Inval_all] is sent by a server coming back from a crash: the client
    cannot tell which of its entries the reborn server would have
    invalidated, so it must flush them all. *)
type inval =
  | Inval_entry of { i_dir : ino; i_name : string }
  | Inval_all

(** Messages to a proxy process left behind by a remote exec (§3.5). *)
type proxy_msg =
  | Pm_child_exit of int
  | Pm_console_write of { data : string; ack : unit Hare_sim.Ivar.t }
  | Pm_signal of int  (** relayed from the proxy's parent to the child. *)

type console_ref =
  | Console_local of Buffer.t
  | Console_remote of proxy_msg Hare_msg.Mailbox.t

(** File-descriptor snapshot carried by an exec RPC. *)
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
      rr_next : int;  (** round-robin placement state, parent→child. *)
    }
  | S_signal of { pid : pid; signal : int }

type sched_resp = (pid, Errno.t) result

(** Overload shed class, read by a loaded server from the request
    itself: [Metadata] is never shed, [Data] moves bulk bytes and is shed
    above twice the watermark, [Background] is deferrable housekeeping,
    shed first (above the watermark). *)
type shed_class = Metadata | Data | Background

(** The fixed facts of one opcode. *)
type info = {
  name : string;  (** wire name, e.g. ["LOOKUP"]: per-op statistics *)
  span : string;  (** ["srv:" ^ name]: the server-side trace span *)
  shed : shed_class;
  cost : int;  (** server compute per request, in cycles *)
  retryable : bool;
      (** safe to retransmit under the (client, seq) dedup protocol;
          retryable requests are the ones tagged and timed out *)
}

val info : fs_req -> info
(** The request catalogue: one constant record per opcode, so a lookup
    allocates nothing. *)

val req_args : fs_req -> (string * string) list
(** Compact key/value identification of the request's target (inode,
    directory entry, payload length) for trace-span annotation. *)
