(* The model VFS: POSIX semantics over immutable maps from absolute path
   to inode, from inode to contents and from (process, handle) to inode
   and offset. See model.mli. *)

module Errno = Hare_proto.Errno
module Smap = Map.Make (String)
module Imap = Map.Make (Int)

module Hmap = Map.Make (struct type t = int * int let compare = compare end)

type entry = File of int  (** inode *) | Dir

type t = {
  names : entry Smap.t;
  files : string Imap.t;  (** inode -> contents, orphans included *)
  handles : (int * int) Hmap.t;  (** (process, handle) -> (inode, offset) *)
}

type op =
  | Open of { h : int; path : string; create : bool }
  | Close of int
  | Write of { h : int; data : string }
  | Read of int
  | Seek of { h : int; off : int }
  | Stat of string
  | Unlink of string
  | Mkdir of string
  | Rmdir of string
  | Rename of { src : string; dst : string }
  | Readdir of string

type value =
  | Unit
  | Fd of int
  | Int of int
  | Data of string
  | Is_dir
  | Names of string list

let init dirs =
  let add m d = Smap.add d Dir m in
  let names = List.fold_left add (Smap.singleton "/" Dir) dirs in
  { names; files = Imap.empty; handles = Hmap.empty }

let compare a b =
  let key t =
    (Smap.bindings t.names, Imap.bindings t.files, Hmap.bindings t.handles)
  in
  Stdlib.compare (key a) (key b)

let parent p =
  match String.rindex_opt p '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub p 0 i

(* [p] lies strictly below directory [d]. *)
let under d p =
  String.length p > String.length d + 1
  && String.sub p 0 (String.length d + 1) = d ^ "/"

(* The errno of a lookup that found no [p]: ENOTDIR when the walk ran
   into a regular file on the way, ENOENT otherwise. *)
let rec missing t p =
  match Smap.find_opt (parent p) t.names with
  | Some Dir -> Errno.ENOENT
  | Some (File _) -> Errno.ENOTDIR
  | None -> missing t (parent p)

let find t p =
  match Smap.find_opt p t.names with
  | Some e -> Ok e
  | None -> Error (missing t p)

(* A new name [p] needs its parent to be a directory. *)
let creatable t p =
  match find t (parent p) with
  | Ok Dir -> Ok ()
  | Ok (File _) -> Error Errno.ENOTDIR
  | Error e -> Error e

let children t d =
  Smap.fold
    (fun p _ acc ->
      if p <> "/" && parent p = d then Filename.basename p :: acc else acc)
    t.names []
  |> List.sort String.compare

(* Drop [ino] once no name and no handle refers to it. *)
let release t ino =
  if
    Smap.exists (fun _ e -> e = File ino) t.names
    || Hmap.exists (fun _ (i, _) -> i = ino) t.handles
  then t
  else { t with files = Imap.remove ino t.files }

(* Write [data] at [off]: zero-fill a hole past the end, keep any tail. *)
let splice old ~off data =
  let len = String.length old and tail = off + String.length data in
  String.concat ""
    [
      (if len >= off then String.sub old 0 off
       else old ^ String.make (off - len) '\000');
      data;
      (if len > tail then String.sub old tail (len - tail) else "");
    ]

let ( let* ) = Result.bind

let step t ~proc op =
  let handle h =
    Option.to_result ~none:Errno.EBADF (Hmap.find_opt (proc, h) t.handles)
  in
  let bind h ino off t =
    { t with handles = Hmap.add (proc, h) (ino, off) t.handles }
  in
  match op with
  | Open { h; path; create } -> (
      if Hmap.mem (proc, h) t.handles then Error Errno.EBADF
      else
        match Smap.find_opt path t.names with
        | Some (File ino) -> Ok (Fd h, bind h ino 0 t)
        | Some Dir -> Error Errno.EISDIR
        | None when create ->
            let* () = creatable t path in
            let ino =
              match Imap.max_binding_opt t.files with
              | Some (i, _) -> i + 1
              | None -> 0
            in
            let names = Smap.add path (File ino) t.names in
            let files = Imap.add ino "" t.files in
            Ok (Fd h, bind h ino 0 { t with names; files })
        | None -> Error (missing t path))
  | Close h ->
      let* ino, _ = handle h in
      let handles = Hmap.remove (proc, h) t.handles in
      Ok (Unit, release { t with handles } ino)
  | Write { h; data } ->
      let* ino, off = handle h in
      let contents = splice (Imap.find ino t.files) ~off data in
      let n = String.length data in
      Ok
        ( Int n,
          bind h ino (off + n) { t with files = Imap.add ino contents t.files }
        )
  | Read h ->
      let* ino, off = handle h in
      let c = Imap.find ino t.files in
      let len = String.length c in
      let d = if off >= len then "" else String.sub c off (len - off) in
      Ok (Data d, bind h ino (off + String.length d) t)
  | Seek { h; off } ->
      let* ino, _ = handle h in
      if off < 0 then Error Errno.EINVAL else Ok (Int off, bind h ino off t)
  | Stat path -> (
      let* e = find t path in
      match e with
      | File ino -> Ok (Int (String.length (Imap.find ino t.files)), t)
      | Dir -> Ok (Is_dir, t))
  | Unlink path -> (
      let* e = find t path in
      match e with
      | Dir -> Error Errno.EISDIR
      | File ino ->
          Ok (Unit, release { t with names = Smap.remove path t.names } ino))
  | Mkdir path ->
      if Smap.mem path t.names then Error Errno.EEXIST
      else
        let* () = creatable t path in
        Ok (Unit, { t with names = Smap.add path Dir t.names })
  | Rmdir path -> (
      let* e = find t path in
      match e with
      | File _ -> Error Errno.ENOTDIR
      | Dir when path = "/" -> Error Errno.EBUSY
      | Dir when children t path <> [] -> Error Errno.ENOTEMPTY
      | Dir -> Ok (Unit, { t with names = Smap.remove path t.names }))
  | Rename { src; dst } -> (
      let* e = find t src in
      let* () = creatable t dst in
      match (e, Smap.find_opt dst t.names) with
      | _ when src = dst -> Ok (Unit, t)
      | _, Some Dir -> Error Errno.EISDIR
      | Dir, Some (File _) -> Error Errno.ENOTDIR
      | Dir, None when under src dst -> Error Errno.EINVAL
      | _, over ->
          (* Move [src] and, for a directory, everything below it; a
             file renamed over loses its name. *)
          let moved, rest =
            Smap.partition (fun p _ -> p = src || under src p) t.names
          in
          let cut = String.length src in
          let names =
            Smap.fold
              (fun p e acc ->
                Smap.add (dst ^ String.sub p cut (String.length p - cut)) e acc)
              moved rest
          in
          let t = { t with names } in
          Ok (Unit, match over with Some (File ino) -> release t ino | _ -> t))
  | Readdir path -> (
      let* e = find t path in
      match e with
      | Dir -> Ok (Names (children t path), t)
      | File _ -> Error Errno.ENOTDIR)

let apply t ~proc op =
  match step t ~proc op with
  | Ok (v, next) -> (Ok v, next)
  | Error e -> (Error e, t)

let op_to_string = function
  | Open { path; create; _ } ->
      Printf.sprintf "open(%s%s)" path (if create then ", create" else "")
  | Close h -> Printf.sprintf "close(h%d)" h
  | Write { h; data } ->
      Printf.sprintf "write(h%d, %d bytes)" h (String.length data)
  | Read h -> Printf.sprintf "read(h%d)" h
  | Seek { h; off } -> Printf.sprintf "seek(h%d, %d)" h off
  | Stat p -> Printf.sprintf "stat(%s)" p
  | Unlink p -> Printf.sprintf "unlink(%s)" p
  | Mkdir p -> Printf.sprintf "mkdir(%s)" p
  | Rmdir p -> Printf.sprintf "rmdir(%s)" p
  | Rename { src; dst } -> Printf.sprintf "rename(%s, %s)" src dst
  | Readdir p -> Printf.sprintf "readdir(%s)" p

let result_to_string = function
  | Ok Unit -> "ok"
  | Ok (Fd h) -> Printf.sprintf "h%d" h
  | Ok (Int n) -> string_of_int n
  | Ok (Data d) -> Printf.sprintf "%d bytes" (String.length d)
  | Ok Is_dir -> "dir"
  | Ok (Names l) -> "[" ^ String.concat "," l ^ "]"
  | Error e -> Errno.to_string e
