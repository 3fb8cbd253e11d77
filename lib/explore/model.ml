(* The model VFS: POSIX path-level semantics over an immutable map from
   absolute path to node. See model.mli. *)

module Errno = Hare_proto.Errno
module Smap = Map.Make (String)

type node = File of string | Dir

type t = node Smap.t

type op =
  | Open of { path : string; create : bool }
  | Write of { path : string; off : int; data : string }
  | Read of { path : string; off : int }
  | Stat of string
  | Unlink of string
  | Mkdir of string
  | Rmdir of string
  | Rename of { src : string; dst : string }
  | Readdir of string

type value = Unit | Int of int | Data of string | Is_dir | Names of string list

let init dirs =
  List.fold_left (fun t d -> Smap.add d Dir t) (Smap.singleton "/" Dir) dirs

let bindings = Smap.bindings

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
  match Smap.find_opt (parent p) t with
  | Some Dir -> Errno.ENOENT
  | Some (File _) -> Errno.ENOTDIR
  | None -> missing t (parent p)

let find t p =
  match Smap.find_opt p t with Some n -> Ok n | None -> Error (missing t p)

let file t p =
  match find t p with
  | Ok (File c) -> Ok c
  | Ok Dir -> Error Errno.EISDIR
  | Error e -> Error e

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
    t []
  |> List.sort String.compare

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

let apply t op =
  match op with
  | Open { path; create } -> (
      match Smap.find_opt path t with
      | Some (File _) -> Ok (Unit, t)
      | Some Dir -> Error Errno.EISDIR
      | None when create ->
          let* () = creatable t path in
          Ok (Unit, Smap.add path (File "") t)
      | None -> Error (missing t path))
  | Write { path; off; data } ->
      let* old = file t path in
      let contents = splice old ~off data in
      Ok (Int (String.length data), Smap.add path (File contents) t)
  | Read { path; off } ->
      let* c = file t path in
      let len = String.length c in
      Ok (Data (if off >= len then "" else String.sub c off (len - off)), t)
  | Stat path -> (
      let* n = find t path in
      match n with
      | File c -> Ok (Int (String.length c), t)
      | Dir -> Ok (Is_dir, t))
  | Unlink path ->
      let* _ = file t path in
      Ok (Unit, Smap.remove path t)
  | Mkdir path ->
      if Smap.mem path t then Error Errno.EEXIST
      else
        let* () = creatable t path in
        Ok (Unit, Smap.add path Dir t)
  | Rmdir path -> (
      let* n = find t path in
      match n with
      | File _ -> Error Errno.ENOTDIR
      | Dir when path = "/" -> Error Errno.EBUSY
      | Dir when children t path <> [] -> Error Errno.ENOTEMPTY
      | Dir -> Ok (Unit, Smap.remove path t))
  | Rename { src; dst } -> (
      let* n = find t src in
      let* () = creatable t dst in
      match (n, Smap.find_opt dst t) with
      | _ when src = dst -> Ok (Unit, t)
      | _, Some Dir -> Error Errno.EISDIR
      | Dir, Some (File _) -> Error Errno.ENOTDIR
      | Dir, None when under src dst -> Error Errno.EINVAL
      | _ ->
          (* Move [src] and, for a directory, everything below it. *)
          let moved, rest =
            Smap.partition (fun p _ -> p = src || under src p) t
          in
          let cut = String.length src in
          Ok
            ( Unit,
              Smap.fold
                (fun p n acc ->
                  Smap.add
                    (dst ^ String.sub p cut (String.length p - cut))
                    n acc)
                moved rest ))
  | Readdir path -> (
      let* n = find t path in
      match n with
      | Dir -> Ok (Names (children t path), t)
      | File _ -> Error Errno.ENOTDIR)
