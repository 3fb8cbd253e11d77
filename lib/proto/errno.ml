type t =
  | ENOENT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EBADF
  | EINVAL
  | EPIPE
  | ENOSPC
  | ESPIPE
  | ECHILD
  | ESRCH
  | EMFILE
  | ENOSYS
  | ENOEXEC
  | EACCES
  | EBUSY
  | EIO
  | EMOVED

exception Error of t * string

let to_string = function
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | ENOTEMPTY -> "ENOTEMPTY"
  | EBADF -> "EBADF"
  | EINVAL -> "EINVAL"
  | EPIPE -> "EPIPE"
  | ENOSPC -> "ENOSPC"
  | ESPIPE -> "ESPIPE"
  | ECHILD -> "ECHILD"
  | ESRCH -> "ESRCH"
  | EMFILE -> "EMFILE"
  | ENOSYS -> "ENOSYS"
  | ENOEXEC -> "ENOEXEC"
  | EACCES -> "EACCES"
  | EBUSY -> "EBUSY"
  | EIO -> "EIO"
  | EMOVED -> "EMOVED"

let pp ppf t = Format.pp_print_string ppf (to_string t)

let raise_errno e ctx = raise (Error (e, ctx))

let () =
  Printexc.register_printer (function
    | Error (e, ctx) -> Some (Printf.sprintf "Errno.Error(%s, %s)" (to_string e) ctx)
    | _ -> None)
