open Hare_proto

type 'p t = {
  openf : 'p -> string -> Types.open_flags -> int;
  close : 'p -> int -> unit;
  read : 'p -> int -> len:int -> string;
  write : 'p -> int -> string -> int;
  lseek : 'p -> int -> pos:int -> Types.whence -> int;
  dup2 : 'p -> src:int -> dst:int -> int;
  pipe : 'p -> int * int;
  fsync : 'p -> int -> unit;
  ftruncate : 'p -> int -> size:int -> unit;
  unlink : 'p -> string -> unit;
  mkdir : 'p -> dist:bool -> string -> unit;
  rmdir : 'p -> string -> unit;
  rename : 'p -> string -> string -> unit;
  readdir : 'p -> string -> (string * Types.ftype) list;
  stat : 'p -> string -> Types.attr;
  exists : 'p -> string -> bool;
  chdir : 'p -> string -> unit;
  fork : 'p -> ('p -> int) -> Types.pid;
  spawn : 'p -> prog:string -> args:string list -> Types.pid;
  waitpid : 'p -> Types.pid -> int;
  wait : 'p -> Types.pid * int;
  kill : 'p -> Types.pid -> int -> unit;
  register_program : string -> ('p -> string list -> int) -> unit;
  compute : 'p -> int -> unit;
  random : 'p -> int -> int;
  print : 'p -> string -> unit;
  core_of : 'p -> int;
  now_cycles : 'p -> int64;
  sleep_until : 'p -> int64 -> unit;
}

let write_all api p fd data =
  let len = String.length data in
  let rec go off =
    if off < len then begin
      let n = api.write p fd (String.sub data off (len - off)) in
      if n <= 0 then Errno.raise_errno Errno.EPIPE "write_all";
      go (off + n)
    end
  in
  go 0

let read_to_eof api p fd =
  let buf = Buffer.create 4096 in
  let rec go () =
    let chunk = api.read p fd ~len:65536 in
    if chunk <> "" then begin
      Buffer.add_string buf chunk;
      go ()
    end
  in
  go ();
  Buffer.contents buf
