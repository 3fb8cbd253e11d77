(* The observer bus. See obs.mli for the event families and the
   subscriber contract. *)

type bucket = Compute | Send | Queue | Dispatch | Cache | Dram

type event =
  | Step of { time : int; seq : int; tag : int }
  | Msg_send of { mid : int; uid : int; core : int }
  | Msg_fault of { mid : int; copies : int }
  | Msg_enqueue of { mid : int; uid : int }
  | Msg_dequeue of { uid : int; core : int }
  | Reply_fill of { id : int; core : int }
  | Reply_read of { id : int; core : int }
  | Cache_access of
      { core : int; key : int; write : bool; filled : bool; coherent : bool }
  | Cache_writeback of { core : int; key : int }
  | Cache_evict of { core : int; key : int }
  | Cache_invalidate of { core : int; key : int; dirty : bool }
  | Span_open of {
      fid : int;
      op : string;
      track : int;
      parent : int;
      ts : int;
      args : unit -> (string * string) list;
      pending : (bucket * int) list;
    }
  | Span_close of { fid : int; ts : int; server : bool }
  | Pending of { fid : int; parts : (bucket * int) list }
  | Cpu of {
      fid : int;
      track : int;
      now : int;
      start : int;
      finish : int;
      cost : int;
      switch : int;
      switched : bool;
    }
  | Wait of { fid : int; cycles : int }
  | Blocked of { fid : int; id : int; waited : int }
  | Send_target of { fid : int; srv : int; depth : int }
  | Counter of { name : string; track : int; ts : int; value : int }
  | Instant of
      { name : string; track : int; ts : int; args : (string * string) list }
  | Lint_open of { core : int; keys : unit -> int list }
  | Lint_flush of { core : int; keys : unit -> int list; what : string }
  | Lint_exit of { core : int; fds : int; leases : int }
  | Dircache of {
      kind : [ `Sent | `Applied | `Hit ];
      client : int;
      server : int;
      ino : int;
      name : string;
    }
  | Dircache_flushed of { client : int }

type families = int

let steps = 1

let msgs = 2

let cache = 4

let spans = 8

let marks = 16

let lint = 32

type t = {
  mutable subs : (event -> unit) array;
  mutable wanted : families; (* union of the subscribers' families *)
  mutable diagnosers : (unit -> string option) list;
  mutable clock : unit -> int;
  mutable next_span : int;
  mutable next_msg : int;
}

let create () =
  {
    subs = [||];
    wanted = 0;
    diagnosers = [];
    clock = (fun () -> 0);
    next_span = 0;
    next_msg = 0;
  }

let[@inline] on t fams = t.wanted land fams <> 0

let emit t ev =
  let subs = t.subs in
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i) ev
  done

let subscribe ?diagnose t wants f =
  t.subs <- Array.append t.subs [| f |];
  t.wanted <- t.wanted lor wants;
  Option.iter (fun d -> t.diagnosers <- t.diagnosers @ [ d ]) diagnose

let diagnostics t = List.filter_map (fun d -> d ()) t.diagnosers

let set_clock t f = t.clock <- f

let now t = t.clock ()

let fresh_span t =
  t.next_span <- t.next_span + 1;
  t.next_span

let fresh_msg t =
  t.next_msg <- t.next_msg + 1;
  t.next_msg

let no_args () = []
