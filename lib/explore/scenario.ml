(* Exploration micro-scenarios: tiny checked machines whose programs
   record every POSIX call for the linearizability oracle. See
   scenario.mli. *)

module Config = Hare_config.Config
module Machine = Hare.Machine
module Posix = Hare.Posix
module Errno = Hare_proto.Errno
module Types = Hare_proto.Types

type built = {
  b_machine : Machine.t;
  b_init : Hare_proc.Process.t;
  b_history : unit -> Oracle.event list;
}

type t = {
  sc_name : string;
  sc_doc : string;
  sc_build : unit -> built;
}

(* Two app cores against one dedicated file server; checking on. Small
   caches keep the event count (and so the schedule tree) small. All
   cores share one socket so the two app cores see identical message
   latencies to the server — the symmetry that lets causally-independent
   requests land on the same cycle and become explorable ties. *)
let config () =
  {
    Config.default with
    Config.ncores = 3;
    placement = Config.Split 1;
    seed = 42L;
    check_enabled = true;
    buffer_cache_blocks = 512;
    cores_per_socket = 4;
  }

(* --- POSIX-call recorder -------------------------------------------- *)

type ctx = {
  m : Machine.t;
  hist : Oracle.event list ref;
  fds : (int * int, int) Hashtbl.t; (* (client, handle) -> fd *)
}

(* The one recorder: issue [op]'s call as [client], then record the op
   with the observed result (or the errno it raised) and both stamps. An
   open without create is read-write. *)
let call ctx client p op =
  let e_inv = Machine.now ctx.m in
  let fd h = Hashtbl.find ctx.fds (client, h) in
  let e_result =
    try
      Ok
        (match op with
        | Model.Open { h; path; create } ->
            let fd =
              if create then Posix.creat p path
              else Posix.openf p path Types.flags_rw
            in
            Hashtbl.replace ctx.fds (client, h) fd;
            Model.Fd h
        | Close h ->
            Posix.close p (fd h);
            Unit
        | Write { h; data } -> Int (Posix.write p (fd h) data)
        | Read h -> Data (Posix.read_all p (fd h))
        | Stat path ->
            let a = Posix.stat p path in
            if a.Types.a_ftype = Types.Dir then Is_dir else Int a.Types.a_size
        | Unlink path ->
            Posix.unlink p path;
            Unit
        | Mkdir path ->
            Posix.mkdir p path;
            Unit
        | Seek _ | Rmdir _ | Rename _ | Readdir _ ->
            invalid_arg ("Scenario.call: " ^ Model.op_to_string op))
    with Errno.Error (e, _) -> Error e
  in
  ctx.hist :=
    {
      Oracle.e_client = client;
      e_op = op;
      e_result;
      e_inv;
      e_res = Machine.now ctx.m;
    }
    :: !(ctx.hist);
  e_result

(* One open-use-close session on [path]: [`Create d] creates the file
   and writes [d] (nothing when empty), [`Rewrite d] writes [d] over it
   in place, [`Read] reads it to the end. Its handle is the client's
   next open ordinal. *)
let session ctx client p path use =
  let create = match use with `Create _ -> true | `Rewrite _ | `Read -> false in
  let h =
    Hashtbl.fold (fun (c, _) _ n -> if c = client then n + 1 else n) ctx.fds 0
  in
  match call ctx client p (Model.Open { h; path; create }) with
  | Ok _ ->
      (match use with
      | `Create "" -> ()
      | `Create data | `Rewrite data ->
          ignore (call ctx client p (Model.Write { h; data }))
      | `Read -> ignore (call ctx client p (Model.Read h)));
      ignore (call ctx client p (Model.Close h))
  | Error _ -> ()

(* Init sits on the first app core and its first round-robin spawn
   lands there too; burn that slot so the next spawn gets a different
   core (and so a different client cache) — same trick as the sanitizer
   mutation tests. *)
let spawn_remote p ~prog =
  let pid = Posix.spawn p ~prog:"nop" ~args:[] in
  ignore (Posix.waitpid p pid);
  Posix.spawn p ~prog ~args:[]

(* A scenario whose [programs] (each exiting 0) are registered on a
   fresh machine and whose [main] runs as init; both record through the
   machine's one recorder context. *)
let scenario name doc ?(programs = []) main =
  let build () =
    let m = Machine.boot (config ()) in
    Machine.register_program m "nop" (fun _ _ -> 0);
    let ctx = { m; hist = ref []; fds = Hashtbl.create 4 } in
    List.iter
      (fun (prog, body) ->
        Machine.register_program m prog (fun p _ ->
            body ctx p;
            0))
      programs;
    let init, _ =
      Machine.spawn_init m ~name:("explore-" ^ name) (fun p _ -> main ctx p)
    in
    { b_machine = m; b_init = init; b_history = (fun () -> !(ctx.hist)) }
  in
  { sc_name = name; sc_doc = doc; sc_build = build }

let all =
  [
    (* Close-to-open handoff: A creates, writes and closes a file; B (a
       different core) then opens and reads it. Every schedule must hand
       B the written bytes — the skip_writeback mutation breaks exactly
       this. *)
    scenario "handoff" "create/write/close on one core, open/read on another"
      ~programs:[ ("b-reader", fun ctx p -> session ctx 1 p "/h.dat" `Read) ]
      (fun ctx p ->
        session ctx 0 p "/h.dat" (`Create (String.make 64 'a'));
        Posix.waitpid p (spawn_remote p ~prog:"b-reader"));
    (* Reopen after a remote rewrite: A writes v1 and closes; B rewrites
       in place and closes; A (after waiting on B) reopens and rereads —
       it must see v2. The skip_open_inval mutation leaves A's stale
       lines resident, so the reread hands back v1. *)
    scenario "reopen" "reopen after a remote in-place rewrite must see v2"
      ~programs:
        [
          ( "b-rewriter",
            fun ctx p ->
              session ctx 1 p "/r.dat" (`Rewrite (String.make 64 'b')) );
        ]
      (fun ctx p ->
        session ctx 0 p "/r.dat" (`Create (String.make 64 'a'));
        if Posix.waitpid p (spawn_remote p ~prog:"b-rewriter") <> 0 then 1
        else begin
          session ctx 0 p "/r.dat" `Read;
          0
        end);
    (* Directory-entry invalidation: A caches a dircache entry for /d/f;
       B unlinks it; A (after waiting on B) stats again and must see
       ENOENT. The drop_inval mutation leaves the stale entry, which the
       sanitizer flags, but the stat still sees ENOENT: the entry routes
       it to the inode's server, which freed the inode at the unlink. *)
    scenario "dirrace" "stat after a remote unlink must see ENOENT"
      ~programs:
        [
          ( "b-unlinker",
            fun ctx p ->
              ignore (call ctx 1 p (Model.Unlink "/d/f")) );
        ]
      (fun ctx p ->
        let stat () = ignore (call ctx 0 p (Model.Stat "/d/f")) in
        ignore (call ctx 0 p (Model.Mkdir "/d"));
        session ctx 0 p "/d/f" (`Create "");
        (* Populate this client's dircache (and the server's tracking). *)
        stat ();
        if Posix.waitpid p (spawn_remote p ~prog:"b-unlinker") <> 0 then 1
        else begin
          stat ();
          0
        end);
    (* Two concurrent readers (no waitpid between them and the setup's
       close): a genuinely racy schedule tree whose every interleaving
       is nonetheless correct — the exhaustive-enumeration smoke
       scenario. *)
    scenario "readers" "two concurrent readers of a closed file (always clean)"
      ~programs:[ ("b-reader", fun ctx p -> session ctx 1 p "/c.dat" `Read) ]
      (fun ctx p ->
        session ctx 0 p "/c.dat" (`Create (String.make 32 'c'));
        let pid = spawn_remote p ~prog:"b-reader" in
        session ctx 0 p "/c.dat" `Read;
        Posix.waitpid p pid);
    (* Symmetric collision: two children on different cores pace
       themselves to a common barrier cycle, then each creates and
       writes its own file through the shared server. Their requests
       leave on the same cycle and race into the server's mailbox —
       genuine same-cycle ties between conflicting deliveries, so the
       DPOR tree actually branches. Every interleaving is clean
       (disjoint paths). *)
    (let writer path client ctx p =
       Posix.sleep_until p 400_000L;
       session ctx client p path (`Create (String.make 16 'x'))
     in
     scenario "collide"
       "two cores race disjoint creates into one server (clean)"
       ~programs:[ ("w-one", writer "/one" 1); ("w-two", writer "/two" 2) ]
       (fun _ p ->
         let a = Posix.spawn p ~prog:"w-one" ~args:[] in
         let b = Posix.spawn p ~prog:"w-two" ~args:[] in
         let ra = Posix.waitpid p a in
         let rb = Posix.waitpid p b in
         ra + rb));
  ]

let find name = List.find (fun sc -> sc.sc_name = name) all

(* --- mutations ------------------------------------------------------ *)

let mutations =
  [
    ("skip_open_inval", Hare_client.Client.mutate_skip_open_inval);
    ("skip_writeback", Hare_client.Client.mutate_skip_writeback);
    ("drop_inval", Hare_client.Dircache.mutate_drop_inval);
  ]

let with_mutation mut f =
  match mut with
  | None -> f ()
  | Some name -> (
      match List.assoc_opt name mutations with
      | None -> invalid_arg ("unknown mutation " ^ name)
      | Some r ->
          r := true;
          Fun.protect ~finally:(fun () -> r := false) f)
