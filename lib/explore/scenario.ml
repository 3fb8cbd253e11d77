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
  next_h : (int, int) Hashtbl.t; (* client -> next open handle *)
  fds : (int * int, int) Hashtbl.t; (* (client, handle) -> fd *)
}

(* The one recorder: issue [op]'s call as [client], then record the op
   with the observed result (or the errno it raised) and both stamps.
   Handles are client-local open ordinals, assigned here and mirrored
   by the oracle's model; [flags] applies to an open without create. *)
let call ctx client p ?(flags = Types.flags_r) op =
  let t0 = Machine.now ctx.m in
  let fd h = Hashtbl.find ctx.fds (client, h) in
  let result =
    try
      match op with
      | Oracle.Open { path; create } ->
          let fd =
            if create then Posix.creat p path else Posix.openf p path flags
          in
          let h =
            Option.value (Hashtbl.find_opt ctx.next_h client) ~default:0
          in
          Hashtbl.replace ctx.next_h client (h + 1);
          Hashtbl.replace ctx.fds (client, h) fd;
          Oracle.Ok_handle h
      | Close { h } ->
          Posix.close p (fd h);
          Ok_unit
      | Write { h; data } -> Ok_int (Posix.write p (fd h) data)
      | Read { h } -> Ok_data (Posix.read_all p (fd h))
      | Stat { path } ->
          ignore (Posix.stat p path : Types.attr);
          Ok_unit
      | Unlink { path } ->
          Posix.unlink p path;
          Ok_unit
      | Mkdir { path } ->
          Posix.mkdir p path;
          Ok_unit
    with Errno.Error (e, _) -> Oracle.Err e
  in
  ctx.hist :=
    {
      Oracle.e_client = client;
      e_op = op;
      e_result = result;
      e_inv = t0;
      e_res = Machine.now ctx.m;
    }
    :: !(ctx.hist);
  result

(* One open-use-close session on [path]: [`Create d] creates the file
   and writes [d] (nothing when empty), [`Rewrite d] writes [d] over it
   in place, [`Read] reads it to the end. *)
let session ctx client p path use =
  let create, flags =
    match use with
    | `Create _ -> (true, Types.flags_r)
    | `Rewrite _ -> (false, Types.flags_rw)
    | `Read -> (false, Types.flags_r)
  in
  match call ctx client p ~flags (Oracle.Open { path; create }) with
  | Oracle.Ok_handle h ->
      (match use with
      | `Create "" -> ()
      | `Create data | `Rewrite data ->
          ignore (call ctx client p (Oracle.Write { h; data }))
      | `Read -> ignore (call ctx client p (Oracle.Read { h })));
      ignore (call ctx client p (Oracle.Close { h }))
  | _ -> ()

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
    let ctx =
      { m; hist = ref []; next_h = Hashtbl.create 4; fds = Hashtbl.create 4 }
    in
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
       ENOENT. The drop_inval mutation leaves the stale entry, so the
       stat succeeds against a dead file. *)
    scenario "dirrace" "stat after a remote unlink must see ENOENT"
      ~programs:
        [
          ( "b-unlinker",
            fun ctx p ->
              ignore (call ctx 1 p (Oracle.Unlink { path = "/d/f" })) );
        ]
      (fun ctx p ->
        let stat () = ignore (call ctx 0 p (Oracle.Stat { path = "/d/f" })) in
        ignore (call ctx 0 p (Oracle.Mkdir { path = "/d" }));
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

let mutations = [ "skip_open_inval"; "skip_writeback"; "drop_inval" ]

let mutation_ref = function
  | "skip_open_inval" -> Hare_client.Client.mutate_skip_open_inval
  | "skip_writeback" -> Hare_client.Client.mutate_skip_writeback
  | "drop_inval" -> Hare_client.Dircache.mutate_drop_inval
  | m -> invalid_arg ("Scenario.with_mutation: unknown mutation " ^ m)

let with_mutation mut f =
  match mut with
  | None -> f ()
  | Some name ->
      let r = mutation_ref name in
      r := true;
      Fun.protect ~finally:(fun () -> r := false) f
