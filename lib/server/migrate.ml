open Hare_sim
module Wire = Hare_proto.Wire
module Errno = Hare_proto.Errno
module Rpc = Hare_msg.Rpc
module Place = Hare_place.Place
module Itbl = Tbl.Int

(* Shard-migration payload: one logical home's record, moved between
   physical servers by reference (host-side values; the block contents
   never leave DRAM). Defined as a [Wire.pack] extension because it
   mentions server-internal types. *)
type Wire.pack +=
  | Pack of {
      p_home : Home.t;
      p_blocks : int array; (* buffer-cache ownership to adopt *)
      p_dedup : (int * int * Wire.fs_resp) list; (* client, seq, resp *)
    }

type t = {
  homes : Home.homes;
  pcache : Hare_mem.Pcache.t;
  blocks : Blocklist.t;
  dedup : Home.reply Dedup.t;
}

let create ~homes ~pcache ~blocks ~dedup = { homes; pcache; blocks; dedup }

(* A home with parked continuations (rmdir marks and locks, blocked pipe
   I/O), or a server with requests parked behind a block steal, cannot
   be packed: the closures are bound to this server's endpoint and would
   answer from the wrong mailbox after the move. Parked work is also what
   keeps a [Pending] dedup entry alive, so a packable home has none. The
   coordinator backs off and retries. *)
let busy (h : Home.t) =
  Home.Dtbl.fold
    (fun _ (d : Home.dir) busy ->
      busy || Option.is_some d.mark || d.held || not (Queue.is_empty d.lock_waiters))
    h.dirs false
  || Itbl.fold
       (fun _ (i : Inode.t) busy ->
         busy || match i.pipe with Some p -> Pipe_state.parked p > 0 | None -> false)
       h.inodes false

(* Pack logical home [hid] and hand it to the coordinator. The route was
   flipped before this message was sent, and the mailbox is FIFO, so
   everything that arrives after it finds the home absent and is bounced
   with EMOVED. *)
let pack t ~home:hid ~stealing ~inval (reply : Home.reply) =
  match Home.lookup t.homes hid with
  | None -> reply (Error Errno.EINVAL)
  | Some h when busy h || stealing -> reply (Error Errno.EBUSY)
  | Some h ->
      (* Invalidation tracking does not transplant: fire every
         registered callback now (one-shot semantics — clients
         re-register at the new owner on their next lookup), so no
         client can sit on a cached entry this server would have been
         responsible for invalidating. *)
      let shards = ref 0 in
      Home.Dtbl.iter
        (fun dir (d : Home.dir) ->
          Tbl.Str.iter
            (fun name -> Home.iter_clients (inval ~dir ~name))
            d.clients;
          Tbl.Str.reset d.clients;
          if Home.has_shard d then incr shards)
        h.dirs;
      (* Buffer-cache ownership follows the inodes; the block bytes stay
         in DRAM. Flush our private cached lines so the new owner reads
         current data through its own cache. *)
      let p_blocks =
        Array.concat
          (Itbl.fold (fun _ (i : Inode.t) acc -> i.blocks :: i.orphans :: acc) h.inodes [])
      in
      Array.iter
        (fun b ->
          Hare_mem.Pcache.writeback_block t.pcache b;
          Hare_mem.Pcache.invalidate_block t.pcache b)
        p_blocks;
      Blocklist.export t.blocks p_blocks;
      Home.unhost t.homes hid;
      (* Completed idempotency entries travel with the shard: a client
         retrying a request the old owner already executed must replay
         the cached response at the new owner, not re-execute. *)
      let p_dedup = Dedup.export t.dedup in
      let items =
        Itbl.length h.inodes + Itbl.length h.tokens
        + !shards + List.length p_dedup
      in
      reply ~payload_lines:(items + 1)
        (Ok (Wire.P_pack (Pack { p_home = h; p_blocks; p_dedup })))

let install t ~home:_ ~pack (reply : Home.reply) =
  match pack with
  | Pack p ->
      Blocklist.adopt_allocated t.blocks p.p_blocks;
      Dedup.import t.dedup p.p_dedup;
      Home.host t.homes p.p_home;
      reply (Ok Wire.P_unit)
  | _ -> reply (Error Errno.EINVAL)

(* ---------- the coordinator --------------------------------------------- *)

(* Hand [home] from its current owner to [dst]. The ring route flips
   FIRST (requests admitted after the old owner packs the shard bounce
   with [EMOVED] and chase the new route), then a reliable Migrate_out /
   Install_shard pair moves the shard — the fault injector never touches
   coordinator traffic, so a handed-off shard cannot be lost. A busy
   shard refuses to pack; the route is restored while it drains and the
   move retried, bounded, before being abandoned. *)
let move p ~core ~(servers : (Wire.fs_req, Wire.fs_resp) Rpc.t array) ~home ~dst =
  let src = Place.phys p home in
  let rec attempt tries =
    Place.set_route p ~home ~dst;
    match Rpc.call servers.(src) ~from:core (Wire.Migrate_out { home }) with
    | Ok (Wire.P_pack pack) -> (
        match Rpc.call servers.(dst) ~from:core (Wire.Install_shard { home; pack }) with
        | Ok _ -> Place.note_migration p ~src ~dst
        | Error _ ->
            (* The destination refused an install it must accept; fail
               loudly rather than lose the shard. *)
            failwith "Migrate: shard install refused")
    | Ok _ ->
        (* A pack reply carries P_pack by construction. *)
        failwith "Migrate: malformed Migrate_out reply"
    | Error _ ->
        (* Busy (or mid-crash): point the route back at the still-hosting
           source while the shard drains, then retry or give up. *)
        Place.set_route p ~home ~dst:src;
        if tries = 0 then Place.note_abort p
        else begin
          Engine.sleep_cycles 2_000;
          attempt (tries - 1)
        end
  in
  if src <> dst then attempt 50

let ev_at = function Place.Add { at } | Place.Remove { at; _ } -> at

let start engine ~core ~servers p =
  if Place.events p <> [] then begin
    let move = move p ~core ~servers in
    let events =
      List.stable_sort (fun a b -> Int64.compare (ev_at a) (ev_at b)) (Place.events p)
    in
    let next_spare = ref (Place.nhomes p) in
    let body () =
      List.iter
        (fun ev ->
          let lag = Int64.sub (ev_at ev) (Engine.now engine) in
          if Int64.compare lag 0L > 0 then Engine.sleep lag;
          (match ev with
          | Place.Add _ ->
              let q = !next_spare in
              incr next_spare;
              Place.activate p q;
              List.iter (fun home -> move ~home ~dst:q) (Place.plan_add p q)
          | Place.Remove { sid; _ } ->
              Place.deactivate p sid;
              List.iter (fun (home, dst) -> move ~home ~dst) (Place.plan_remove p sid));
          Place.commit p)
        events
    in
    ignore (Engine.spawn engine ~daemon:true ~name:"rebalancer" body)
  end
