(* Tests for the non-coherent memory system: the crux is that staleness is
   real — data written by one core is invisible to another until written
   back, and a core can read a stale private copy after DRAM changed. *)

open Hare_sim
open Hare_mem

let costs = Hare_config.Costs.default

let with_engine f =
  let e = Engine.create () in
  let failure = ref None in
  ignore
    (Engine.spawn e ~name:"test" (fun () ->
         try f e with exn -> failure := Some exn));
  Engine.run e;
  match !failure with Some exn -> raise exn | None -> ()

let mk_core e id = Core_res.create e ~id ~socket:(id / 2) ~ctx_switch:0

let mk_pcache ?(capacity = 1024) e id dram =
  Pcache.create dram ~core:(mk_core e id) ~costs ~capacity_lines:capacity

let test_dram_roundtrip () =
  let d = Dram.create ~nblocks:4 in
  let src = Bytes.make Layout.line_size 'x' in
  Dram.write_line d ~block:2 ~line:3 ~src ~src_off:0;
  let dst = Bytes.make Layout.line_size ' ' in
  Dram.read_line d ~block:2 ~line:3 ~dst ~dst_off:0;
  Alcotest.(check string) "roundtrip" (Bytes.to_string src) (Bytes.to_string dst);
  Alcotest.(check string)
    "unsafe view" "xxxx"
    (Dram.unsafe_read d ~block:2 ~off:(3 * 64) ~len:4)

let test_dram_zero () =
  let d = Dram.create ~nblocks:2 in
  let src = Bytes.make Layout.line_size 'q' in
  Dram.write_line d ~block:1 ~line:0 ~src ~src_off:0;
  Dram.zero_block d ~block:1;
  Alcotest.(check string) "zeroed" (String.make 4 '\000')
    (Dram.unsafe_read d ~block:1 ~off:0 ~len:4)

let test_dram_bounds () =
  let d = Dram.create ~nblocks:2 in
  let b = Bytes.create Layout.line_size in
  Alcotest.check_raises "bad block" (Invalid_argument "Dram: block 5 out of range")
    (fun () -> Dram.read_line d ~block:5 ~line:0 ~dst:b ~dst_off:0)

let test_pcache_roundtrip () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let p = mk_pcache e 0 d in
      Pcache.write_string p ~block:1 ~off:100 "hello world";
      let s = Pcache.read_string p ~block:1 ~off:100 ~len:11 in
      Alcotest.(check string) "read own write" "hello world" s)

let test_pcache_dirty_not_in_dram () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let p = mk_pcache e 0 d in
      Pcache.write_string p ~block:0 ~off:0 "secret";
      (* Non-coherence: DRAM still has zeroes until write-back. *)
      Alcotest.(check string) "dram stale" (String.make 6 '\000')
        (Dram.unsafe_read d ~block:0 ~off:0 ~len:6);
      Pcache.writeback_block p 0;
      Alcotest.(check string) "dram fresh" "secret"
        (Dram.unsafe_read d ~block:0 ~off:0 ~len:6))

let test_pcache_stale_read_other_core () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let writer = mk_pcache e 0 d in
      let reader = mk_pcache e 1 d in
      (* Reader caches the (zero) line first. *)
      let (_ : string) = Pcache.read_string reader ~block:0 ~off:0 ~len:4 in
      Pcache.write_string writer ~block:0 ~off:0 "new!";
      Pcache.writeback_block writer 0;
      (* Without invalidation the reader sees its stale copy... *)
      Alcotest.(check string) "stale" (String.make 4 '\000')
        (Pcache.read_string reader ~block:0 ~off:0 ~len:4);
      (* ...and with invalidation (Hare's open-time action) the fresh one. *)
      Pcache.invalidate_block reader 0;
      Alcotest.(check string) "fresh after invalidate" "new!"
        (Pcache.read_string reader ~block:0 ~off:0 ~len:4))

let test_pcache_invalidate_discards_dirty () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:2 in
      let p = mk_pcache e 0 d in
      Pcache.write_string p ~block:0 ~off:0 "gone";
      Pcache.invalidate_block p 0;
      Alcotest.(check string) "dirty data lost" (String.make 4 '\000')
        (Pcache.read_string p ~block:0 ~off:0 ~len:4))

let test_pcache_eviction_writes_back () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:64 in
      (* Tiny cache: 4 lines. *)
      let p = mk_pcache ~capacity:4 e 0 d in
      Pcache.write_string p ~block:0 ~off:0 "evictme";
      (* Touch enough other lines to force the dirty line out. *)
      for b = 1 to 8 do
        ignore (Pcache.read_string p ~block:b ~off:0 ~len:1)
      done;
      Alcotest.(check string) "dirty eviction reached dram" "evictme"
        (Dram.unsafe_read d ~block:0 ~off:0 ~len:7);
      let st = Pcache.stats p in
      Alcotest.(check bool) "evictions happened" true (st.Pcache.evictions > 0);
      Alcotest.(check bool) "capacity respected" true
        (Pcache.resident_lines p <= 4))

let test_pcache_costs_hit_vs_miss () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let core = mk_core e 0 in
      let p = Pcache.create d ~core ~costs ~capacity_lines:64 in
      let t0 = Engine.now e in
      ignore (Pcache.read_string p ~block:0 ~off:0 ~len:64);
      let miss_cost = Int64.sub (Engine.now e) t0 in
      let t1 = Engine.now e in
      ignore (Pcache.read_string p ~block:0 ~off:0 ~len:64);
      let hit_cost = Int64.sub (Engine.now e) t1 in
      Alcotest.(check bool) "miss slower than hit" true (miss_cost > hit_cost);
      Alcotest.(check int64) "hit cost"
        (Int64.of_int costs.cache_hit_line)
        hit_cost)

let test_pcache_numa_cost () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let core = mk_core e 0 in
      (* core 0 is socket 0; blocks 0-1 local, 2-3 remote. *)
      let p =
        Pcache.create d ~core ~costs ~capacity_lines:64
          ~block_socket:(fun b -> if b < 2 then 0 else 1)
      in
      let t0 = Engine.now e in
      ignore (Pcache.read_string p ~block:0 ~off:0 ~len:1);
      let local = Int64.sub (Engine.now e) t0 in
      let t1 = Engine.now e in
      ignore (Pcache.read_string p ~block:2 ~off:0 ~len:1);
      let remote = Int64.sub (Engine.now e) t1 in
      Alcotest.(check int64) "remote penalty"
        (Int64.add local (Int64.of_int costs.dram_cross_socket_line))
        remote)

let test_pcache_coherent_sees_remote_writes () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:2 in
      let a = mk_pcache e 0 d in
      let b = mk_pcache e 1 d in
      (* Both cores cache the line; coherent ops stay consistent without
         explicit invalidation (the ramfs baseline's model). *)
      let buf = Bytes.create 4 in
      Pcache.read_coherent b ~block:0 ~off:0 ~len:4 ~dst:buf ~dst_off:0;
      Pcache.write_coherent a ~block:0 ~off:0 ~len:4
        ~src:(Bytes.of_string "ping") ~src_off:0;
      Pcache.read_coherent b ~block:0 ~off:0 ~len:4 ~dst:buf ~dst_off:0;
      Alcotest.(check string) "coherent read" "ping" (Bytes.to_string buf))

(* Two cores write different bytes of one line coherently: the second
   write merges into DRAM's line, not into its core's older copy, so
   neither write is lost. *)
let test_pcache_coherent_partial_writes_merge () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:2 in
      let a = mk_pcache e 0 d and b = mk_pcache e 1 d in
      let buf = Bytes.create 8 in
      Pcache.read_coherent a ~block:0 ~off:0 ~len:8 ~dst:buf ~dst_off:0;
      Pcache.write_coherent b ~block:0 ~off:0 ~len:4
        ~src:(Bytes.of_string "bbbb") ~src_off:0;
      Pcache.write_coherent a ~block:0 ~off:4 ~len:4
        ~src:(Bytes.of_string "aaaa") ~src_off:0;
      Alcotest.(check string) "both writes in DRAM" "bbbbaaaa"
        (Dram.unsafe_read d ~block:0 ~off:0 ~len:8))

(* A slot number and a line key must fit a 4-byte cell: [create]
   refuses a capacity or a DRAM whose values would not. *)
let test_pcache_cells_fit () =
  with_engine (fun e ->
      let refused name f =
        match f () with
        | (_ : Pcache.t) -> Alcotest.failf "%s: accepted" name
        | exception Invalid_argument _ -> ()
      in
      let small = Dram.create ~nblocks:4 in
      refused "capacity" (fun () -> mk_pcache ~capacity:(1 lsl 31) e 0 small);
      let max_blocks = 0x7fff_ffff / Layout.lines_per_block in
      refused "DRAM" (fun () ->
          mk_pcache e 0 (Dram.create ~nblocks:(max_blocks + 1)));
      let p = mk_pcache e 0 (Dram.create ~nblocks:max_blocks) in
      Pcache.write_string p ~block:(max_blocks - 1) ~off:4032 "last";
      Alcotest.(check string) "last line of the largest DRAM" "last"
        (Pcache.read_string p ~block:(max_blocks - 1) ~off:4032 ~len:4))

let test_pcache_cross_line_ranges () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:2 in
      let p = mk_pcache e 0 d in
      let data = String.init 300 (fun i -> Char.chr (i mod 256)) in
      Pcache.write_string p ~block:0 ~off:50 data;
      let back = Pcache.read_string p ~block:0 ~off:50 ~len:300 in
      Alcotest.(check string) "spans lines" data back)

(* ---------- differential test against a line-keyed reference ------------ *)

(* The reference keeps what the private cache used to be: one record per
   cached line in an MRU-first list, looked up by line key, each with a
   copy of the line's bytes. It computes the cycles each call should
   charge from the same cost table, and emits on its own bus the cache
   events the order contract of pcache.mli prescribes; its DRAM
   publishes its counters there too. Its core is [core], on socket
   [core / 2] as [mk_core] places it. *)
module Ref = struct
  type line = { key : int; data : Bytes.t; mutable dirty : bool }

  type t = {
    dram : Dram.t;
    obs : Obs.t;
    core : int;
    capacity : int;
    socket_of : int -> int;
    mutable lru : line list; (* MRU first *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable writebacks : int;
    mutable invalidated : int;
  }

  let create ?(core = 0) dram ~obs ~capacity ~socket_of =
    { dram; obs; core; capacity; socket_of; lru = []; hits = 0; misses = 0;
      evictions = 0; writebacks = 0; invalidated = 0 }

  let lpb = Layout.lines_per_block

  let dram_cost t block =
    if t.socket_of block <> t.core / 2 then
      costs.dram_line + costs.dram_cross_socket_line
    else costs.dram_line

  let flush t l =
    if l.dirty then begin
      Dram.write_line t.dram ~block:(l.key / lpb) ~line:(l.key mod lpb)
        ~src:l.data ~src_off:0;
      l.dirty <- false;
      t.writebacks <- t.writebacks + 1;
      Obs.emit t.obs (Cache_writeback { core = t.core; key = l.key });
      dram_cost t (l.key / lpb)
    end
    else 0

  (* The line and the cycles of bringing it in: (line, hit, cycles). *)
  let ensure t ~block ~line =
    let key = (block * lpb) + line in
    match List.find_opt (fun l -> l.key = key) t.lru with
    | Some l ->
        t.lru <- l :: List.filter (fun m -> m != l) t.lru;
        t.hits <- t.hits + 1;
        (l, true, costs.cache_hit_line)
    | None ->
        t.misses <- t.misses + 1;
        let evict =
          if List.length t.lru >= t.capacity then begin
            let victim = List.nth t.lru (List.length t.lru - 1) in
            let c = flush t victim in
            t.lru <- List.filter (fun m -> m != victim) t.lru;
            t.evictions <- t.evictions + 1;
            Obs.emit t.obs (Cache_evict { core = t.core; key = victim.key });
            c
          end
          else 0
        in
        let l = { key; data = Bytes.create Layout.line_size; dirty = false } in
        Dram.read_line t.dram ~block ~line ~dst:l.data ~dst_off:0;
        t.lru <- l :: t.lru;
        (l, false, costs.cache_hit_line + evict + dram_cost t block)

  let access t ~block ~off ~len ~write ~coherent buf =
    let first, last = Layout.lines_touched ~off ~len in
    let cycles = ref 0 in
    for line = first to last do
      let l, hit, c = ensure t ~block ~line in
      cycles := !cycles + c;
      if coherent && hit then cycles := !cycles + (costs.dram_line / 8);
      Obs.emit t.obs
        (Cache_access
           { core = t.core; key = l.key; write; filled = not hit; coherent });
      let start = line * Layout.line_size in
      let from = max off start in
      let n = min (off + len) (start + Layout.line_size) - from in
      if write then begin
        (* A coherent write to a clean line merges into DRAM's current
           bytes, within the snoop: no DRAM read is counted. *)
        if coherent && not l.dirty then
          Bytes.blit_string
            (Dram.unsafe_read t.dram ~block ~off:start ~len:Layout.line_size)
            0 l.data 0 Layout.line_size;
        Bytes.blit buf (from - off) l.data (from - start) n;
        if coherent then Dram.write_line t.dram ~block ~line ~src:l.data ~src_off:0;
        l.dirty <- not coherent
      end
      else begin
        if coherent && not l.dirty then
          Dram.read_line t.dram ~block ~line ~dst:l.data ~dst_off:0;
        Bytes.blit l.data (from - start) buf (from - off) n
      end
    done;
    !cycles

  (* The block's cached lines, highest index first. *)
  let of_block t block =
    List.filter (fun l -> l.key / lpb = block) t.lru
    |> List.sort (fun a b -> compare b.key a.key)

  let drop_block t block ~writeback =
    let lines = of_block t block in
    let flushed =
      List.fold_left
        (fun acc l ->
          let c = if writeback then flush t l else 0 in
          Obs.emit t.obs
            (Cache_invalidate { core = t.core; key = l.key; dirty = l.dirty });
          acc + c)
        0 lines
    in
    t.lru <- List.filter (fun l -> l.key / lpb <> block) t.lru;
    t.invalidated <- t.invalidated + List.length lines;
    (List.length lines * costs.invalidate_line) + flushed

  let writeback_block t block =
    List.fold_left (fun acc l -> acc + flush t l) 0 (of_block t block)

  let stats t =
    { Pcache.hits = t.hits; misses = t.misses; evictions = t.evictions;
      writebacks = t.writebacks; invalidated = t.invalidated }
end

type pc_op =
  | Access of { block : int; off : int; len : int; write : bool;
                coherent : bool; fill : char }
  | Invalidate of int
  | Evict of int
  | Writeback of int

let pp_pc_op = function
  | Access { block; off; len; write; coherent; fill } ->
      Printf.sprintf "%s%s b%d [%d,+%d) %C"
        (if write then "write" else "read")
        (if coherent then "_coherent" else "") block off len fill
  | Invalidate b -> Printf.sprintf "invalidate_block %d" b
  | Evict b -> Printf.sprintf "evict_block %d" b
  | Writeback b -> Printf.sprintf "writeback_block %d" b

(* Ops on the blocks [block] draws; [small] weighs small ranges against
   each of the three other shapes. *)
let pc_op_gen ?(small = 1) block =
  let open QCheck.Gen in
  (* Small ranges, whole blocks (64 lines: evictions inside one access),
     whole lines (a write that replaces each line it touches) and
     anything in between. *)
  let range =
    frequency
      [
        ( small,
          map2 (fun off len -> (off, min len (Layout.block_size - off)))
            (int_bound (Layout.block_size - 1)) (int_range 1 200) );
        (1, return (0, Layout.block_size));
        ( 1,
          int_bound (Layout.lines_per_block - 1) >>= fun line ->
          map
            (fun n -> (line * Layout.line_size, n * Layout.line_size))
            (int_range 1 (Layout.lines_per_block - line)) );
        ( 1,
          int_bound (Layout.block_size - 1) >>= fun off ->
          map (fun len -> (off, len)) (int_range 1 (Layout.block_size - off)) );
      ]
  in
  let access =
    map3
      (fun block (off, len) (write, coherent, fill) ->
        Access { block; off; len; write; coherent; fill })
      block range
      (triple bool (frequencyl [ (4, false); (1, true) ]) (char_range 'a' 'z'))
  in
  frequency
    [
      (6, access);
      (1, map (fun b -> Invalidate b) block);
      (1, map (fun b -> Evict b) block);
      (1, map (fun b -> Writeback b) block);
    ]

(* A case: the capacity, the DRAM's [nblocks], the blocks the ops use
   and the ops. *)
let print_pc_case (capacity, nblocks, blocks, ops) =
  Printf.sprintf "capacity %d, %d blocks, ops on [%s]:\n  %s" capacity nblocks
    (String.concat ";" (List.map string_of_int blocks))
    (String.concat "\n  " (List.map pp_pc_op ops))

let pc_case =
  let open QCheck.Gen in
  let gen =
    oneofl [ 1; 3; 63; 64; 65; 200 ] >>= fun capacity ->
    int_range 2 6 >>= fun nblocks ->
    map
      (fun ops -> (capacity, nblocks, List.init nblocks Fun.id, ops))
      (list_size (int_range 1 80) (pc_op_gen (int_bound (nblocks - 1))))
  in
  QCheck.make gen ~print:print_pc_case

(* Up to about 100 blocks scattered over a large DRAM, mostly touched a
   line or two at a time, so that many are cached at once: the block
   directory grows, its probe runs collide and wrap, and evictions and
   invalidations delete from the middle of them. *)
let pc_many_case =
  let open QCheck.Gen in
  let nblocks = 1 lsl 16 in
  let gen =
    frequencyl [ (1, 1); (1, 3); (1, 24); (1, 65); (3, 200) ] >>= fun capacity ->
    list_size (int_range 2 100) (int_bound (nblocks - 1)) >>= fun drawn ->
    let blocks = List.sort_uniq Int.compare drawn in
    map
      (fun ops -> (capacity, nblocks, blocks, ops))
      (list_size (int_range 1 250) (pc_op_gen ~small:30 (oneofl blocks)))
  in
  QCheck.make gen ~print:print_pc_case

(* Odd blocks live on the other socket, so the NUMA surcharge is part of
   every comparison. *)
let socket_of b = b land 1

(* The cache events and DRAM traffic counters of a bus, in emission
   order, as text; the counters' timestamps are left out (the
   reference's bus has no clock). *)
let record_mem_events obs =
  let log = ref [] in
  Obs.subscribe obs Obs.(cache lor marks) (fun ev ->
      let line =
        match (ev : Obs.event) with
        | Cache_access { core; key; write; filled; coherent } ->
            Some (Printf.sprintf "access %d %d w=%b filled=%b coherent=%b" core
                    key write filled coherent)
        | Cache_writeback { core; key } -> Some (Printf.sprintf "writeback %d %d" core key)
        | Cache_evict { core; key } -> Some (Printf.sprintf "evict %d %d" core key)
        | Cache_invalidate { core; key; dirty } ->
            Some (Printf.sprintf "invalidate %d %d dirty=%b" core key dirty)
        | Counter { name = ("dram-reads" | "dram-writes") as name; track; value; _ } ->
            Some (Printf.sprintf "%s@%d %d" name track value)
        | _ -> None
      in
      Option.iter (fun l -> log := l :: !log) line);
  fun () ->
    let events = List.rev !log in
    log := [];
    events

(* Whether [block] reads the same in both DRAMs. Their pages can differ
   in length (the reference writes line by line, the cache a victim's
   page as a whole block), so the shorter one's missing tail must be
   zeroes. Comparing pages, not [Dram.unsafe_read] images of whole
   blocks, makes the cache tests run about twice as fast. *)
let same_block d rd block =
  let a = Dram.read_page d ~block and b = Dram.read_page rd ~block in
  let a, b = if Bytes.length a <= Bytes.length b then (a, b) else (b, a) in
  let n = Bytes.length a and m = Bytes.length b in
  Bytes.equal a (Bytes.sub b 0 n)
  && Bytes.equal (Bytes.sub b n (m - n)) (Bytes.make (m - n) '\000')

(* One call of [op] on the cache [p] and on its reference [r]: the
   cycles the reference charges and the bytes each returned. *)
let pc_step p r op =
  match op with
  | Access { block; off; len; write; coherent; fill } ->
      let buf = Bytes.make len fill and rbuf = Bytes.make len fill in
      (match (write, coherent) with
      | false, false -> Pcache.read p ~block ~off ~len ~dst:buf ~dst_off:0
      | true, false -> Pcache.write p ~block ~off ~len ~src:buf ~src_off:0
      | false, true -> Pcache.read_coherent p ~block ~off ~len ~dst:buf ~dst_off:0
      | true, true -> Pcache.write_coherent p ~block ~off ~len ~src:buf ~src_off:0);
      let c = Ref.access r ~block ~off ~len ~write ~coherent rbuf in
      (c, Bytes.to_string buf, Bytes.to_string rbuf)
  | Invalidate b ->
      Pcache.invalidate_block p b;
      (Ref.drop_block r b ~writeback:false, "", "")
  | Evict b ->
      Pcache.evict_block p b ~dropped:ignore;
      (Ref.drop_block r b ~writeback:true, "", "")
  | Writeback b ->
      Pcache.writeback_block p b;
      (Ref.writeback_block r b, "", "")

(* A run of [ops] against the reference: [setup e d rd robs] builds the
   caches and their references over the DRAM [d] (on the engine's bus)
   and the reference's [rd] (on [robs]), and [step] runs an op, giving
   [pc_step]'s triple. After each op: the cycles, the bytes, every
   cache's stats and resident lines, the bus events and the [blocks] of
   DRAM must agree. [observed]: whether the cache's bus has a
   subscriber. Without one the caches take the path [perfbench] and most
   runs take, and only the bus events go uncompared. The failures, in
   order. *)
let run_against_reference ~observed ~nblocks ~blocks ~setup ~step ~after ops =
  let failures = ref [] in
  let run = if observed then "observed" else "unobserved" in
  let fail fmt =
    Printf.ksprintf (fun m -> failures := (run ^ ", " ^ m) :: !failures) fmt
  in
  with_engine (fun e ->
      let d = Dram.create ~nblocks and rd = Dram.create ~nblocks in
      let robs = Obs.create () in
      Dram.observe d (Engine.obs e) ~track:7;
      Dram.observe rd robs ~track:7;
      let got_events =
        if observed then record_mem_events (Engine.obs e) else fun () -> []
      in
      let want_events =
        if observed then record_mem_events robs else fun () -> []
      in
      if (not observed) && (Engine.obs e).Obs.wanted <> 0 then
        fail "the bus has a subscriber";
      let caches = setup e d rd robs in
      List.iteri
        (fun i op ->
          let t0 = Engine.now e in
          let want_cycles, got_bytes, want_bytes = step caches d rd op in
          let got_cycles = Int64.to_int (Int64.sub (Engine.now e) t0) in
          if got_cycles <> want_cycles then
            fail "op %d: charged %d cycles, reference %d" i got_cycles
              want_cycles;
          if got_bytes <> want_bytes then fail "op %d: bytes differ" i;
          Array.iteri
            (fun c (p, r) ->
              if Pcache.stats p <> Ref.stats r then
                fail "op %d: cache %d: stats differ" i c;
              if Pcache.resident_lines p <> List.length r.Ref.lru then
                fail "op %d: cache %d: %d resident lines, reference %d" i c
                  (Pcache.resident_lines p) (List.length r.Ref.lru))
            caches;
          let got = got_events () and want = want_events () in
          if got <> want then
            fail "op %d: bus events\n    %s\n  reference\n    %s" i
              (String.concat "\n    " got) (String.concat "\n    " want);
          List.iter
            (fun b ->
              if not (same_block d rd b) then
                fail "op %d: DRAM block %d differs" i b)
            blocks)
        ops;
      after d fail);
  List.rev !failures

(* One run of a one-cache case against the reference. *)
let run_pc_case ~observed (capacity, nblocks, blocks, ops) =
  run_against_reference ~observed ~nblocks ~blocks ops
    ~setup:(fun e d rd robs ->
      [|
        ( Pcache.create d ~core:(mk_core e 0) ~costs ~capacity_lines:capacity
            ~block_socket:socket_of,
          Ref.create rd ~obs:robs ~capacity ~socket_of );
      |])
    ~step:(fun caches _ _ op ->
      let p, r = caches.(0) in
      pc_step p r op)
    ~after:(fun d fail ->
      (* No op touches another block: none has a page. *)
      for b = 0 to nblocks - 1 do
        if
          Bytes.length (Dram.read_page d ~block:b) > 0
          && not (List.mem b blocks)
        then fail "block %d, used by no op, has a page" b
      done)

(* [QCHECK_LONG=1] runs 20 times as many cases (a CI step). *)
let prop_pcache_matches_reference =
  QCheck.Test.make ~name:"pcache matches line-keyed reference" ~count:300
    ~long_factor:20 pc_case (fun case ->
      match
        run_pc_case ~observed:true case @ run_pc_case ~observed:false case
      with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_report m)

let prop_pcache_many_blocks =
  QCheck.Test.make ~name:"pcache matches reference over many blocks" ~count:150
    ~long_factor:20 pc_many_case (fun case ->
      match
        run_pc_case ~observed:true case @ run_pc_case ~observed:false case
      with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_report m)

(* ---------- several caches over one DRAM ---------------------------------- *)

(* An op of a multi-cache case: a call of one cache, or a change DRAM
   makes itself (a server freeing or clearing a block, a test writing a
   line). *)
type mc_op =
  | On of int * pc_op
  | Release of int
  | Zero_block of int
  | Zero_range of { block : int; off : int; len : int }
  | Write_line of { block : int; line : int; fill : char }

let pp_mc_op = function
  | On (c, op) -> Printf.sprintf "cache %d: %s" c (pp_pc_op op)
  | Release b -> Printf.sprintf "Dram.release %d" b
  | Zero_block b -> Printf.sprintf "Dram.zero_block %d" b
  | Zero_range { block; off; len } ->
      Printf.sprintf "Dram.zero_range b%d [%d,+%d)" block off len
  | Write_line { block; line; fill } ->
      Printf.sprintf "Dram.write_line b%d line %d %C" block line fill

(* Two or three caches, their capacities drawn as in [pc_case], over two
   to four blocks: they cache the same lines, write them back under each
   other, and DRAM changes lines they share. *)
let mc_case =
  let open QCheck.Gen in
  let gen =
    int_range 2 3 >>= fun ncaches ->
    list_repeat ncaches (oneofl [ 1; 3; 63; 64; 65; 200 ]) >>= fun caps ->
    int_range 2 4 >>= fun nblocks ->
    let block = int_bound (nblocks - 1) in
    let dram_op =
      frequency
        [
          (1, map (fun b -> Release b) block);
          (1, map (fun b -> Zero_block b) block);
          ( 2,
            map3
              (fun block off len ->
                Zero_range { block; off; len = min len (Layout.block_size - off) })
              block (int_bound (Layout.block_size - 1)) (int_range 0 300) );
          ( 2,
            map3
              (fun block line fill -> Write_line { block; line; fill })
              block (int_bound (Layout.lines_per_block - 1)) (char_range 'A' 'Z') );
        ]
    in
    let op =
      frequency
        [
          (5, map2 (fun c op -> On (c, op)) (int_bound (ncaches - 1)) (pc_op_gen ~small:3 block));
          (1, dram_op);
        ]
    in
    map (fun ops -> (caps, nblocks, ops)) (list_size (int_range 1 120) op)
  in
  QCheck.make gen ~print:(fun (caps, nblocks, ops) ->
      Printf.sprintf "capacities [%s], %d blocks:\n  %s"
        (String.concat ";" (List.map string_of_int caps))
        nblocks
        (String.concat "\n  " (List.map pp_mc_op ops)))

(* Cache [c] runs on core [c]. DRAM's own changes charge nothing and
   return no bytes; both DRAMs take them. *)
let run_mc_case ~observed (caps, nblocks, ops) =
  run_against_reference ~observed ~nblocks ~blocks:(List.init nblocks Fun.id) ops
    ~setup:(fun e d rd robs ->
      Array.of_list
        (List.mapi
           (fun c capacity ->
             ( Pcache.create d ~core:(mk_core e c) ~costs ~capacity_lines:capacity
                 ~block_socket:socket_of,
               Ref.create ~core:c rd ~obs:robs ~capacity ~socket_of ))
           caps))
    ~step:(fun caches d rd op ->
      let both f =
        f d;
        f rd;
        (0, "", "")
      in
      match op with
      | On (c, op) ->
          let p, r = caches.(c) in
          pc_step p r op
      | Release block -> both (fun d -> Dram.release d ~block)
      | Zero_block block -> both (fun d -> Dram.zero_block d ~block)
      | Zero_range { block; off; len } -> both (fun d -> Dram.zero_range d ~block ~off ~len)
      | Write_line { block; line; fill } ->
          let src = Bytes.make Layout.line_size fill in
          both (fun d -> Dram.write_line d ~block ~line ~src ~src_off:0))
    ~after:(fun _ _ -> ())

(* Every cache keeps the bytes a cache with its own copy of every line
   would: a shared line must be copied out before a write-back of
   another cache, a coherent write or DRAM's own change moves DRAM's
   bytes under it. [QCHECK_LONG=1] runs 20 times as many cases. *)
let prop_pcache_several_caches =
  QCheck.Test.make ~name:"several caches match references over one DRAM"
    ~count:200 ~long_factor:20 mc_case (fun case ->
      match run_mc_case ~observed:true case @ run_mc_case ~observed:false case with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_report m)

(* ---------- edge cases of the block directory ----------------------------- *)

let pattern block line = Char.chr (Char.code 'A' + (((block * 7) + line) mod 26))

let block_image block =
  String.init Layout.block_size (fun i -> pattern block (i / Layout.line_size))

let check_stats msg (want : Pcache.stats) p =
  let st = Pcache.stats p in
  Alcotest.(check (list int)) msg
    [ want.hits; want.misses; want.evictions; want.writebacks; want.invalidated ]
    [ st.hits; st.misses; st.evictions; st.writebacks; st.invalidated ]

(* Capacity 1 and 3: every miss past the first few evicts a line of the
   block being written; at capacity 1 the block's frame empties and is
   taken again inside the same access. *)
let test_pcache_victim_in_same_block () =
  List.iter
    (fun cap ->
      with_engine (fun e ->
          let d = Dram.create ~nblocks:2 in
          let p = mk_pcache ~capacity:cap e 0 d in
          let lpb = Layout.lines_per_block in
          Pcache.write_string p ~block:0 ~off:0 (block_image 0);
          let evicted = lpb - cap in
          check_stats (Printf.sprintf "cap %d write" cap)
            { hits = 0; misses = lpb; evictions = evicted; writebacks = evicted;
              invalidated = 0 }
            p;
          Alcotest.(check int) "resident" cap (Pcache.resident_lines p);
          Alcotest.(check string) "evicted lines reached DRAM"
            (String.sub (block_image 0) 0 (evicted * Layout.line_size))
            (Dram.unsafe_read d ~block:0 ~off:0 ~len:(evicted * Layout.line_size));
          Alcotest.(check string) "read back" (block_image 0)
            (Pcache.read_string p ~block:0 ~off:0 ~len:Layout.block_size);
          Alcotest.(check string) "all of it in DRAM now" (block_image 0)
            (Dram.unsafe_read d ~block:0 ~off:0 ~len:Layout.block_size)))
    [ 1; 3 ]

(* Invalidation frees every slot and the frame; a later block reuses the
   slots without evicting, and the invalidated block reuses a frame. *)
let test_pcache_reuse_after_invalidate () =
  with_engine (fun e ->
      let lpb = Layout.lines_per_block in
      let d = Dram.create ~nblocks:4 in
      let p = mk_pcache ~capacity:lpb e 0 d in
      Pcache.write_string p ~block:0 ~off:0 (block_image 0);
      Pcache.invalidate_block p 0;
      Alcotest.(check int) "nothing resident" 0 (Pcache.resident_lines p);
      Pcache.write_string p ~block:1 ~off:0 (block_image 1);
      check_stats "freed slots reused, nothing evicted"
        { hits = 0; misses = 2 * lpb; evictions = 0; writebacks = 0;
          invalidated = lpb }
        p;
      Alcotest.(check string) "block 1 cached" (block_image 1)
        (Pcache.read_string p ~block:1 ~off:0 ~len:Layout.block_size);
      Alcotest.(check string) "block 0 dirty data discarded"
        (String.make Layout.block_size '\000')
        (Pcache.read_string p ~block:0 ~off:0 ~len:Layout.block_size);
      Alcotest.(check string) "block 1 written back on eviction" (block_image 1)
        (Dram.unsafe_read d ~block:1 ~off:0 ~len:Layout.block_size);
      Pcache.invalidate_block p 0;
      Pcache.write_string p ~block:2 ~off:64 "frame";
      Alcotest.(check string) "fresh block after reuse" "frame"
        (Pcache.read_string p ~block:2 ~off:64 ~len:5);
      Alcotest.(check int) "one line resident" 1 (Pcache.resident_lines p))

(* Block 1 shares a directory leaf with a cached block; block 600 sits in
   a leaf never touched. *)
let test_pcache_uncached_block_ops () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:1024 in
      let p = mk_pcache e 0 d in
      Pcache.write_string p ~block:0 ~off:0 "dirty";
      let before = Pcache.stats p in
      List.iter
        (fun block ->
          List.iter
            (fun (name, op) ->
              let t0 = Engine.now e in
              op p block;
              Alcotest.(check int64)
                (Printf.sprintf "%s %d charges nothing" name block)
                0L
                (Int64.sub (Engine.now e) t0))
            [ ("invalidate", Pcache.invalidate_block);
              ("writeback", Pcache.writeback_block) ])
        [ 1; 600 ];
      check_stats "stats unchanged" before p;
      Alcotest.(check int) "resident" 1 (Pcache.resident_lines p))

(* Blocks whose directory probes collide, in a table of 16 slots (8
   blocks, all the directory holds before it grows) and of 32 (16 blocks,
   after one growth): half start at slot [slots - 2], a quarter at
   [slots - 1] and a quarter at 0, so they form one run that wraps round
   the table's end. They are invalidated one by one, in several orders;
   after each, every block left must still be found, with its dirty
   bytes, which DRAM does not have. *)
let test_pcache_colliding_blocks () =
  let nblocks = 1 lsl 16 in
  let homed ~slots h n =
    let rec go b acc n =
      if n = 0 then List.rev acc
      else if b >= nblocks then Alcotest.failf "no block homed at %d" h
      else if Pcache.home_slot ~slots b = h then go (b + 1) (b :: acc) (n - 1)
      else go (b + 1) acc n
    in
    go 0 [] n
  in
  let tag b = Printf.sprintf "block %d" b in
  List.iter
    (fun slots ->
      let q = slots / 8 in
      let blocks =
        homed ~slots (slots - 2) (2 * q) @ homed ~slots (slots - 1) q
        @ homed ~slots 0 q
      in
      let shuffled seed =
        let st = Random.State.make [| seed |] in
        List.map snd
          (List.sort compare (List.map (fun b -> (Random.State.bits st, b)) blocks))
      in
      let odd_even =
        List.filteri (fun i _ -> i land 1 = 1) blocks
        @ List.filteri (fun i _ -> i land 1 = 0) blocks
      in
      List.iter
        (fun order ->
          with_engine (fun e ->
              let p = mk_pcache e 0 (Dram.create ~nblocks) in
              List.iter (fun b -> Pcache.write_string p ~block:b ~off:0 (tag b)) blocks;
              ignore
                (List.fold_left
                   (fun left b ->
                     Pcache.invalidate_block p b;
                     let left = List.filter (fun r -> r <> b) left in
                     List.iter
                       (fun r ->
                         Alcotest.(check string)
                           (Printf.sprintf "%d slots: block %d after %d left" slots r b)
                           (tag r)
                           (Pcache.read_string p ~block:r ~off:0 ~len:(String.length (tag r))))
                       left;
                     Alcotest.(check int) "resident lines" (List.length left)
                       (Pcache.resident_lines p);
                     left)
                   blocks order
                  : int list)))
        [ blocks; List.rev blocks; odd_even; shuffled 1; shuffled 2; shuffled 3 ])
    [ 16; 32 ]

(* At capacity, a 64-line write whose every line misses and evicts a
   dirty victim allocates no more than a 1-line one: the per-line path
   (eviction, write-back, frame release and reuse, fill) is allocation
   free and both pay one compute charge. So do the other line loops: a
   line-aligned 4 KiB read that spans two blocks ([data_rw]'s read
   shape: two accesses, each evicting dirty lines of other blocks), a
   write-back of a fully dirty block and an invalidation of a fully
   resident one. *)
let test_pcache_miss_path_allocation () =
  with_engine (fun e ->
      let lpb = Layout.lines_per_block in
      let d = Dram.create ~nblocks:16 in
      let p = mk_pcache ~capacity:(2 * lpb) e 0 d in
      let src = Bytes.make Layout.block_size 'w' in
      let dst = Bytes.create Layout.block_size in
      let write block len = Pcache.write p ~block ~off:0 ~len ~src ~src_off:0 in
      (* Warm up: grow the slots, the directory leaf and the frame pool. *)
      for block = 0 to 7 do
        write block Layout.block_size
      done;
      let words f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      let st0 = Pcache.stats p in
      let many = words (fun () -> write 8 Layout.block_size) in
      let one = words (fun () -> write 9 Layout.line_size) in
      let st = Pcache.stats p in
      Alcotest.(check int) "every line a dirty miss" (lpb + 1)
        (st.writebacks - st0.writebacks);
      if many > one then
        Alcotest.failf "64-line miss allocated %.0f words, 1-line %.0f" many one;
      (* Blocks 10 to 15 were never cached: every line of a read misses
         and evicts a line of another block. The first two reads (dirty
         victims of blocks 7, 8 and 9) release frames to the pool, as a
         long run does; the third is measured. *)
      let split = 24 * Layout.line_size in
      let read2 block =
        Pcache.read p ~block ~off:split ~len:(Layout.block_size - split) ~dst
          ~dst_off:0;
        Pcache.read p ~block:(block + 1) ~off:0 ~len:split ~dst
          ~dst_off:(Layout.block_size - split)
      in
      read2 10;
      read2 12;
      Alcotest.(check int) "the reads wrote dirty victims back" (3 * lpb + 1)
        ((Pcache.stats p).writebacks - st0.writebacks);
      let two_blocks = words (fun () -> read2 14) in
      write 12 Layout.block_size;
      let wb0 = (Pcache.stats p).writebacks in
      let writeback = words (fun () -> Pcache.writeback_block p 12) in
      Alcotest.(check int) "a fully dirty block" lpb
        ((Pcache.stats p).writebacks - wb0);
      let invalidate = words (fun () -> Pcache.invalidate_block p 12) in
      Alcotest.(check int) "a fully resident block" lpb
        ((Pcache.stats p).invalidated - st0.invalidated);
      List.iter
        (fun (name, w) ->
          if w > one then
            Alcotest.failf "%s allocated %.0f words, a 1-line miss %.0f" name w one)
        [ ("two-block read", two_blocks); ("writeback_block", writeback);
          ("invalidate_block", invalidate) ])

(* Below 64 lines of capacity, a whole-block read of a block with dirty
   lines and no DRAM page evicts those lines to make room: their
   write-backs give the block its page in the middle of the access, and
   the same access refills them from it. It must read the written-back
   bytes, not the zeroes the page held before. At capacity 1 the victim
   is also the block's last cached line. *)
let test_pcache_writeback_then_refill_same_access () =
  List.iter
    (fun cap ->
      with_engine (fun e ->
          let lpb = Layout.lines_per_block and ls = Layout.line_size in
          let d = Dram.create ~nblocks:2 in
          let p = mk_pcache ~capacity:cap e 0 d in
          let first = lpb - cap in
          let tail = String.sub (block_image 0) (first * ls) (cap * ls) in
          Pcache.write_string p ~block:0 ~off:(first * ls) tail;
          Alcotest.(check string) "DRAM has no page yet" (String.make 4 '\000')
            (Dram.unsafe_read d ~block:0 ~off:(first * ls) ~len:4);
          let want = String.make (first * ls) '\000' ^ tail in
          Alcotest.(check string)
            (Printf.sprintf "cap %d: read back in one access" cap)
            want
            (Pcache.read_string p ~block:0 ~off:0 ~len:Layout.block_size);
          check_stats (Printf.sprintf "cap %d" cap)
            { hits = 0; misses = cap + lpb; evictions = lpb;
              writebacks = cap; invalidated = 0 }
            p;
          Alcotest.(check string) "DRAM holds the written-back lines" want
            (Dram.unsafe_read d ~block:0 ~off:0 ~len:Layout.block_size)))
    [ 1; 3; 40 ]

(* The same with a short page: the block's page holds only its first
   line when the whole-block read starts. The first dirty victim's
   write-back replaces it with a whole block, and the lines the read
   refills after that must come from the new page, not from past the
   old one's end. *)
let test_pcache_writeback_grows_page_same_access () =
  List.iter
    (fun cap ->
      with_engine (fun e ->
          let lpb = Layout.lines_per_block and ls = Layout.line_size in
          let d = Dram.create ~nblocks:2 in
          let p = mk_pcache ~capacity:cap e 0 d in
          Pcache.write_string p ~block:0 ~off:0 "head";
          Pcache.writeback_block p 0;
          Pcache.invalidate_block p 0;
          let first = lpb - cap in
          let tail = String.sub (block_image 0) (first * ls) (cap * ls) in
          Pcache.write_string p ~block:0 ~off:(first * ls) tail;
          Alcotest.(check int) "a one-line page" ls
            (Bytes.length (Dram.read_page d ~block:0));
          let want = "head" ^ String.make ((first * ls) - 4) '\000' ^ tail in
          Alcotest.(check string)
            (Printf.sprintf "cap %d: read back in one access" cap)
            want
            (Pcache.read_string p ~block:0 ~off:0 ~len:Layout.block_size);
          Alcotest.(check string) "DRAM holds the written-back lines" want
            (Dram.unsafe_read d ~block:0 ~off:0 ~len:Layout.block_size)))
    [ 1; 3; 40 ]

(* A user buffer shorter than the range is refused before the access
   starts: no line is filled or evicted, no counter moves, no cycle is
   charged and no event is emitted. *)
let test_pcache_short_buffer () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:2 in
      let p = mk_pcache ~capacity:1 e 0 d in
      Pcache.write_string p ~block:0 ~off:0 "dirty";
      let events = ref 0 in
      Obs.subscribe (Engine.obs e) Obs.(cache lor marks lor spans) (fun _ ->
          incr events);
      let before = Pcache.stats p and t0 = Engine.now e in
      let buf = Bytes.make 100 'x' in
      List.iter
        (fun (name, f) ->
          match f () with
          | () -> Alcotest.failf "%s: accepted a short buffer" name
          | exception Invalid_argument _ -> ())
        [
          ("read", fun () -> Pcache.read p ~block:1 ~off:0 ~len:128 ~dst:buf ~dst_off:0);
          ("write", fun () -> Pcache.write p ~block:1 ~off:0 ~len:128 ~src:buf ~src_off:0);
          ("write at offset", fun () ->
              Pcache.write p ~block:1 ~off:0 ~len:64 ~src:buf ~src_off:40);
          ("negative offset", fun () ->
              Pcache.read_coherent p ~block:1 ~off:0 ~len:8 ~dst:buf ~dst_off:(-1));
        ];
      check_stats "stats unchanged" before p;
      Alcotest.(check int64) "nothing charged" t0 (Engine.now e);
      Alcotest.(check int) "no event" 0 !events;
      Alcotest.(check string) "the dirty line stayed" "dirty"
        (Pcache.read_string p ~block:0 ~off:0 ~len:5);
      Alcotest.(check string) "DRAM untouched" (String.make 5 '\000')
        (Dram.unsafe_read d ~block:0 ~off:0 ~len:5))

let test_layout_lines_touched () =
  Alcotest.(check (pair int int)) "one line" (0, 0) (Layout.lines_touched ~off:0 ~len:64);
  Alcotest.(check (pair int int)) "straddle" (0, 1) (Layout.lines_touched ~off:63 ~len:2);
  Alcotest.(check (pair int int)) "last" (63, 63)
    (Layout.lines_touched ~off:(Layout.block_size - 1) ~len:1);
  Alcotest.check_raises "escape"
    (Invalid_argument "Layout.lines_touched: range escapes block") (fun () ->
      ignore (Layout.lines_touched ~off:(Layout.block_size - 1) ~len:2))

(* ---------- the free-block FIFO ------------------------------------------ *)

type fl_op = Push of int | Pop | Clear_refill of int list

let pp_fl_op = function
  | Push b -> Printf.sprintf "push %d" b
  | Pop -> "pop"
  | Clear_refill bs ->
      Printf.sprintf "clear; push [%s]"
        (String.concat ";" (List.map string_of_int bs))

let fl_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun b -> Push b) (int_bound 10_000));
        (5, return Pop);
        (1, map (fun bs -> Clear_refill bs) (list_size (int_bound 40) (int_bound 10_000)));
      ]
  in
  QCheck.make
    (triple (int_bound 100) (int_bound 40) (list_size (int_range 1 300) op))
    ~print:(fun (first, count, ops) ->
      Printf.sprintf "create ~first:%d ~count:%d:\n  %s" first count
        (String.concat "\n  " (List.map pp_fl_op ops)))

(* The FIFO hands out what a [Queue] filled with the same range and fed
   the same pushes does: every pop, every length, across ring wrap-around,
   growth while wrapped and clear-then-refill. *)
let prop_freelist_matches_queue =
  QCheck.Test.make ~name:"freelist matches Queue" ~count:500 fl_case
    (fun (first, count, ops) ->
      let f = Freelist.create ~first ~count and q = Queue.create () in
      for b = first to first + count - 1 do
        Queue.push b q
      done;
      List.iteri
        (fun i op ->
          (match op with
          | Push b ->
              Freelist.push f b;
              Queue.push b q
          | Pop -> (
              match Queue.take_opt q with
              | Some want ->
                  let got = Freelist.pop f in
                  if got <> want then
                    QCheck.Test.fail_reportf "op %d: popped %d, Queue %d" i got
                      want
              | None -> (
                  match Freelist.pop f with
                  | b -> QCheck.Test.fail_reportf "op %d: popped %d from empty" i b
                  | exception Invalid_argument _ -> ()))
          | Clear_refill bs ->
              Freelist.clear f;
              Queue.clear q;
              List.iter
                (fun b ->
                  Freelist.push f b;
                  Queue.push b q)
                bs);
          if Freelist.length f <> Queue.length q then
            QCheck.Test.fail_reportf "op %d: length %d, Queue %d" i
              (Freelist.length f) (Queue.length q))
        ops;
      true)

(* ---------- the server partition over the FIFO ---------------------------- *)

module Blocklist = Hare_server.Blocklist

(* The partition as it was over an [int Queue.t] filled with its whole
   range: the reference the FIFO-backed one must match block for block.
   A donated in-range block stays out of it, as an exported one does,
   until adopted back. *)
module Queue_partition = struct
  module Itbl = Hare_sim.Tbl.Int

  type t = {
    first : int;
    count : int;
    free : int Queue.t;
    allocated : unit Itbl.t;
    adopted : unit Itbl.t;
    exported : unit Itbl.t;
  }

  let create ~first ~count =
    let free = Queue.create () in
    for b = first to first + count - 1 do
      Queue.push b free
    done;
    {
      first;
      count;
      free;
      allocated = Itbl.create 64;
      adopted = Itbl.create 16;
      exported = Itbl.create 16;
    }

  let in_range t b = b >= t.first && b < t.first + t.count

  let available t = Queue.length t.free

  let owns t block =
    (in_range t block && not (Itbl.mem t.exported block))
    || Itbl.mem t.adopted block

  let alloc_many t n =
    if Queue.length t.free < n then None
    else
      Some
        (Array.init n (fun _ ->
             let b = Queue.pop t.free in
             Itbl.replace t.allocated b ();
             b))

  let free t block =
    assert (owns t block && Itbl.mem t.allocated block);
    Itbl.remove t.allocated block;
    Queue.push block t.free

  let donate t n =
    let got = Int.min n (Queue.length t.free) in
    Array.init got (fun _ ->
        let b = Queue.pop t.free in
        Itbl.remove t.adopted b;
        if in_range t b then Itbl.replace t.exported b ();
        b)

  let rebuild t ~live =
    let leaked =
      Itbl.fold
        (fun b () n -> if in_range t b && not (Itbl.mem live b) then n + 1 else n)
        t.allocated 0
    in
    let adopted_live =
      Itbl.fold
        (fun b () acc -> if Itbl.mem live b then b :: acc else acc)
        t.adopted []
    in
    Itbl.reset t.allocated;
    Itbl.reset t.adopted;
    Queue.clear t.free;
    List.iter
      (fun b ->
        Itbl.replace t.adopted b ();
        Itbl.replace t.allocated b ())
      adopted_live;
    for b = t.first to t.first + t.count - 1 do
      if Itbl.mem t.exported b then ()
      else if Itbl.mem live b then Itbl.replace t.allocated b ()
      else Queue.push b t.free
    done;
    leaked

  let adopt t blocks =
    Array.iter
      (fun b ->
        if in_range t b then Itbl.remove t.exported b
        else Itbl.replace t.adopted b ();
        Queue.push b t.free)
      blocks

  let export t blocks =
    Array.iter
      (fun b ->
        Itbl.remove t.allocated b;
        Itbl.remove t.adopted b;
        if in_range t b then Itbl.replace t.exported b ())
      blocks

  let adopt_allocated t blocks =
    Array.iter
      (fun b ->
        Itbl.remove t.exported b;
        if not (in_range t b) then Itbl.replace t.adopted b ();
        Itbl.replace t.allocated b ())
      blocks

  let allocated t =
    List.sort Int.compare (Itbl.fold (fun b () acc -> b :: acc) t.allocated [])
end

(* Block choices are indices into the reference's current state (its
   allocated blocks, the blocks donated or exported so far), so every
   operation is a legal one. *)
type bl_op =
  | Alloc of int
  | Free of int
  | Donate of int
  | Adopt_back of int
  | Adopt_foreign of int
  | Export of int * int
  | Adopt_allocated of int
  | Rebuild of int

let pp_bl_op = function
  | Alloc n -> Printf.sprintf "alloc_many %d" n
  | Free i -> Printf.sprintf "free #%d" i
  | Donate n -> Printf.sprintf "donate %d" n
  | Adopt_back n -> Printf.sprintf "adopt %d donated" n
  | Adopt_foreign n -> Printf.sprintf "adopt %d foreign" n
  | Export (i, n) -> Printf.sprintf "export %d from #%d" n i
  | Adopt_allocated n -> Printf.sprintf "adopt_allocated %d exported" n
  | Rebuild seed -> Printf.sprintf "rebuild (live seed %d)" seed

let bl_case =
  let open QCheck.Gen in
  let small = int_bound 6 in
  let op =
    frequency
      [
        (6, map (fun n -> Alloc n) small);
        (5, map (fun i -> Free i) (int_bound 1000));
        (2, map (fun n -> Donate n) small);
        (2, map (fun n -> Adopt_back n) small);
        (1, map (fun n -> Adopt_foreign n) small);
        (2, map2 (fun i n -> Export (i, n)) (int_bound 1000) small);
        (2, map (fun n -> Adopt_allocated n) small);
        (1, map (fun s -> Rebuild s) (int_bound 1000));
      ]
  in
  QCheck.make
    (triple (int_bound 50) (int_range 1 30) (list_size (int_range 1 120) op))
    ~print:(fun (first, count, ops) ->
      Printf.sprintf "create ~first:%d ~count:%d:\n  %s" first count
        (String.concat "\n  " (List.map pp_bl_op ops)))

let take n pool =
  let rec go n acc = function
    | b :: rest when n > 0 -> go (n - 1) (b :: acc) rest
    | rest -> (Array.of_list (List.rev acc), rest)
  in
  go n [] pool

let prop_blocklist_matches_queue =
  QCheck.Test.make ~name:"blocklist matches the Queue partition" ~count:500
    bl_case (fun (first, count, ops) ->
      let b = Blocklist.create ~first ~count
      and r = Queue_partition.create ~first ~count in
      let donated = ref [] and exported = ref [] and foreign = ref 10_000 in
      let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
      let same i what got want =
        if got <> want then
          QCheck.Test.fail_reportf "op %d: %s gave %s, reference %s" i what got
            want
      in
      (* The peer holds the donated blocks until it hands them back: none
         may also be free or allocated here. *)
      let not_donated i what blocks =
        Array.iter
          (fun blk ->
            if List.mem blk !donated then
              QCheck.Test.fail_reportf "op %d: %s handed out donated block %d"
                i what blk)
          blocks
      in
      List.iteri
        (fun i op ->
          (match op with
          | Alloc n ->
              let show = Option.fold ~none:"None" ~some:ints in
              let got = Blocklist.alloc_many b n in
              Option.iter (not_donated i "alloc_many") got;
              same i "alloc_many" (show got)
                (show (Queue_partition.alloc_many r n))
          | Free k -> (
              match Queue_partition.allocated r with
              | [] -> ()
              | live ->
                  let blk = List.nth live (k mod List.length live) in
                  Blocklist.free b blk;
                  Queue_partition.free r blk)
          | Donate n ->
              let got = Blocklist.donate b n
              and want = Queue_partition.donate r n in
              same i "donate" (ints got) (ints want);
              donated := !donated @ Array.to_list want
          | Adopt_back n ->
              let blocks, rest = take n !donated in
              donated := rest;
              Blocklist.adopt b blocks;
              Queue_partition.adopt r blocks
          | Adopt_foreign n ->
              let blocks = Array.init n (fun j -> !foreign + j) in
              foreign := !foreign + n;
              Blocklist.adopt b blocks;
              Queue_partition.adopt r blocks
          | Export (k, n) ->
              let live = Queue_partition.allocated r in
              let len = List.length live in
              let blocks =
                if len = 0 then [||]
                else
                  Array.of_list
                    (List.filteri
                       (fun j _ -> (j - (k mod len) + len) mod len < n)
                       live)
              in
              exported := !exported @ Array.to_list blocks;
              Blocklist.export b blocks;
              Queue_partition.export r blocks
          | Adopt_allocated n ->
              let blocks, rest = take n !exported in
              exported := rest;
              Blocklist.adopt_allocated b blocks;
              Queue_partition.adopt_allocated r blocks
          | Rebuild seed ->
              (* The peer keeps the donated blocks across this rebuild
                 and may still hand them back. *)
              let live = Hare_sim.Tbl.Int.create 16 in
              List.iter
                (fun blk ->
                  if (blk * 31 + seed) land 3 <> 0 then
                    Hare_sim.Tbl.Int.replace live blk ())
                (Queue_partition.allocated r);
              same i "rebuild"
                (string_of_int (Blocklist.rebuild b ~live))
                (string_of_int (Queue_partition.rebuild r ~live)));
          same i "available"
            (string_of_int (Blocklist.available b))
            (string_of_int (Queue_partition.available r)))
        ops;
      (* Drain both: the whole free list, in order. No block is owned
         twice: the drained, the allocated and the donated blocks are
         disjoint. *)
      let i = List.length ops in
      let allocated = Queue_partition.allocated r in
      let n = Queue_partition.available r in
      let show = Option.fold ~none:"None" ~some:ints in
      let got = Blocklist.alloc_many b n in
      Option.iter (not_donated i "draining alloc_many") got;
      not_donated i "allocated" (Array.of_list allocated);
      Option.iter
        (Array.iter (fun blk ->
             if List.mem blk allocated then
               QCheck.Test.fail_reportf "block %d both free and allocated" blk))
        got;
      same i "draining alloc_many" (show got)
        (show (Queue_partition.alloc_many r n));
      true)

(* ---------- the lazy page table ------------------------------------------- *)

(* Bytes allocated on either heap while [f] runs (a page goes straight to
   the major heap). *)
let allocated_bytes f =
  let b0 = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. b0

(* A never-written page reads as zeroes through every reader, and
   clearing it touches nothing: no leaf, no page. *)
let test_dram_unwritten_reads_zero () =
  let d = Dram.create ~nblocks:2048 in
  let dst = Bytes.make Layout.line_size 'x' in
  Dram.read_line d ~block:1500 ~line:5 ~dst ~dst_off:0;
  Alcotest.(check string) "read_line" (String.make Layout.line_size '\000')
    (Bytes.to_string dst);
  Alcotest.(check string) "unsafe_read" (String.make 100 '\000')
    (Dram.unsafe_read d ~block:1500 ~off:7 ~len:100);
  Alcotest.(check int) "read_page gives the empty page" 0
    (Bytes.length (Dram.read_page d ~block:1500));
  let spent =
    allocated_bytes (fun () ->
        for block = 0 to 2047 do
          Dram.zero_block d ~block;
          Dram.zero_range d ~block ~off:10 ~len:100;
          ignore (Dram.read_page d ~block : Bytes.t)
        done)
  in
  if spent > 256. then
    Alcotest.failf "clearing unwritten pages allocated %.0f bytes" spent;
  (* A write in one leaf leaves its neighbours and the other leaves
     reading as zeroes. *)
  Dram.write_line d ~block:600 ~line:0 ~src:(Bytes.make Layout.line_size 'w')
    ~src_off:0;
  Alcotest.(check string) "same leaf, other page" (String.make 8 '\000')
    (Dram.unsafe_read d ~block:601 ~off:0 ~len:8);
  Alcotest.(check string) "other leaf" (String.make 8 '\000')
    (Dram.unsafe_read d ~block:100 ~off:0 ~len:8);
  Alcotest.(check string) "same page, other line" (String.make 8 '\000')
    (Dram.unsafe_read d ~block:600 ~off:Layout.line_size ~len:8)

(* A page, and its leaf, appear on the first write, also in a last leaf
   that [nblocks] covers only in part; out-of-range blocks still raise. *)
let test_dram_page_on_first_write () =
  let d = Dram.create ~nblocks:1000 in
  let src = Bytes.make Layout.line_size 'p' in
  let first =
    allocated_bytes (fun () -> Dram.write_line d ~block:999 ~line:63 ~src ~src_off:0)
  in
  if first < float_of_int Layout.block_size then
    Alcotest.failf "first write allocated only %.0f bytes" first;
  let again =
    allocated_bytes (fun () -> Dram.write_line d ~block:999 ~line:0 ~src ~src_off:0)
  in
  if again > 64. then
    Alcotest.failf "second write to the page allocated %.0f bytes" again;
  let neighbour =
    allocated_bytes (fun () -> Dram.write_line d ~block:998 ~line:0 ~src ~src_off:0)
  in
  if neighbour > float_of_int (Layout.block_size + 64) then
    Alcotest.failf "a page beside a written one allocated %.0f bytes" neighbour;
  Alcotest.(check string) "written line" "pppp"
    (Dram.unsafe_read d ~block:999 ~off:(63 * Layout.line_size) ~len:4);
  Alcotest.(check string) "rest of the page" (String.make 4 '\000')
    (Dram.unsafe_read d ~block:999 ~off:Layout.line_size ~len:4);
  Dram.zero_block d ~block:999;
  Alcotest.(check string) "zeroed" (String.make 4 '\000')
    (Dram.unsafe_read d ~block:999 ~off:0 ~len:4);
  let dst = Bytes.create Layout.line_size in
  List.iter
    (fun block ->
      let msg = Printf.sprintf "Dram: block %d out of range" block in
      Alcotest.check_raises "read" (Invalid_argument msg) (fun () ->
          Dram.read_line d ~block ~line:0 ~dst ~dst_off:0);
      Alcotest.check_raises "write" (Invalid_argument msg) (fun () ->
          Dram.write_line d ~block ~line:0 ~src ~src_off:0);
      Alcotest.check_raises "zero_block" (Invalid_argument msg) (fun () ->
          Dram.zero_block d ~block);
      Alcotest.check_raises "unsafe_read" (Invalid_argument msg) (fun () ->
          ignore (Dram.unsafe_read d ~block ~off:0 ~len:1)))
    [ 1000; 1023; 1024; -1 ]

(* [release] gives a written page back: the block reads as zeroes and
   the table holds one page fewer. On a page never written, [release]
   and [zero_block] allocate nothing; a released page comes back on the
   next write; an out-of-range block raises and changes nothing. *)
let test_dram_release () =
  let d = Dram.create ~nblocks:1000 in
  let src = Bytes.make Layout.line_size 'r' in
  Dram.write_line d ~block:7 ~line:2 ~src ~src_off:0;
  Dram.write_line d ~block:8 ~line:0 ~src ~src_off:0;
  let held () = Obj.reachable_words (Obj.repr d) in
  let before = held () in
  let page_words = Obj.reachable_words (Obj.repr (Dram.read_page d ~block:7)) in
  Dram.release d ~block:7;
  if before - held () <> page_words then
    Alcotest.failf "release gave back %d words, the page holds %d"
      (before - held ()) page_words;
  Alcotest.(check string) "released page reads zeroes"
    (String.make Layout.block_size '\000')
    (Dram.unsafe_read d ~block:7 ~off:0 ~len:Layout.block_size);
  Alcotest.(check string) "the other page kept" "rrrr"
    (Dram.unsafe_read d ~block:8 ~off:0 ~len:4);
  let spent =
    allocated_bytes (fun () ->
        for block = 0 to 999 do
          if block <> 8 then begin
            Dram.release d ~block;
            Dram.zero_block d ~block
          end
        done)
  in
  if spent > 256. then
    Alcotest.failf "releasing unwritten pages allocated %.0f bytes" spent;
  Dram.write_line d ~block:7 ~line:5 ~src ~src_off:0;
  Alcotest.(check string) "written again" "rrrr"
    (Dram.unsafe_read d ~block:7 ~off:(5 * Layout.line_size) ~len:4);
  Alcotest.(check string) "the old line stays zero" (String.make 4 '\000')
    (Dram.unsafe_read d ~block:7 ~off:(2 * Layout.line_size) ~len:4);
  let kept = held () in
  List.iter
    (fun block ->
      let msg = Printf.sprintf "Dram: block %d out of range" block in
      Alcotest.check_raises "release" (Invalid_argument msg) (fun () ->
          Dram.release d ~block))
    [ 1000; 1023; 1024; -1 ];
  Alcotest.(check int) "out-of-range release changed nothing" kept (held ());
  Alcotest.(check string) "pages intact" "rrrr"
    (Dram.unsafe_read d ~block:8 ~off:0 ~len:4)

(* A page first holds lines [0, k] of a first write at line k; a write
   past its end replaces it, once, with a whole block that keeps its
   bytes. Every reader sees zeroes past a short page's end, and neither
   reading nor clearing there allocates or grows the page. *)
let test_dram_short_pages () =
  let ls = Layout.line_size in
  let d = Dram.create ~nblocks:8 in
  let line c = Bytes.make ls c in
  let page_lines block = Bytes.length (Dram.read_page d ~block) / ls in
  Dram.write_line d ~block:3 ~line:4 ~src:(line 'a') ~src_off:0;
  Alcotest.(check int) "first write at line 4" 5 (page_lines 3);
  let b = line 'b' in
  let inside =
    allocated_bytes (fun () -> Dram.write_line d ~block:3 ~line:2 ~src:b ~src_off:0)
  in
  if inside > 64. then
    Alcotest.failf "a write inside the page allocated %.0f bytes" inside;
  Alcotest.(check int) "a write inside keeps its length" 5 (page_lines 3);
  let short = Dram.read_page d ~block:3 in
  let zeroes n = String.make n '\000' in
  let dst = Bytes.make ls 'x' in
  let spent =
    allocated_bytes (fun () ->
        Dram.read_line d ~block:3 ~line:5 ~dst ~dst_off:0;
        Dram.zero_range d ~block:3 ~off:(6 * ls) ~len:(10 * ls))
  in
  if spent > 64. then
    Alcotest.failf "reading and clearing past the end allocated %.0f bytes" spent;
  Alcotest.(check string) "read_line past the end" (zeroes ls) (Bytes.to_string dst);
  let s = Dram.unsafe_read d ~block:3 ~off:(2 * ls) ~len:(10 * ls) in
  Alcotest.(check string) "unsafe_read across the end"
    (String.make ls 'b' ^ zeroes ls ^ String.make ls 'a' ^ zeroes (7 * ls))
    s;
  Alcotest.(check string) "unsafe_read past the end" (zeroes 100)
    (Dram.unsafe_read d ~block:3 ~off:(40 * ls) ~len:100);
  Dram.zero_range d ~block:3 ~off:((4 * ls) + 10) ~len:ls;
  Alcotest.(check string) "zero_range across the end"
    (String.make 10 'a' ^ zeroes (ls - 10))
    (Dram.unsafe_read d ~block:3 ~off:(4 * ls) ~len:ls);
  Alcotest.(check bool) "the short page stayed" true
    (Dram.read_page d ~block:3 == short);
  Dram.write_line d ~block:3 ~line:9 ~src:(line 'c') ~src_off:0;
  Alcotest.(check int) "a write past the end makes a whole block"
    Layout.lines_per_block (page_lines 3);
  Alcotest.(check string) "the earlier bytes kept"
    (String.make ls 'b' ^ zeroes ls ^ String.make 10 'a' ^ zeroes (ls - 10))
    (Dram.unsafe_read d ~block:3 ~off:(2 * ls) ~len:(3 * ls));
  Alcotest.(check string) "the new line" (String.make ls 'c')
    (Dram.unsafe_read d ~block:3 ~off:(9 * ls) ~len:ls);
  Alcotest.(check int) "write_page covers what it asks for" 3
    (Bytes.length (Dram.write_page d ~block:5 ~lines:3) / ls);
  Alcotest.(check int) "and grows to a whole block" Layout.block_size
    (Bytes.length (Dram.write_page d ~block:5 ~lines:4));
  List.iter
    (fun lines ->
      Alcotest.check_raises "lines out of range"
        (Invalid_argument (Printf.sprintf "Dram: %d lines out of range" lines))
        (fun () -> ignore (Dram.write_page d ~block:6 ~lines : Bytes.t)))
    [ 0; Layout.lines_per_block + 1 ];
  (* A write-back of a block dirty only in its low lines. *)
  with_engine (fun e ->
      let p = mk_pcache e 0 d in
      Pcache.write_string p ~block:6 ~off:0 "low";
      Pcache.write_string p ~block:6 ~off:((2 * ls) + 5) "third";
      Pcache.writeback_block p 6;
      Alcotest.(check int) "write-back page" 3 (page_lines 6);
      Alcotest.(check string) "write-back bytes"
        ("low" ^ zeroes ((2 * ls) + 2) ^ "third" ^ zeroes (ls - 10))
        (Dram.unsafe_read d ~block:6 ~off:0 ~len:(3 * ls)))

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "mem.dram",
      [
        tc "roundtrip" `Quick test_dram_roundtrip;
        tc "zero block" `Quick test_dram_zero;
        tc "bounds" `Quick test_dram_bounds;
        tc "unwritten pages read as zeroes" `Quick test_dram_unwritten_reads_zero;
        tc "page on first write" `Quick test_dram_page_on_first_write;
        tc "release" `Quick test_dram_release;
        tc "short pages" `Quick test_dram_short_pages;
      ] );
    ( "mem.freelist",
      [
        QCheck_alcotest.to_alcotest prop_freelist_matches_queue;
        QCheck_alcotest.to_alcotest prop_blocklist_matches_queue;
      ] );
    ( "mem.pcache",
      [
        tc "roundtrip" `Quick test_pcache_roundtrip;
        tc "dirty not in dram" `Quick test_pcache_dirty_not_in_dram;
        tc "stale read on other core" `Quick test_pcache_stale_read_other_core;
        tc "invalidate discards dirty" `Quick test_pcache_invalidate_discards_dirty;
        tc "eviction writes back" `Quick test_pcache_eviction_writes_back;
        tc "hit cheaper than miss" `Quick test_pcache_costs_hit_vs_miss;
        tc "numa penalty" `Quick test_pcache_numa_cost;
        tc "coherent mode" `Quick test_pcache_coherent_sees_remote_writes;
        tc "coherent partial writes merge" `Quick
          test_pcache_coherent_partial_writes_merge;
        tc "cells fit" `Quick test_pcache_cells_fit;
        tc "cross-line ranges" `Quick test_pcache_cross_line_ranges;
        tc "victim in the accessed block" `Quick test_pcache_victim_in_same_block;
        tc "slot and frame reuse after invalidate" `Quick
          test_pcache_reuse_after_invalidate;
        tc "uncached block ops are free" `Quick test_pcache_uncached_block_ops;
        tc "colliding blocks released in any order" `Quick
          test_pcache_colliding_blocks;
        tc "miss path allocation-free" `Quick test_pcache_miss_path_allocation;
        tc "write-back then refill in one access" `Quick
          test_pcache_writeback_then_refill_same_access;
        tc "write-back grows the page in one access" `Quick
          test_pcache_writeback_grows_page_same_access;
        tc "short buffer refused up front" `Quick test_pcache_short_buffer;
        QCheck_alcotest.to_alcotest prop_pcache_matches_reference;
        QCheck_alcotest.to_alcotest prop_pcache_many_blocks;
        QCheck_alcotest.to_alcotest prop_pcache_several_caches;
      ] );
    ("mem.layout", [ tc "lines touched" `Quick test_layout_lines_touched ]);
  ]
