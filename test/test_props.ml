(* Property-based tests (qcheck): core data structures and, most
   importantly, differential tests that run random operation sequences
   against the full Hare stack (in three configurations), the Linux
   baseline and the shared model VFS ([Hare_explore.Model], the
   explorer's oracle's model too) and demand the same observable
   behaviour. *)

module Q = QCheck
module Types = Hare_proto.Types
module Errno = Hare_proto.Errno
open Hare_sim

(* ---------- heap -------------------------------------------------------- *)

let prop_heap_sorted =
  Q.Test.make ~name:"heap pops in key order" ~count:200
    Q.(list (pair (int_bound 10_000) small_nat))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun seq (t, v) -> Heap.push h ~time:t ~seq v) entries;
      let rec drain last acc =
        if Heap.is_empty h then List.rev acc
        else begin
          let t, _, _ = Heap.pop_min h in
          assert (t >= last);
          drain t (t :: acc)
        end
      in
      let popped = drain min_int [] in
      List.length popped = List.length entries)

(* ---------- rng --------------------------------------------------------- *)

let prop_rng_bound =
  Q.Test.make ~name:"rng int stays in bounds" ~count:500
    Q.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* ---------- path -------------------------------------------------------- *)

let segment = Q.oneofl [ "a"; "b"; "cc"; "d1"; ".."; "."; "" ]

let raw_path =
  Q.map
    (fun (abs, segs) -> (if abs then "/" else "") ^ String.concat "/" segs)
    Q.(pair bool (list_of_size (Gen.int_range 1 6) segment))

let prop_path_clean =
  Q.Test.make ~name:"normalize yields clean components" ~count:500 raw_path
    (fun path ->
      Q.assume (path <> "");
      let comps = Hare_client.Path.normalize ~cwd:"/x/y" path in
      List.for_all (fun c -> c <> "" && c <> "." && c <> "..") comps)

let prop_path_idempotent =
  Q.Test.make ~name:"normalize idempotent" ~count:500 raw_path (fun path ->
      Q.assume (path <> "");
      let comps = Hare_client.Path.normalize ~cwd:"/x/y" path in
      let again =
        Hare_client.Path.normalize ~cwd:"/ignored"
          (Hare_client.Path.to_string comps)
      in
      again = comps)

(* ---------- dentry placement ------------------------------------------- *)

let ino_gen =
  Q.map
    (fun (s, i) -> { Types.server = s; ino = i + 1 })
    Q.(pair (int_bound 39) (int_bound 1000))

let prop_dentry_in_shard_set =
  Q.Test.make ~name:"dentry server within shard set" ~count:500
    Q.(triple ino_gen (int_range 1 40) string)
    (fun (dir, width, name) ->
      let nservers = 40 in
      let srv =
        Types.dentry_server ~dist:true ~width ~nservers ~dir ~name
      in
      let set = Types.shard_servers ~dist:true ~width ~nservers ~dir in
      List.mem srv set
      && List.length set = min width nservers
      && List.for_all (fun s -> s >= 0 && s < nservers) set)

let prop_dentry_deterministic =
  Q.Test.make ~name:"dentry placement deterministic" ~count:200
    Q.(pair ino_gen string)
    (fun (dir, name) ->
      let f () = Types.dentry_server ~dist:true ~width:40 ~nservers:40 ~dir ~name in
      f () = f ())

(* ---------- summary ----------------------------------------------------- *)

let prop_summary_order =
  Q.Test.make ~name:"summary min<=median<=max, avg in range" ~count:300
    Q.(list_of_size (Gen.int_range 1 30) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Hare_stats.Summary.of_list xs in
      s.Hare_stats.Summary.min <= s.Hare_stats.Summary.median
      && s.Hare_stats.Summary.median <= s.Hare_stats.Summary.max
      && s.Hare_stats.Summary.min <= s.Hare_stats.Summary.avg +. 1e-9
      && s.Hare_stats.Summary.avg <= s.Hare_stats.Summary.max +. 1e-9)

(* ---------- pcache vs bytes model --------------------------------------- *)

type mem_op = Mwrite of int * string | Mread of int * int

let mem_op_gen =
  let open Q.Gen in
  let data = string_size ~gen:(char_range 'a' 'z') (int_range 1 100) in
  oneof
    [
      map2 (fun off s -> Mwrite (off, s)) (int_range 0 3000) data;
      map2 (fun off len -> Mread (off, len)) (int_range 0 3000) (int_range 1 200);
    ]

let mem_ops = Q.make ~print:(fun l -> string_of_int (List.length l) ^ " ops")
    Q.Gen.(list_size (int_range 1 60) mem_op_gen)

let prop_pcache_read_your_writes =
  Q.Test.make ~name:"pcache matches byte-array model" ~count:100 mem_ops
    (fun ops ->
      let engine = Engine.create () in
      let dram = Hare_mem.Dram.create ~nblocks:2 in
      let core = Core_res.create engine ~id:0 ~socket:0 ~ctx_switch:0 in
      let cache =
        Hare_mem.Pcache.create dram ~core ~costs:Hare_config.Costs.default
          ~capacity_lines:16 (* tiny: forces eviction + refetch *)
      in
      let model = Bytes.make 4096 '\000' in
      let ok = ref true in
      ignore
        (Engine.spawn engine ~name:"t" (fun () ->
             List.iter
               (fun op ->
                 match op with
                 | Mwrite (off, s) ->
                     let len = min (String.length s) (4096 - off) in
                     if len > 0 then begin
                       let s = String.sub s 0 len in
                       Hare_mem.Pcache.write_string cache ~block:0 ~off s;
                       Bytes.blit_string s 0 model off len
                     end
                 | Mread (off, len) ->
                     let len = min len (4096 - off) in
                     if len > 0 then begin
                       let got =
                         Hare_mem.Pcache.read_string cache ~block:0 ~off ~len
                       in
                       let want = Bytes.sub_string model off len in
                       if got <> want then ok := false
                     end)
               ops));
      Engine.run engine;
      !ok)

(* ---------- close-to-open protocol -------------------------------------- *)

(* Random sequences of (write on core A, write-back, invalidate, read on
   core B): whenever the protocol's two actions — write-back after write,
   invalidate before read — are respected, core B must observe core A's
   latest data, for any interleaving of block touches. *)
let prop_close_to_open_protocol =
  Q.Test.make ~name:"close-to-open always yields latest data" ~count:150
    Q.(list_of_size (Gen.int_range 1 15) (pair (int_bound 3) small_printable_string))
    (fun writes ->
      Q.assume (writes <> []);
      let engine = Engine.create () in
      let dram = Hare_mem.Dram.create ~nblocks:4 in
      let costs = Hare_config.Costs.default in
      let writer_core = Core_res.create engine ~id:0 ~socket:0 ~ctx_switch:0 in
      let reader_core = Core_res.create engine ~id:1 ~socket:0 ~ctx_switch:0 in
      let writer =
        Hare_mem.Pcache.create dram ~core:writer_core ~costs ~capacity_lines:8
      in
      let reader =
        Hare_mem.Pcache.create dram ~core:reader_core ~costs ~capacity_lines:8
      in
      let ok = ref true in
      ignore
        (Engine.spawn engine ~name:"t" (fun () ->
             (* the reader caches stale copies of every block first *)
             for b = 0 to 3 do
               ignore (Hare_mem.Pcache.read_string reader ~block:b ~off:0 ~len:8)
             done;
             let latest = Array.make 4 "" in
             List.iter
               (fun (block, data) ->
                 let data = if data = "" then "x" else data in
                 let data = String.sub data 0 (min 32 (String.length data)) in
                 Hare_mem.Pcache.write_string writer ~block ~off:0 data;
                 latest.(block) <- data;
                 (* close: write back; open: invalidate *)
                 Hare_mem.Pcache.writeback_block writer block;
                 Hare_mem.Pcache.invalidate_block reader block;
                 let got =
                   Hare_mem.Pcache.read_string reader ~block ~off:0
                     ~len:(String.length data)
                 in
                 if got <> data then ok := false)
               writes;
             (* final re-check of every block written *)
             Array.iteri
               (fun b want ->
                 if want <> "" then begin
                   Hare_mem.Pcache.invalidate_block reader b;
                   let got =
                     Hare_mem.Pcache.read_string reader ~block:b ~off:0
                       ~len:(String.length want)
                   in
                   if got <> want then ok := false
                 end)
               latest));
      Engine.run engine;
      !ok)

(* ---------- pipe stream integrity --------------------------------------- *)

let prop_pipe_fifo =
  Q.Test.make ~name:"pipe preserves the byte stream" ~count:150
    Q.(pair
         (list_of_size (Gen.int_range 1 20)
            (string_gen_of_size (Gen.int_range 1 300) Gen.printable))
         (list_of_size (Gen.int_range 1 40) (int_range 1 400)))
    (fun (chunks, read_sizes) ->
      let pipe = Hare_server.Pipe_state.create ~capacity:512 in
      Hare_server.Pipe_state.add_reader pipe;
      Hare_server.Pipe_state.add_writer pipe;
      let received = Buffer.create 256 in
      let engine = Engine.create () in
      ignore
        (Engine.spawn engine ~name:"writer" (fun () ->
             List.iter
               (fun chunk ->
                 let done_ = Ivar.create () in
                 Hare_server.Pipe_state.write pipe chunk (Ivar.fill done_);
                 match Ivar.read done_ with
                 | Ok _ -> ()
                 | Error _ -> failwith "EPIPE")
               chunks;
             Hare_server.Pipe_state.close_writer pipe));
      ignore
        (Engine.spawn engine ~name:"reader" (fun () ->
             let eof = ref false in
             let sizes = ref read_sizes in
             while not !eof do
               let len =
                 match !sizes with
                 | s :: rest ->
                     sizes := rest @ [ s ];
                     s
                 | [] -> 64
               in
               let got = Ivar.create () in
               Hare_server.Pipe_state.read pipe ~len (Ivar.fill got);
               let data =
                 match Ivar.read got with
                 | Ok data -> data
                 | Error _ -> failwith "pipe read EIO"
               in
               if data = "" then eof := true else Buffer.add_string received data
             done;
             Hare_server.Pipe_state.close_reader pipe));
      Engine.run engine;
      Buffer.contents received = String.concat "" chunks)

(* ---------- blocklist invariants ---------------------------------------- *)

type bl_op = Balloc of int | Bfree_some | Bdonate of int

let bl_op_gen =
  let open Q.Gen in
  oneof
    [
      map (fun n -> Balloc n) (int_range 1 8);
      return Bfree_some;
      map (fun n -> Bdonate n) (int_range 1 8);
    ]

let bl_ops = Q.make ~print:(fun l -> string_of_int (List.length l) ^ " ops")
    Q.Gen.(list_size (int_range 1 80) bl_op_gen)

let prop_blocklist_no_duplicates =
  Q.Test.make ~name:"blocklist never double-allocates" ~count:200 bl_ops
    (fun ops ->
      let bl = Hare_server.Blocklist.create ~first:0 ~count:32 in
      let held = Hashtbl.create 32 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Balloc n -> (
              match Hare_server.Blocklist.alloc_many bl n with
              | None -> ()
              | Some blocks ->
                  Array.iter
                    (fun b ->
                      if Hashtbl.mem held b then ok := false
                      else Hashtbl.replace held b ())
                    blocks)
          | Bfree_some -> (
              match Hashtbl.fold (fun b () _ -> Some b) held None with
              | Some b ->
                  Hashtbl.remove held b;
                  Hare_server.Blocklist.free bl b
              | None -> ())
          | Bdonate n ->
              (* donated blocks leave this allocator entirely; re-adopt
                 them immediately to model a steal round trip *)
              let gone = Hare_server.Blocklist.donate bl n in
              Array.iter
                (fun b -> if Hashtbl.mem held b then ok := false)
                gone;
              Hare_server.Blocklist.adopt bl gone)
        ops;
      !ok)

(* ---------- differential tests against the model VFS -------------------- *)

module Model = Hare_explore.Model

let names = [| "a"; "b"; "c"; "d"; "e" |]

let dirs = [| "/"; "/d1"; "/d2"; "/d1/s" |]

(* The directories every sequence starts from. *)
let initial = [ "/d1"; "/d2"; "/d1/s" ]

(* One generated step: a model op (of model process 0), or one of two
   API variants the model does not tell apart. [Append] is one session
   through an O_APPEND descriptor, which also creates a missing file:
   the model sees an open with create, a read to the end, a write and a
   close, through a handle the generator never names. [Dist_mkdir]
   spreads the new directory's entries over every server, where
   [Op (Mkdir _)] keeps them on one. *)
type step = Op of Model.op | Append of string * string | Dist_mkdir of string

let step_str = function
  | Op op -> Model.op_to_string op
  | Append (p, d) -> Printf.sprintf "append(%s, %d bytes)" p (String.length d)
  | Dist_mkdir p -> Printf.sprintf "mkdir(%s, dist)" p

(* The generator's handles; [Append]'s session uses [slots]. *)
let slots = 3

(* The model's outcome of a step, and the model state after it. *)
let expect model step =
  let apply m op = Model.apply m ~proc:0 op in
  match step with
  | Op op -> apply model op
  | Dist_mkdir path -> apply model (Mkdir path)
  | Append (path, data) -> (
      let h = slots in
      match apply model (Open { h; path; create = true }) with
      | (Error _, _) as failed -> failed
      | Ok _, opened ->
          let _, at_end = apply opened (Read h) in
          let wrote, written = apply at_end (Write { h; data }) in
          (wrote, snd (apply written (Close h))))

(* What the generator knows of a sequence so far: the model state, the
   open handles with the paths they were opened at, and whether the one
   open handle has written. *)
type gen_state = { model : Model.t; live : (int * string) list; dirty : bool }

let advance st step =
  let outcome, model = expect st.model step in
  match (step, outcome) with
  | Op (Open { h; path; _ }), Ok _ ->
      { st with model; live = (h, path) :: st.live }
  | Op (Close h), Ok _ ->
      { model; live = List.remove_assoc h st.live; dirty = false }
  | Op (Write _), Ok _ -> { st with model; dirty = true }
  | _ -> { st with model }

(* One step that keeps the sequence inside close-to-open as one process
   sees it. Handles stay open across any other steps, unlink and rename
   of their paths included (a path op names an open handle's path as
   often as not). A handle writes only while it is the only one open,
   and once it has written no step opens or stats a path until it
   closes: the size a descriptor wrote reaches Hare's server only at
   close, so a second open of the file before then reads the old size.
   An append, a descriptor of its own, runs only while none is open. *)
let step_gen st =
  let open Q.Gen in
  let name = map (fun i -> names.(i)) (int_bound (Array.length names - 1)) in
  let dir = map (fun i -> dirs.(i)) (int_bound (Array.length dirs - 1)) in
  let path =
    let any = map2 (fun d n -> Filename.concat d n) dir name in
    if st.live = [] then any
    else oneof [ any; oneofl (List.map snd st.live) ]
  in
  let data = string_size ~gen:(char_range 'a' 'z') (int_range 1 2000) in
  (* Offsets inside the first block, across its end and past any file
     the sequence grows: overwrites, extensions and holes. *)
  let off = oneofl [ 0; 0; 700; 4000; 9000 ] in
  let free =
    List.init slots Fun.id
    |> List.filter (fun h -> not (List.mem_assoc h st.live))
  in
  let handle = oneofl (List.map fst st.live) in
  let only c choices = if c then choices else [] in
  frequency
    (List.concat
       [
         [
           (2, map (fun p -> Op (Unlink p)) path);
           (1, map (fun p -> Op (Mkdir p)) path);
           (1, map (fun p -> Dist_mkdir p) path);
           (1, map (fun p -> Op (Rmdir p)) path);
           (3, map2 (fun src dst -> Op (Rename { src; dst })) path path);
           (2, map (fun d -> Op (Readdir d)) dir);
         ];
         only ((not st.dirty) && free <> [])
           [
             ( 5,
               map2
                 (fun path create ->
                   Op (Open { h = List.hd free; path; create }))
                 path
                 (frequencyl [ (4, true); (1, false) ]) );
           ];
         only (not st.dirty) [ (2, map (fun p -> Op (Stat p)) path) ];
         only (st.live = []) [ (3, map2 (fun p d -> Append (p, d)) path data) ];
         only (st.live <> [])
           [
             (4, map (fun h -> Op (Read h)) handle);
             (3, map2 (fun h off -> Op (Seek { h; off })) handle off);
             (2, map (fun h -> Op (Close h)) handle);
           ];
         (match st.live with
         | [ (h, _) ] -> [ (5, map (fun data -> Op (Write { h; data })) data) ]
         | _ -> []);
       ])

let fs_ops =
  let open Q.Gen in
  let rec steps n st =
    if n = 0 then return []
    else
      step_gen st >>= fun step ->
      map (fun rest -> step :: rest) (steps (n - 1) (advance st step))
  in
  let start = { model = Model.init initial; live = []; dirty = false } in
  Q.make
    ~print:(fun ops -> String.concat "; " (List.map step_str ops))
    (int_range 1 50 >>= fun n -> steps n start)

(* One step through the syscall API of any world, with the generator's
   handles bound to the world's descriptors in [fds] (a handle whose
   open failed in this world is EBADF here). *)
let exec_on_api (api : 'p Hare_api.Api.t) p fds step =
  let module Api = Hare_api.Api in
  let fd h =
    match Hashtbl.find_opt fds h with
    | Some fd -> fd
    | None -> raise (Errno.Error (Errno.EBADF, "no such handle"))
  in
  try
    Ok
      (match step with
      | Append (path, data) ->
          let fd = api.Api.openf p path Types.flags_a in
          Api.write_all api p fd data;
          api.Api.close p fd;
          Model.Int (String.length data)
      | Dist_mkdir path ->
          api.Api.mkdir p ~dist:true path;
          Model.Unit
      | Op (Open { h; path; create }) ->
          let flags =
            if create then { Types.flags_rw with creat = true }
            else Types.flags_rw
          in
          Hashtbl.replace fds h (api.Api.openf p path flags);
          Model.Fd h
      | Op (Close h) ->
          api.Api.close p (fd h);
          Hashtbl.remove fds h;
          Model.Unit
      | Op (Write { h; data }) ->
          Api.write_all api p (fd h) data;
          Model.Int (String.length data)
      | Op (Read h) -> Model.Data (Api.read_to_eof api p (fd h))
      | Op (Seek { h; off }) ->
          Model.Int (api.Api.lseek p (fd h) ~pos:off Types.Seek_set)
      | Op (Stat path) ->
          let a = api.Api.stat p path in
          if a.Types.a_ftype = Types.Dir then Model.Is_dir
          else Model.Int a.Types.a_size
      | Op (Unlink path) ->
          api.Api.unlink p path;
          Unit
      | Op (Mkdir path) ->
          api.Api.mkdir p ~dist:false path;
          Unit
      | Op (Rmdir path) ->
          api.Api.rmdir p path;
          Unit
      | Op (Rename { src; dst }) ->
          api.Api.rename p src dst;
          Unit
      | Op (Readdir d) ->
          Names
            (api.Api.readdir p d |> List.map fst |> List.sort String.compare))
  with Errno.Error (e, _) -> Error e

(* The test's tolerance: an error must meet an error, but Hare's rename
   over an existing directory and rmdir-vs-rename races report slightly
   different codes in rare corners, so any errno matches any other. *)
let same_result (a : (Model.value, Errno.t) result) b =
  match (a, b) with
  | Ok x, Ok y -> x = y
  | Error _, Error _ -> true
  | _ -> false

(* Run an op sequence against a world and the model, collecting any
   divergences. *)
let check_against_model ~boot ~api ~spawn_init ~run ops =
  let w = boot () in
  let api = api w in
  let diverged = ref [] in
  let _init =
    spawn_init w (fun p ->
        List.iter (fun d -> api.Hare_api.Api.mkdir p ~dist:false d) initial;
        let fds = Hashtbl.create slots in
        ignore
          (List.fold_left
             (fun model step ->
               let want, next = expect model step in
               let got = exec_on_api api p fds step in
               if not (same_result want got) then
                 diverged :=
                   Printf.sprintf "%s: want %s, got %s" (step_str step)
                     (Model.result_to_string want)
                     (Model.result_to_string got)
                   :: !diverged;
               next)
             (Model.init initial) ops);
        0)
  in
  run w;
  if !diverged <> [] then
    Q.Test.fail_reportf "diverged from model: %s"
      (String.concat "; " (List.rev !diverged))
  else true

let hare_matches name config =
  Q.Test.make ~name:(name ^ " matches the reference model") ~count:60 fs_ops
    (check_against_model
       ~boot:(fun () -> Test_util.Machine.boot config)
       ~api:Hare_experiments.World.Hare_w.api
       ~spawn_init:(fun w body ->
         fst (Test_util.Machine.spawn_init w ~name:"prop" (fun p _ -> body p)))
       ~run:Test_util.Machine.run)

let prop_fs_matches_model =
  hare_matches "hare" (Test_util.small_config ~ncores:3 ())

let prop_knobs_match_model =
  hare_matches "hare (knobs open)"
    {
      (Test_util.small_config ~ncores:3 ()) with
      Hare_config.Config.rpc_window = 8;
      batch_max = 8;
      alloc_extent = 8;
    }

let prop_sharded_matches_model =
  hare_matches "hare (sharded)"
    (Test_util.small_config ~ncores:4
       ~placement:(Hare_config.Config.Sharded { servers = 2; vnodes = 32 })
       ())

let prop_linux_matches_model =
  Q.Test.make ~name:"linux baseline matches the reference model" ~count:60
    fs_ops
    (check_against_model
       ~boot:(fun () ->
         Hare_baseline.Linux_world.boot (Test_util.small_config ~ncores:3 ()))
       ~api:Hare_baseline.Linux_world.api
       ~spawn_init:(fun w body ->
         fst (Hare_baseline.Linux_world.spawn_init w ~name:"prop" body))
       ~run:Hare_baseline.Linux_world.run)

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_heap_sorted;
          prop_rng_bound;
          prop_path_clean;
          prop_path_idempotent;
          prop_dentry_in_shard_set;
          prop_dentry_deterministic;
          prop_summary_order;
          prop_pcache_read_your_writes;
          prop_close_to_open_protocol;
          prop_pipe_fifo;
          prop_blocklist_no_duplicates;
          prop_fs_matches_model;
          prop_knobs_match_model;
          prop_sharded_matches_model;
          prop_linux_matches_model;
        ] );
  ]
