(* Seeded workload generation. Everything the simulated programs do is
   decided here, on the host, before the machine boots: a workload is a
   set of per-worker op scripts for three phases (setup, the timed
   region, verification). The simulator only interprets scripts, so the
   same --seed always gives the same simulated run, and later changes to
   lib/workloads cannot move the benchmark. *)

(* splitmix64, kept local so the inputs depend on nothing in lib/. *)
module Prng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

  let range t lo hi = lo + int t (hi - lo + 1)

  (* true with probability [pct]/100 *)
  let chance t pct = int t 100 < pct

  let split t = { s = next t }

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done

  (* [n] choices in shuffled order, choice [k] exactly [pcts.(k)]% of
     them (the last takes the rounding): every worker then carries the
     same mix, so no worker straggles at the end of the timed region. *)
  let deck t n pcts =
    let a = Array.make n (Array.length pcts - 1) in
    let pos = ref 0 in
    Array.iteri
      (fun k pct ->
        for _ = 1 to n * pct / 100 do
          if !pos < n then a.(!pos) <- k;
          incr pos
        done)
      pcts;
    shuffle t a;
    a
end

let block = 4096

(* File contents: block-sized windows of a fixed pseudo-random pool,
   chosen by a tag, so a body is never stored, only regenerated where it
   is checked. *)
let pool_len = 1 lsl 16

let pool =
  let r = Prng.create 0x5eed in
  String.init pool_len (fun _ -> Char.chr (33 + Prng.int r 90))

let body ~tag ~len =
  let b = Bytes.create len in
  let rec fill pos k =
    if pos < len then begin
      let n = min block (len - pos) in
      let off = ((tag * 7919) + (k * 104729)) mod (pool_len - n + 1) in
      Bytes.blit_string pool off b pos n;
      fill (pos + n) (k + 1)
    end
  in
  fill 0 0;
  Bytes.unsafe_to_string b

type op =
  | Mkdir of string  (** a distributed directory *)
  | Create of { path : string; len : int; tag : int }
      (** open (create), write the body, close *)
  | Unlink of string
  | Rename of { src : string; dst : string }
  | Deliver of { tmp : string; dst : string; len : int; tag : int; helper : bool }
      (** create tmp, write, fsync, close, rename into place; [helper]
          runs it in a spawned helper process the worker waits for *)
  | Pickup of { path : string; len : int }
      (** open, read the body, close, unlink *)
  | Stat of string
  | Probe of string
      (** stat of a message its owner may already have picked up *)
  | Walk of string  (** readdir, then stat every entry it returned *)
  | Read_file of { path : string; len : int }  (** open, read, close *)
  | Open_slot of { slot : int; path : string; write : bool }
  | Write_slot of { slot : int; tag : int }  (** one sequential block *)
  | Seek_slot of { slot : int; off : int }
  | Read_at of { slot : int; off : int }  (** lseek + one block read *)
  | Close_slot of int
  | Check_file of { path : string; expect : unit -> string }
      (** read the whole file back and compare *)
  | Check_dir of { path : string; names : string list }
      (** readdir must list exactly these names *)

type t = {
  workers : int;
  top : (string * bool) list;  (** directories init makes first (path, dist) *)
  setup : op array array;  (** per worker; populates the namespace *)
  work : op array array;  (** per worker; the timed region *)
  verify : op array array;  (** per worker; the output checks *)
  walk_expect : (int * int) array;
      (** per worker: (directory, file) entries its [Walk]s must see *)
}

(* ---- mail: a shared, distributed maildir spool ------------------------ *)

let mail ~seed ~workers ~deliveries ~aged =
  let r = Prng.create seed in
  let msg_len r = Prng.range r 1024 4096 in
  (* Pre-aged spool: half of each worker's messages stay forever (anyone
     may stat them), the other half are the owner's to pick up. *)
  let keep = Array.make_matrix workers (aged / 2) "" in
  let pending = Array.make workers [] in
  let setup =
    Array.init workers (fun w ->
        Array.init aged (fun i ->
            let path = Printf.sprintf "/mail/new/a%d-%d" w i in
            let len = msg_len r and tag = Prng.int r 1_000_000 in
            if i < aged / 2 then keep.(w).(i) <- path
            else pending.(w) <- (path, len, tag) :: pending.(w);
            Create { path; len; tag }))
  in
  let pickable = Array.map (fun l -> Array.of_list (List.map (fun (p, _, _) -> p) l)) pending in
  let work =
    Array.init workers (fun w ->
        let r = Prng.split r in
        let ops = ref [] in
        (* messages this worker knows are in new/ and may pick up *)
        let avail = ref (Array.of_list pending.(w)) in
        let navail = ref (Array.length !avail) in
        let add m =
          if !navail = Array.length !avail then
            avail := Array.append !avail (Array.make (max 16 !navail) m);
          !avail.(!navail) <- m;
          incr navail
        in
        let take () =
          let j = Prng.int r !navail in
          let m = !avail.(j) in
          decr navail;
          !avail.(j) <- !avail.(!navail);
          m
        in
        let pickups = Prng.deck r deliveries [| 30; 70 |]
        and stats = Prng.deck r deliveries [| 30; 30; 40 |] in
        for i = 0 to deliveries - 1 do
          let len = msg_len r and tag = Prng.int r 1_000_000 in
          let base = Printf.sprintf "m%d-%d" w i in
          ops :=
            Deliver
              {
                tmp = "/mail/tmp/" ^ base;
                dst = "/mail/new/" ^ base;
                len;
                tag;
                helper = i mod 16 = 15;
              }
            :: !ops;
          add ("/mail/new/" ^ base, len, tag);
          if pickups.(i) = 0 then begin
            let path, len, _ = take () in
            ops := Pickup { path; len } :: !ops
          end;
          let v = Prng.int r workers in
          if stats.(i) = 0 then ops := Stat keep.(v).(Prng.int r (aged / 2)) :: !ops
          else if stats.(i) = 1 then begin
            (* another worker's message: its pickup invalidates the
               entry this lookup cached *)
            let v = (w + 1 + Prng.int r (workers - 1)) mod workers in
            ops := Probe pickable.(v).(Prng.int r (Array.length pickable.(v))) :: !ops
          end
        done;
        pending.(w) <- Array.to_list (Array.sub !avail 0 !navail);
        Array.of_list (List.rev !ops))
  in
  let expect_of (path, len, tag) =
    Check_file { path; expect = (fun () -> body ~tag ~len) }
  in
  let keep_tags = Hashtbl.create 1024 in
  Array.iter
    (Array.iter (function
      | Create { path; len; tag } -> Hashtbl.replace keep_tags path (len, tag)
      | _ -> ()))
    setup;
  let verify =
    Array.init workers (fun w ->
        let kept_checks =
          Array.to_list keep.(w)
          |> List.map (fun path ->
                 let len, tag = Hashtbl.find keep_tags path in
                 expect_of (path, len, tag))
        in
        let own = List.map expect_of pending.(w) in
        let dirs =
          if w = 0 then
            let names =
              List.concat_map
                (fun w ->
                  Array.to_list keep.(w) @ List.map (fun (p, _, _) -> p) pending.(w))
                (List.init workers Fun.id)
              |> List.map Filename.basename
            in
            [ Check_dir { path = "/mail/new"; names }; Check_dir { path = "/mail/tmp"; names = [] } ]
          else []
        in
        Array.of_list (dirs @ kept_checks @ own))
  in
  {
    workers;
    top = [ ("/mail", false); ("/mail/tmp", true); ("/mail/new", true) ];
    setup;
    work;
    verify;
    walk_expect = Array.make workers (0, 0);
  }

(* ---- tree_walk: an aged tree of distributed directories --------------- *)

type node = { dir : string; files : (string * int * int) list; subdirs : node list }

(* Every seed gives the same number of directories and files (so runs
   of different seeds do the same amount of work); the seed decides the
   shape, the file sizes and which files are read. *)
let tree_walk ~seed ~workers ~subtrees ~dirs_per ~files_per ~reads =
  let r = Prng.create seed in
  let grow top =
    (* a random tree of [dirs_per] directories, at most four deep *)
    let dirs = Array.make dirs_per (top, 0, []) in
    for k = 1 to dirs_per - 1 do
      let rec parent () =
        let i = Prng.int r k in
        let _, depth, _ = dirs.(i) in
        if depth < 3 then i else parent ()
      in
      let i = parent () in
      let path, depth, kids = dirs.(i) in
      let child = Printf.sprintf "%s/d%d" path (List.length kids) in
      dirs.(i) <- (path, depth, k :: kids);
      dirs.(k) <- (child, depth + 1, [])
    done;
    let files = Array.make dirs_per [] in
    for f = 0 to files_per - 1 do
      let i = Prng.int r dirs_per in
      let path, _, _ = dirs.(i) in
      files.(i) <-
        (Printf.sprintf "%s/f%d" path f, Prng.range r 256 6144, Prng.int r 1_000_000)
        :: files.(i)
    done;
    let rec node i =
      let path, _, kids = dirs.(i) in
      { dir = path; files = List.rev files.(i); subdirs = List.rev_map node kids }
    in
    node 0
  in
  let tops = Array.init subtrees (fun i -> grow (Printf.sprintf "/tree/t%d" i)) in
  (* Entries a full walk sees: every subtree root under /tree, plus each
     directory's own subdirectories and files. *)
  let rec count (d, f) n =
    List.fold_left count (d + List.length n.subdirs, f + List.length n.files) n.subdirs
  in
  let ndirs, nfiles = Array.fold_left count (subtrees, 0) tops in
  (* Setup: worker w builds subtrees w, w + workers, ...; aging creates
     half of the files under a temporary name and renames them into
     place, and leaves a hole beside every file: a scratch file made and
     deleted again. *)
  let setup =
    Array.init workers (fun w ->
        let r = Prng.split r in
        let ops = ref [] in
        let rec build n =
          ops := Mkdir n.dir :: !ops;
          List.iter
            (fun (path, len, tag) ->
              let scratch = path ^ ".old" in
              ops := Create { path = scratch; len = 128; tag } :: !ops;
              if Prng.chance r 50 then begin
                ops := Create { path = path ^ ".tmp"; len; tag } :: !ops;
                ops := Rename { src = path ^ ".tmp"; dst = path } :: !ops
              end
              else ops := Create { path; len; tag } :: !ops;
              ops := Unlink scratch :: !ops)
            n.files;
          List.iter build n.subdirs
        in
        Array.iteri (fun i t -> if i mod workers = w then build t) tops;
        Array.of_list (List.rev !ops))
  in
  let all_files =
    let rec files n = List.map (fun (p, _, _) -> p) n.files @ List.concat_map files n.subdirs in
    Array.of_list (List.concat_map files (Array.to_list tops))
  in
  let work =
    Array.init workers (fun _ ->
        let r = Prng.split r in
        Prng.shuffle r all_files;
        let read = Hashtbl.create reads in
        Array.iteri (fun i p -> if i < reads then Hashtbl.replace read p ()) all_files;
        let ops = ref [ Walk "/tree" ] in
        let rec walk n =
          ops := Walk n.dir :: !ops;
          List.iter
            (fun (path, len, _) ->
              if Hashtbl.mem read path then ops := Read_file { path; len } :: !ops)
            n.files;
          let subs = Array.of_list n.subdirs in
          Prng.shuffle r subs;
          Array.iter walk subs
        in
        let order = Array.copy tops in
        Prng.shuffle r order;
        Array.iter walk order;
        Array.of_list (List.rev !ops))
  in
  {
    workers;
    top = [ ("/tree", true) ];
    setup;
    work;
    verify = Array.make workers [||];
    walk_expect = Array.make workers (ndirs, nfiles);
  }

(* ---- data_rw: per-worker files larger than the private cache ---------- *)

let data_rw ~seed ~workers ~files ~file_blocks ~shared ~shared_blocks ~steps =
  let r = Prng.create seed in
  let own w f = Printf.sprintf "/data/w%d/f%d" w f in
  let pub w f = Printf.sprintf "/data/w%d/s%d" w f in
  let init_tag w f = (w * 64) + f in
  let file_len = file_blocks * block and shared_len = shared_blocks * block in
  let setup =
    Array.init workers (fun w ->
        Array.of_list
          ((Mkdir (Printf.sprintf "/data/w%d" w)
           :: List.init files (fun f ->
                  Create { path = own w f; len = file_len; tag = init_tag w f }))
          @ List.init shared (fun f ->
                Create { path = pub w f; len = shared_len; tag = init_tag w (32 + f) })))
  in
  (* Host-side model of every write the scripts make, per own file:
     (block index, tag) in program order. *)
  let writes = Array.init workers (fun _ -> Array.make files []) in
  let work =
    Array.init workers (fun w ->
        let r = Prng.split r in
        let cursor = Array.make files 0 in
        let ops = ref [] in
        for f = 0 to files - 1 do
          (* slot f writes sequentially, slot files + f reads at random *)
          ops := Open_slot { slot = f; path = own w f; write = true } :: !ops;
          ops := Open_slot { slot = files + f; path = own w f; write = false } :: !ops
        done;
        Array.iter
          (fun kind ->
            if kind = 0 then begin
              let f = Prng.int r files in
              if cursor.(f) = file_blocks then begin
                cursor.(f) <- 0;
                ops := Seek_slot { slot = f; off = 0 } :: !ops
              end;
              let tag = Prng.int r 1_000_000 in
              writes.(w).(f) <- (cursor.(f), tag) :: writes.(w).(f);
              cursor.(f) <- cursor.(f) + 1;
              ops := Write_slot { slot = f; tag } :: !ops
            end
            else if kind = 1 then begin
              (* 64-byte aligned, so most reads span two blocks *)
              let f = Prng.int r files in
              let off = Prng.int r (((file_blocks - 1) * block / 64) + 1) * 64 in
              ops := Read_at { slot = files + f; off } :: !ops
            end
            else begin
              let v = (w + 1 + Prng.int r (workers - 1)) mod workers in
              ops := Read_file { path = pub v (Prng.int r shared); len = shared_len } :: !ops
            end)
          (Prng.deck r steps [| 50; 40; 10 |]);
        for f = 0 to (2 * files) - 1 do
          ops := Close_slot f :: !ops
        done;
        Array.of_list (List.rev !ops))
  in
  let expect w f () =
    let b = Bytes.of_string (body ~tag:(init_tag w f) ~len:file_len) in
    List.iter
      (fun (blk, tag) -> Bytes.blit_string (body ~tag ~len:block) 0 b (blk * block) block)
      (List.rev writes.(w).(f));
    Bytes.unsafe_to_string b
  in
  let verify =
    Array.init workers (fun w ->
        Array.of_list
          (List.init files (fun f -> Check_file { path = own w f; expect = expect w f })
          @ List.init shared (fun f ->
                let tag = init_tag w (32 + f) in
                Check_file { path = pub w f; expect = (fun () -> body ~tag ~len:shared_len) })))
  in
  {
    workers;
    top = [ ("/data", true) ];
    setup;
    work;
    verify;
    walk_expect = Array.make workers (0, 0);
  }
