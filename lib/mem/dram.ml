type t = {
  nblocks : int;
  pages : Bytes.t option array;
  (* Observer bus + counter track; DRAM itself has no engine, so the
     machine hands over the engine's bus at boot. *)
  mutable obs : Hare_sim.Obs.t;
  mutable track : int;
  mutable line_reads : int;
  mutable line_writes : int;
}

let create ~nblocks =
  if nblocks <= 0 then invalid_arg "Dram.create: nblocks must be positive";
  {
    nblocks;
    pages = Array.make nblocks None;
    obs = Hare_sim.Obs.create ();
    track = 0;
    line_reads = 0;
    line_writes = 0;
  }

let observe t obs ~track =
  t.obs <- obs;
  t.track <- track

(* Publish the cumulative traffic counters every 64th line move so the
   DRAM track stays readable (and the trace ring is not flooded). *)
let sample_period = 64

let counter t name value =
  if Hare_sim.Obs.(on t.obs marks) && value mod sample_period = 0 then
    Hare_sim.Obs.emit t.obs
      (Counter { name; track = t.track; ts = Hare_sim.Obs.now t.obs; value })

let note_read t =
  t.line_reads <- t.line_reads + 1;
  counter t "dram-reads" t.line_reads

let note_write t =
  t.line_writes <- t.line_writes + 1;
  counter t "dram-writes" t.line_writes

let nblocks t = t.nblocks

let check_line t ~block ~line =
  if block < 0 || block >= t.nblocks then
    invalid_arg (Printf.sprintf "Dram: block %d out of range" block);
  if line < 0 || line >= Layout.lines_per_block then
    invalid_arg (Printf.sprintf "Dram: line %d out of range" line)

(* Pages materialize on first write; unwritten blocks read as zeroes. *)
let page t block =
  match t.pages.(block) with
  | Some p -> p
  | None ->
      let p = Bytes.make Layout.block_size '\000' in
      t.pages.(block) <- Some p;
      p

let read_line t ~block ~line ~dst ~dst_off =
  check_line t ~block ~line;
  note_read t;
  match t.pages.(block) with
  | None -> Bytes.fill dst dst_off Layout.line_size '\000'
  | Some p -> Bytes.blit p (line * Layout.line_size) dst dst_off Layout.line_size

let write_line t ~block ~line ~src ~src_off =
  check_line t ~block ~line;
  note_write t;
  Bytes.blit src src_off (page t block) (line * Layout.line_size)
    Layout.line_size

let zero_block t ~block =
  check_line t ~block ~line:0;
  match t.pages.(block) with
  | None -> ()
  | Some p -> Bytes.fill p 0 Layout.block_size '\000'

let zero_range t ~block ~off ~len =
  if off < 0 || len < 0 || off + len > Layout.block_size then
    invalid_arg "Dram.zero_range: range escapes block";
  check_line t ~block ~line:0;
  match t.pages.(block) with
  | None -> ()
  | Some p -> Bytes.fill p off len '\000'

let unsafe_read t ~block ~off ~len =
  if off < 0 || len < 0 || off + len > Layout.block_size then
    invalid_arg "Dram.unsafe_read: range escapes block";
  check_line t ~block ~line:0;
  match t.pages.(block) with
  | None -> String.make len '\000'
  | Some p -> Bytes.sub_string p off len
