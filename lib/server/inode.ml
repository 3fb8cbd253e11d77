type t = {
  lid : int;
  home : int;
  ftype : Hare_proto.Types.ftype;
  dist : bool;
  mutable size : int;
  mutable nlink : int;
  mutable blocks : int array;
  mutable open_tokens : int;
  mutable unlinked : bool;
  mutable orphans : int array;
  pipe : Pipe_state.t option;
}

let make ~lid ~home ~ftype ~dist ~pipe =
  {
    lid;
    home;
    ftype;
    dist;
    size = 0;
    nlink = 1;
    blocks = [||];
    open_tokens = 0;
    unlinked = false;
    orphans = [||];
    pipe;
  }

let file ~lid ~home =
  make ~lid ~home ~ftype:Hare_proto.Types.Reg ~dist:false ~pipe:None

let dir ~lid ~home ~dist =
  make ~lid ~home ~ftype:Hare_proto.Types.Dir ~dist ~pipe:None

let fifo ~lid ~home ~capacity =
  make ~lid ~home ~ftype:Hare_proto.Types.Fifo ~dist:false
    ~pipe:(Some (Pipe_state.create ~capacity))

let cut t ~keep =
  let have = Array.length t.blocks in
  if keep >= have then [||]
  else begin
    let rest = Array.sub t.blocks keep (have - keep) in
    t.blocks <- Array.sub t.blocks 0 keep;
    rest
  end

let trim_lease t =
  if t.ftype = Hare_proto.Types.Reg then cut t ~keep:(Hare_mem.Layout.blocks_for t.size)
  else [||]

let attr t =
  Hare_proto.Types.
    {
      a_ino = { server = t.home; ino = t.lid };
      a_ftype = t.ftype;
      a_size = t.size;
      a_nlink = t.nlink;
      a_dist = t.dist;
    }
