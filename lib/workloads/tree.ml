module Api = Hare_api.Api
open Hare_proto

type params = {
  top : int;
  levels : int;
  dirs_per_level : int;
  files_per_level : int;
  file_bytes : int;
  dist : bool;
}

let dense ~scale =
  {
    top = 2;
    levels = 3;
    dirs_per_level = 5;
    files_per_level = 20 * scale;
    file_bytes = 1024;
    dist = true;
  }

let sparse ~scale =
  {
    top = 1;
    levels = 6 + scale;
    dirs_per_level = 2;
    files_per_level = 1;
    file_bytes = 256;
    dist = false;
  }

let count params =
  (* a top subtree has one directory per node of a [dirs_per_level]-ary
     tree with [levels] levels: sum of fanout^l for l in 0..levels-1 *)
  let rec sum l acc pow =
    if l = params.levels then acc
    else sum (l + 1) (acc + pow) (pow * params.dirs_per_level)
  in
  let dirs_per_top = sum 0 0 1 in
  let dirs = params.top * dirs_per_top in
  (dirs, dirs * params.files_per_level)

let dir_paths params ~root =
  let acc = ref [] in
  let rec go dir depth level =
    acc := (depth, dir) :: !acc;
    if level < params.levels then
      for d = 0 to params.dirs_per_level - 1 do
        go (Printf.sprintf "%s/d%d" dir d) (depth + 1) (level + 1)
      done
  in
  for t = 0 to params.top - 1 do
    go (Printf.sprintf "%s/top%d" root t) 1 1
  done;
  List.rev !acc

let file_paths params ~dir =
  List.init params.files_per_level (fun j -> Printf.sprintf "%s/f%04d" dir j)

let file_data n seed =
  String.init n (fun i -> Char.chr (33 + ((i + (seed * 131)) mod 94)))

let owner_of_path path ~parts = Hashtbl.hash path land 0x3FFFFFFF mod parts

let mk_file (api : 'p Api.t) p params dir j =
  let path = Printf.sprintf "%s/f%04d" dir j in
  let fd = api.Api.openf p path Types.flags_w in
  ignore (api.Api.write p fd (file_data params.file_bytes j));
  api.Api.close p fd

let build_dirs (api : 'p Api.t) p ~root params =
  List.iter
    (fun ((_ : int), d) -> api.Api.mkdir p ~dist:params.dist d)
    (dir_paths params ~root)

let fill_files (api : 'p Api.t) p ~root params ~part ~parts =
  List.iter
    (fun ((_ : int), d) ->
      if owner_of_path d ~parts = part then
        for j = 0 to params.files_per_level - 1 do
          mk_file api p params d j
        done)
    (dir_paths params ~root)

let walk (api : 'p Api.t) p ~root =
  let dirs = ref 0 and files = ref 0 in
  let rec go dir =
    incr dirs;
    let entries = api.Api.readdir p dir in
    List.iter
      (fun (name, ftype) ->
        let path = dir ^ "/" ^ name in
        ignore (api.Api.stat p path);
        match (ftype : Types.ftype) with
        | Types.Dir -> go path
        | Types.Reg | Types.Fifo -> incr files)
      entries
  in
  go root;
  (!dirs, !files)

