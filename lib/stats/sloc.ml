let count_file path =
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let n = ref 0 in
      (try
         while true do
           if String.trim (input_line ic) <> "" then incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n

let is_source name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let rec sources dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.sort compare entries;
      List.concat_map
        (fun name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then sources path
          else if is_source name then [ path ]
          else [])
        (Array.to_list entries)

let count_tree dir =
  List.fold_left (fun acc path -> acc + count_file path) 0 (sources dir)

let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())
