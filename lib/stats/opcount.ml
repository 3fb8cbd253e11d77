module Tbl = Hare_sim.Tbl.Str

type t = int ref Tbl.t

let create () = Tbl.create 32

let incr ?(by = 1) t name =
  match Tbl.find_opt t name with
  | Some r -> r := !r + by
  | None -> Tbl.replace t name (ref by)

let get t name = match Tbl.find_opt t name with Some r -> !r | None -> 0

let total t = Tbl.fold (fun _ r acc -> acc + !r) t 0

let to_list t =
  Tbl.fold (fun name r acc -> (name, !r) :: acc) t []
  |> List.sort (fun (n1, c1) (n2, c2) ->
         match compare c2 c1 with 0 -> compare n1 n2 | c -> c)

let breakdown t =
  let sum = total t in
  if sum = 0 then []
  else
    to_list t
    |> List.map (fun (name, c) -> (name, float_of_int c /. float_of_int sum))

let merge ~into src =
  Tbl.iter (fun name r -> incr ~by:!r into name) src

let snapshot t =
  let copy = create () in
  merge ~into:copy t;
  copy

let diff ~since t =
  let out = create () in
  Tbl.iter
    (fun name r ->
      let before = get since name in
      if !r - before > 0 then incr ~by:(!r - before) out name)
    t;
  out

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun (name, c) -> Format.fprintf ppf "%-14s %8d@," name c)
    (to_list t);
  Format.pp_close_box ppf ()
