(* Names are interned once per process: an id stands for the same name
   in every counter, so a counter is an int array indexed by id and a
   hot path bumps a slot instead of hashing a string. *)
module Tbl = Hare_sim.Tbl.Str

type id = int

let ids : id Tbl.t = Tbl.create 64

let names = ref [||] (* id -> name *)

let intern name =
  match Tbl.find_opt ids name with
  | Some id -> id
  | None ->
      let id = Tbl.length ids in
      if id = Array.length !names then begin
        let grown = Array.make (Int.max 16 (2 * id)) "" in
        Array.blit !names 0 grown 0 id;
        names := grown
      end;
      !names.(id) <- name;
      Tbl.replace ids name id;
      id

let name id = !names.(id)

(* [counts.(id)] for every id below its length; zero slots are names
   this counter never saw. *)
type t = { mutable counts : int array }

let create () = { counts = [||] }

let add t id by =
  let n = Array.length t.counts in
  if id >= n then begin
    let grown = Array.make (Int.max (id + 1) (Int.max 16 (2 * n))) 0 in
    Array.blit t.counts 0 grown 0 n;
    t.counts <- grown
  end;
  Array.unsafe_set t.counts id (Array.unsafe_get t.counts id + by)

let bump t id =
  if id < Array.length t.counts then
    Array.unsafe_set t.counts id (Array.unsafe_get t.counts id + 1)
  else add t id 1

let incr ?(by = 1) t name = add t (intern name) by

let count t id = if id < Array.length t.counts then t.counts.(id) else 0

let get t name =
  match Tbl.find_opt ids name with Some id -> count t id | None -> 0

let total t = Array.fold_left ( + ) 0 t.counts

(* Every counted name with its count, in id order. *)
let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun id c -> if c <> 0 then acc := f id c !acc) t.counts;
  !acc

let to_list t =
  fold (fun id c acc -> (name id, c) :: acc) t []
  |> List.sort (fun (n1, c1) (n2, c2) ->
         match Int.compare c2 c1 with 0 -> String.compare n1 n2 | c -> c)

let breakdown t =
  let sum = total t in
  if sum = 0 then []
  else
    to_list t
    |> List.map (fun (name, c) -> (name, float_of_int c /. float_of_int sum))

let merge ~into src = ignore (fold (fun id c () -> add into id c) src ())

let snapshot t = { counts = Array.copy t.counts }

let diff ~since t =
  let out = create () in
  ignore
    (fold
       (fun id c () ->
         let d = c - count since id in
         if d > 0 then add out id d)
       t ());
  out

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun (name, c) -> Format.fprintf ppf "%-14s %8d@," name c)
    (to_list t);
  Format.pp_close_box ppf ()
