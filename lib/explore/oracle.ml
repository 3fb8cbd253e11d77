(* Model-VFS linearizability checker with close-to-open real-time edges.
   See oracle.mli for the contract. Host-side and pure: runs after the
   simulation finished, on the recorded history only. *)

type op =
  | Open of { path : string; create : bool }
  | Close of { h : int }
  | Write of { h : int; data : string }
  | Read of { h : int }
  | Stat of { path : string }
  | Unlink of { path : string }
  | Mkdir of { path : string }

type result =
  | Ok_unit
  | Ok_handle of int
  | Ok_int of int
  | Ok_data of string
  | Err of Hare_proto.Errno.t

type event = {
  e_client : int;
  e_op : op;
  e_result : result;
  e_inv : int64;
  e_res : int64;
}

let op_str = function
  | Open { path; create } ->
      Printf.sprintf "open(%s%s)" path (if create then ", create" else "")
  | Close { h } -> Printf.sprintf "close(h%d)" h
  | Write { h; data } -> Printf.sprintf "write(h%d, %d bytes)" h (String.length data)
  | Read { h } -> Printf.sprintf "read(h%d)" h
  | Stat { path } -> Printf.sprintf "stat(%s)" path
  | Unlink { path } -> Printf.sprintf "unlink(%s)" path
  | Mkdir { path } -> Printf.sprintf "mkdir(%s)" path

let result_str = function
  | Ok_unit -> "ok"
  | Ok_handle h -> Printf.sprintf "h%d" h
  | Ok_int n -> string_of_int n
  | Ok_data d -> Printf.sprintf "%d bytes" (String.length d)
  | Err e -> Hare_proto.Errno.to_string e

let pp_event ppf e =
  Format.fprintf ppf "client %d: %s -> %s [%Ld..%Ld]" e.e_client
    (op_str e.e_op) (result_str e.e_result) e.e_inv e.e_res

(* Release completes visibility; acquire must observe every release that
   finished (in real time) before it was invoked. *)
let is_release = function
  | Close _ | Unlink _ | Mkdir _ -> true
  | Open _ | Write _ | Read _ | Stat _ -> false

let is_acquire = function
  | Open _ | Stat _ -> true
  | Close _ | Write _ | Read _ | Unlink _ | Mkdir _ -> false

(* --- handles over the model VFS ------------------------------------- *)

(* Immutable so DFS backtracking is free. Histories hold a handful of
   open handles; an assoc list beats any fancier structure. *)
type state = {
  fs : Model.t;
  handles : ((int * int) * (string * int)) list;
      (* (client, handle) -> (path, offset); removed on close *)
}

(* Apply [ev]'s operation to [st]; return the model's result and the
   next state. The model result is then compared with the recorded
   one. *)
let apply st ev =
  let key h = (ev.e_client, h) in
  let unbind h = List.remove_assoc (key h) st.handles in
  let bind h path off fs = { fs; handles = (key h, (path, off)) :: unbind h } in
  let model op k =
    match Model.apply st.fs op with
    | Ok (v, fs) -> k v fs
    | Error e -> (Err e, st)
  in
  let via h k =
    match List.assoc_opt (key h) st.handles with
    | None -> (Err Hare_proto.Errno.EBADF, st)
    | Some (path, off) -> k path off
  in
  let path_op op = model op (fun _ fs -> (Ok_unit, { st with fs })) in
  match ev.e_op with
  | Open { path; create } ->
      (* Handle naming comes from the recorder: a successful real open
         returned [Ok_handle h], and later Close/Write/Read refer to
         that h. When the real open failed, the model binds no handle
         (a model success then mismatches the recorded error, pruning
         this witness). *)
      let h = match ev.e_result with Ok_handle h -> h | _ -> -1 in
      model (Model.Open { path; create }) (fun _ fs ->
          (Ok_handle h, bind h path 0 fs))
  | Close { h } ->
      via h (fun _ _ -> (Ok_unit, { st with handles = unbind h }))
  | Write { h; data } ->
      via h (fun path off ->
          model (Model.Write { path; off; data }) (fun _ fs ->
              let n = String.length data in
              (Ok_int n, bind h path (off + n) fs)))
  | Read { h } ->
      via h (fun path off ->
          model (Model.Read { path; off }) (fun v fs ->
              let d = match v with Model.Data d -> d | _ -> "" in
              (Ok_data d, bind h path (off + String.length d) fs)))
  | Stat { path } -> path_op (Model.Stat path)
  | Unlink { path } -> path_op (Model.Unlink path)
  | Mkdir { path } -> path_op (Model.Mkdir path)

(* --- witness search ------------------------------------------------- *)

let check history =
  (* Per-client queues in program order (invocation stamps are strictly
     increasing within one client: calls block). *)
  let queues =
    List.sort_uniq compare (List.map (fun e -> e.e_client) history)
    |> List.map (fun c ->
           List.filter (fun e -> e.e_client = c) history
           |> List.sort (fun a b -> Int64.compare a.e_inv b.e_inv)
           |> Array.of_list)
  in
  (* Real-time edges: acquire [e] needs every cross-client release that
     responded at or before e's invocation, as (queue, index) pairs. *)
  let needed e =
    if not (is_acquire e.e_op) then []
    else
      List.concat
        (List.mapi
           (fun qi q ->
             List.filter_map
               (fun i ->
                 let r = q.(i) in
                 if is_release r.e_op && r.e_client <> e.e_client
                    && Int64.compare r.e_res e.e_inv <= 0
                 then Some (qi, i)
                 else None)
               (List.init (Array.length q) Fun.id))
           queues)
  in
  (* Memoised on each queue's next index and the state, compared whole. *)
  let seen = Hashtbl.create 256 in
  let rec dfs st pos =
    let key = (pos, Model.bindings st.fs, List.sort compare st.handles) in
    (not (Hashtbl.mem seen key))
    && begin
         Hashtbl.add seen key ();
         List.for_all2 (fun q p -> p >= Array.length q) queues pos
         || List.exists
              (fun (qi, q) ->
                let p = List.nth pos qi in
                p < Array.length q
                &&
                let ev = q.(p) in
                (* every needed release must already be in the witness *)
                List.for_all (fun (rq, ri) -> List.nth pos rq > ri) (needed ev)
                &&
                let result, st' = apply st ev in
                ev.e_result = result
                && dfs st'
                     (List.mapi (fun j p -> if j = qi then p + 1 else p) pos))
              (List.mapi (fun qi q -> (qi, q)) queues)
       end
  in
  let st0 = { fs = Model.init []; handles = [] } in
  if history = [] || dfs st0 (List.map (fun _ -> 0) queues) then Ok ()
  else
    Error
      (String.concat ""
         ("no witness ordering explains the recorded history under \
           close-to-open semantics:\n"
         :: List.concat_map
              (fun q ->
                Array.to_list (Array.map (Format.asprintf "  %a\n" pp_event) q))
              queues))
