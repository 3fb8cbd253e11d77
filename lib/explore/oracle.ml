(* Model-VFS linearizability checker with close-to-open real-time edges.
   See oracle.mli for the contract. Host-side and pure: runs after the
   simulation finished, on the recorded history only. *)

type event = {
  e_client : int;
  e_op : Model.op;
  e_result : (Model.value, Hare_proto.Errno.t) result;
  e_inv : int64;
  e_res : int64;
}

let pp_event ppf e =
  Format.fprintf ppf "client %d: %s -> %s [%Ld..%Ld]" e.e_client
    (Model.op_to_string e.e_op)
    (Model.result_to_string e.e_result)
    e.e_inv e.e_res

(* Release completes visibility; acquire must observe every release that
   finished (in real time) before it was invoked. *)
let is_release = function
  | Model.Close _ | Unlink _ | Mkdir _ | Rmdir _ | Rename _ -> true
  | Open _ | Write _ | Read _ | Seek _ | Stat _ | Readdir _ -> false

let is_acquire = function
  | Model.Open _ | Stat _ | Readdir _ -> true
  | Close _ | Write _ | Read _ | Seek _ | Unlink _ | Mkdir _ | Rmdir _
  | Rename _ ->
      false

(* Witness-search states already explored: each queue's next index and
   the model state. *)
module Seen = Set.Make (struct
  type t = int list * Model.t

  let compare (p, a) (q, b) =
    match List.compare Int.compare p q with 0 -> Model.compare a b | c -> c
end)

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
  (* Real-time edges: acquire [e] joins the witness at queue positions
     [pos] only once every cross-client release that responded at or
     before e's invocation is in it. *)
  let ready pos e =
    (not (is_acquire e.e_op))
    || List.for_all2
         (fun q p ->
           not
             (Array.exists
                (fun r ->
                  is_release r.e_op && r.e_client <> e.e_client
                  && Int64.compare r.e_res e.e_inv <= 0)
                (Array.sub q p (Array.length q - p))))
         queues pos
  in
  let seen = ref Seen.empty in
  let rec dfs st pos =
    (not (Seen.mem (pos, st) !seen))
    && begin
         seen := Seen.add (pos, st) !seen;
         List.for_all2 (fun q p -> p >= Array.length q) queues pos
         || List.exists
              (fun (qi, q) ->
                let p = List.nth pos qi in
                p < Array.length q
                &&
                let ev = q.(p) in
                ready pos ev
                &&
                let result, st' = Model.apply st ~proc:ev.e_client ev.e_op in
                ev.e_result = result
                && dfs st'
                     (List.mapi (fun j p -> if j = qi then p + 1 else p) pos))
              (List.mapi (fun qi q -> (qi, q)) queues)
       end
  in
  if history = [] || dfs (Model.init []) (List.map (fun _ -> 0) queues) then
    Ok ()
  else
    Error
      (String.concat ""
         ("no witness ordering explains the recorded history under \
           close-to-open semantics:\n"
         :: List.concat_map
              (fun q ->
                Array.to_list (Array.map (Format.asprintf "  %a\n" pp_event) q))
              queues))
