type target = All_servers | Server of int

type action = Drop | Duplicate | Delay of int

type msg_rule = { action : action; target : target; prob : float }

type event_kind = Crash of int64 option | Stall of int64

type server_event = { ev_sid : int; ev_at : int64; ev_kind : event_kind }

type t = { rules : msg_rule list; events : server_event list }

let is_empty t = t.rules = [] && t.events = []

let pp_target ppf = function
  | All_servers -> Format.pp_print_string ppf "fs"
  | Server k -> Format.fprintf ppf "fs%d" k

let pp_rule ppf r =
  match r.action with
  | Drop -> Format.fprintf ppf "drop:%a:%g" pp_target r.target r.prob
  | Duplicate -> Format.fprintf ppf "dup:%a:%g" pp_target r.target r.prob
  | Delay d -> Format.fprintf ppf "delay:%a:%g:%d" pp_target r.target r.prob d

let pp_event ppf e =
  match e.ev_kind with
  | Crash None -> Format.fprintf ppf "crash:%d@%Ld" e.ev_sid e.ev_at
  | Crash (Some d) -> Format.fprintf ppf "crash:%d@%Ld+%Ld" e.ev_sid e.ev_at d
  | Stall d -> Format.fprintf ppf "stall:%d@%Ld+%Ld" e.ev_sid e.ev_at d

let to_string t =
  String.concat ";"
    (List.map (Format.asprintf "%a" pp_rule) t.rules
    @ List.map (Format.asprintf "%a" pp_event) t.events)

(* --- parsing ---------------------------------------------------------- *)

let ( let* ) r f = Result.bind r f

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let parse_target s =
  if s = "fs" then Ok All_servers
  else if String.length s > 2 && String.sub s 0 2 = "fs" then
    match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some k when k >= 0 -> Ok (Server k)
    | _ -> err "bad server target %S (want fs or fs<k>)" s
  else err "bad server target %S (want fs or fs<k>)" s

let parse_prob s =
  match float_of_string_opt s with
  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
  | _ -> err "bad probability %S (want a float in [0,1])" s

(* "<sid>@<at>" or "<sid>@<at>+<dur>" *)
let parse_when s =
  let at_part, dur =
    match String.index_opt s '+' with
    | None -> (s, Ok None)
    | Some i ->
        let d = String.sub s (i + 1) (String.length s - i - 1) in
        ( String.sub s 0 i,
          match Int64.of_string_opt d with
          | Some d when d > 0L -> Ok (Some d)
          | _ -> err "bad duration %S (want a positive cycle count)" d )
  in
  let* dur = dur in
  match String.split_on_char '@' at_part with
  | [ sid; at ] -> (
      match (int_of_string_opt sid, Int64.of_string_opt at) with
      | Some sid, Some at when sid >= 0 && at >= 0L -> Ok (sid, at, dur)
      | _ -> err "bad event schedule %S (want <sid>@<cycles>[+<dur>])" s)
  | _ -> err "bad event schedule %S (want <sid>@<cycles>[+<dur>])" s

let parse_item item =
  match String.split_on_char ':' item with
  | [ "drop"; tgt; p ] ->
      let* target = parse_target tgt in
      let* prob = parse_prob p in
      Ok (`Rule { action = Drop; target; prob })
  | [ "dup"; tgt; p ] ->
      let* target = parse_target tgt in
      let* prob = parse_prob p in
      Ok (`Rule { action = Duplicate; target; prob })
  | [ "delay"; tgt; p; max_cycles ] -> (
      let* target = parse_target tgt in
      let* prob = parse_prob p in
      match int_of_string_opt max_cycles with
      | Some d when d > 0 -> Ok (`Rule { action = Delay d; target; prob })
      | _ -> err "bad delay bound %S (want a positive cycle count)" max_cycles)
  | [ "crash"; sched ] ->
      let* sid, at, dur = parse_when sched in
      Ok (`Event { ev_sid = sid; ev_at = at; ev_kind = Crash dur })
  | [ "stall"; sched ] -> (
      let* sid, at, dur = parse_when sched in
      match dur with
      | Some d -> Ok (`Event { ev_sid = sid; ev_at = at; ev_kind = Stall d })
      | None -> err "stall needs a duration: stall:<sid>@<cycles>+<dur>")
  | _ -> err "unrecognized fault rule %S" item

let parse spec =
  let items =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go rules events = function
    | [] -> Ok { rules = List.rev rules; events = List.rev events }
    | item :: rest -> (
        match parse_item item with
        | Ok (`Rule r) -> go (r :: rules) events rest
        | Ok (`Event e) -> go rules (e :: events) rest
        | Error e -> Error e)
  in
  go [] [] items

let parse_exn spec =
  match parse spec with
  | Ok t -> t
  | Error e -> invalid_arg (Printf.sprintf "fault plan %S: %s" spec e)
