(* Consistent-hash placement: logical homes -> physical servers.

   Logical home ids are stable (they are what [ino.server] stores); only
   the route table moves. Rendezvous hashing with [vnodes] points per
   server gives the minimal-disruption property: a membership change
   moves only the homes whose top point belongs to the joining server,
   or whose owner left. With an empty event plan the route is the
   identity forever and nothing here perturbs a run. *)

type event = Add of { at : int64 } | Remove of { sid : int; at : int64 }

type t = {
  nhomes : int;
  vnodes : int;
  nphys : int;
  route : int array; (* logical home -> physical server *)
  active : bool array; (* ring membership, per physical server *)
  events : event list;
  mutable epoch : int;
  mutable migrations : int;
  mutable aborted : int;
}

let count_adds_ev events =
  List.fold_left (fun n -> function Add _ -> n + 1 | Remove _ -> n) 0 events

let create ~nhomes ~vnodes ~events =
  if nhomes <= 0 then invalid_arg "Place.create: nhomes must be positive";
  if vnodes <= 0 then invalid_arg "Place.create: vnodes must be positive";
  let nphys = nhomes + count_adds_ev events in
  {
    nhomes;
    vnodes;
    nphys;
    route = Array.init nhomes Fun.id;
    active = Array.init nphys (fun p -> p < nhomes);
    events;
    epoch = 0;
    migrations = 0;
    aborted = 0;
  }

let nhomes t = t.nhomes
let nphys t = t.nphys
let vnodes t = t.vnodes
let events t = t.events
let migratory t = t.events <> []
let epoch t = t.epoch
let phys t home = t.route.(home)
let set_route t ~home ~dst = t.route.(home) <- dst
let active t p = t.active.(p)
let activate t p = t.active.(p) <- true
let deactivate t p = t.active.(p) <- false

let homes_of t p =
  let acc = ref [] in
  for h = t.nhomes - 1 downto 0 do
    if t.route.(h) = p then acc := h :: !acc
  done;
  !acc

(* SplitMix64-style finalizer over native ints: deterministic, seedless,
   well-mixed — the same (home, srv, vnode) triple always lands on the
   same ring point on every machine. *)
let mix h srv v =
  let x = ref ((h * 0x9E3779B1) lxor (srv * 0x85EBCA77) lxor (v * 0xC2B2AE3D)) in
  x := !x lxor (!x lsr 33);
  x := !x * 0xFF51AFD7;
  x := !x land max_int;
  x := !x lxor (!x lsr 29);
  x := !x * 0xC4CEB9FE;
  x := !x land max_int;
  x := !x lxor (!x lsr 32);
  !x land max_int

let weight t ~home ~srv =
  let best = ref 0 in
  for v = 0 to t.vnodes - 1 do
    let w = mix home srv v in
    if w > !best then best := w
  done;
  !best

(* Argmax over a candidate predicate; ties broken toward the lower
   server id (deterministic). *)
let argmax t home ok =
  let best_srv = ref (-1) and best_w = ref (-1) in
  for srv = 0 to t.nphys - 1 do
    if ok srv then begin
      let w = weight t ~home ~srv in
      if w > !best_w then begin
        best_w := w;
        best_srv := srv
      end
    end
  done;
  !best_srv

let plan_add t q =
  let moves = ref [] in
  for h = t.nhomes - 1 downto 0 do
    if t.route.(h) <> q && argmax t h (fun s -> t.active.(s)) = q then
      moves := h :: !moves
  done;
  if !moves = [] then begin
    (* Tiny rings can hash nothing onto the newcomer; force the single
       best-weighted home over so an add always takes load. *)
    let best_h = ref (-1) and best_w = ref (-1) in
    for h = 0 to t.nhomes - 1 do
      if t.route.(h) <> q then begin
        let w = weight t ~home:h ~srv:q in
        if w > !best_w then begin
          best_w := w;
          best_h := h
        end
      end
    done;
    if !best_h >= 0 then moves := [ !best_h ]
  end;
  !moves

let plan_remove t p =
  let moves = ref [] in
  for h = t.nhomes - 1 downto 0 do
    if t.route.(h) = p then begin
      let dst = argmax t h (fun s -> t.active.(s) && s <> p) in
      if dst >= 0 then moves := (h, dst) :: !moves
    end
  done;
  !moves

let commit t = t.epoch <- t.epoch + 1
let note_migration t = t.migrations <- t.migrations + 1
let note_abort t = t.aborted <- t.aborted + 1
let migrations t = t.migrations
let aborted t = t.aborted

(* Plan grammar: `add@CYCLES;remove:SID@CYCLES` — same shape as the
   fault plans in [Hare_fault.Plan]. *)

let ( let* ) r f = Result.bind r f
let err fmt = Format.kasprintf (fun s -> Error s) fmt

let parse_at what s =
  match Int64.of_string_opt (String.trim s) with
  | Some at when at > 0L -> Ok at
  | _ -> err "shard plan: bad %s time %S" what s

let parse_item item =
  match String.index_opt item '@' with
  | None -> err "shard plan: missing '@' in %S" item
  | Some i -> (
      let head = String.trim (String.sub item 0 i) in
      let tail = String.sub item (i + 1) (String.length item - i - 1) in
      match String.split_on_char ':' head with
      | [ "add" ] ->
          let* at = parse_at "add" tail in
          Ok (Add { at })
      | [ "remove"; sid ] -> (
          match int_of_string_opt (String.trim sid) with
          | Some sid when sid >= 0 ->
              let* at = parse_at "remove" tail in
              Ok (Remove { sid; at })
          | _ -> err "shard plan: bad server id in %S" item)
      | _ -> err "shard plan: unknown item %S (want add@T or remove:SID@T)" item)

let parse_plan s =
  let items =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest ->
        let* ev = parse_item item in
        go (ev :: acc) rest
  in
  go [] items

let count_adds s =
  match parse_plan s with Ok evs -> count_adds_ev evs | Error _ -> 0
