(* bench/trace_check.exe FILE [--tracks N] [--counters N]

   Validates a `hare_cli run --trace` export: one object whose
   "traceEvents" array holds events with a "ph" phase, non-metadata ones
   with an integer "tid" and a "ts" that never decreases on its track,
   counters (ph "C") with a numeric "args"."value". --tracks N wants
   exactly N thread_name records (a track per core plus DRAM), --counters
   N at least N counter events. Exit 0 if well-formed, else 1. *)

module Json = Hare_stats.Json

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("trace_check: " ^ m); exit 1) fmt

let () =
  let file, want_tracks, want_counters =
    match Array.to_list Sys.argv with
    | [ _; f ] -> (f, None, None)
    | [ _; f; "--tracks"; n ] -> (f, Some (int_of_string n), None)
    | [ _; f; "--counters"; n ] -> (f, None, Some (int_of_string n))
    | [ _; f; "--tracks"; n; "--counters"; c ]
    | [ _; f; "--counters"; c; "--tracks"; n ] ->
        (f, Some (int_of_string n), Some (int_of_string c))
    | _ ->
        prerr_endline "usage: trace_check.exe FILE [--tracks N] [--counters N]";
        exit 2
  in
  let events =
    match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Error (off, what) -> fail "%s: byte %d: %s" file off what
    | Ok doc -> (
        match Json.member "traceEvents" doc with
        | Some (Json.Array evs) -> evs
        | _ -> fail "%s: not an object with a \"traceEvents\" array" file)
  in
  let last_ts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let nevents = ref 0 and metas = ref 0 and tracks = ref 0 and counters = ref 0 in
  List.iteri
    (fun i ev ->
      let field k = Json.member k ev in
      let int_field k =
        match field k with
        | Some (Json.Int v) -> v
        | _ -> fail "event %d: no integer %S" i k
      in
      match field "ph" with
      | Some (Json.String "M") ->
          incr metas;
          if field "name" = Some (Json.String "thread_name") then incr tracks
      | Some (Json.String ph) ->
          incr nevents;
          let tid = int_field "tid" and ts = int_field "ts" in
          if ph = "C" then begin
            incr counters;
            match Option.bind (field "args") (Json.member "value") with
            | Some (Json.Int _ | Json.Float _) -> ()
            | _ -> fail "event %d: counter without a numeric \"value\"" i
          end;
          (match Hashtbl.find_opt last_ts tid with
          | Some prev when ts < prev ->
              fail "event %d: timestamps not monotonic on track %d (%d after %d)"
                i tid ts prev
          | _ -> ());
          Hashtbl.replace last_ts tid ts
      | _ -> fail "event %d: no \"ph\" phase" i)
    events;
  Option.iter
    (fun n ->
      if !tracks <> n then fail "expected %d named tracks, found %d" n !tracks)
    want_tracks;
  Option.iter
    (fun n ->
      if !counters < n then
        fail "expected at least %d counter events, found %d" n !counters)
    want_counters;
  Printf.printf
    "trace_check: OK: %d events (%d counters), %d metadata records, %d tracks\n"
    !nevents !counters !metas !tracks
