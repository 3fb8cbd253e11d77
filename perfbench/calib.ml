(* The host's speed, measured beside the benchmark. On a shared host
   every CPU time, the simulator's and any fixed program's alike, can
   read 1.4x higher for minutes at a time; dividing by the time of a fixed
   reference taken in the same run cancels that.

   The reference is a tiny discrete-event simulation written here, so it
   depends on nothing in lib/: fibers are effect handlers resumed from an
   ordered event set, and each step updates a hash table and copies a
   64-byte line, the kind of work the simulator does (a reference of
   cache-missing reads over a large table tracked the simulator's slow
   phases badly). [pass] returns the CPU time of each of its [chunks]
   pieces; every pass is identical, so the best of each piece over the
   passes, summed, is the reference's time at the host's best speed
   during the run. *)

open Effect
open Effect.Deep

type _ Effect.t += Wait : int -> unit Effect.t

module Q = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let chunks = 200

let steps_per_chunk = 1500

let fibers = 64

let pass () =
  let q = ref Q.empty and ks = Hashtbl.create 64 and seq = ref 0 and now = ref 0 in
  let table = Hashtbl.create 1024 and line = Bytes.make 64 'x' in
  let schedule t k =
    incr seq;
    q := Q.add (t, !seq) !q;
    Hashtbl.replace ks !seq k
  in
  let body f () =
    for i = 1 to chunks * steps_per_chunk / fibers do
      let key = ((f * 31) + i) land 1023 in
      Hashtbl.replace table key (Bytes.copy line, i);
      perform (Wait (1 + ((key * 7) land 15)))
    done
  in
  let spawn f =
    match_with (body f) ()
      {
        retc = ignore;
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Wait d ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    schedule (!now + d) (fun () -> continue k ()))
            | _ -> None);
      }
  in
  for f = 0 to fibers - 1 do
    spawn f
  done;
  Array.init chunks (fun _ ->
      let t0 = Sys.time () in
      let n = ref 0 in
      while !n < steps_per_chunk && not (Q.is_empty !q) do
        let ((t, s) as ev) = Q.min_elt !q in
        q := Q.remove ev !q;
        let resume = Hashtbl.find ks s in
        Hashtbl.remove ks s;
        now := t;
        resume ();
        incr n
      done;
      Sys.time () -. t0)
