(* Tests for the messaging layer: atomic delivery, RPC, payload costs. *)

open Hare_sim

let costs = Hare_config.Costs.default

let with_engine f =
  let e = Engine.create () in
  Engine.run e |> ignore;
  f e

let test_atomic_delivery () =
  (* §3.6.1: when send returns, the message is in the receiver's queue —
     even though the receiver has not run. *)
  let e = Engine.create () in
  ignore
    (Engine.spawn e ~name:"sender" (fun () ->
         let owner = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
         let sender = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
         let mb = Hare_msg.Mailbox.create ~owner ~costs () in
         Hare_msg.Mailbox.send mb ~from:sender "hello";
         Alcotest.(check int) "queued at send-return" 1
           (Hare_msg.Mailbox.pending mb)));
  Engine.run e

let test_send_costs_charged_to_sender () =
  let e = Engine.create () in
  ignore
    (Engine.spawn e ~name:"t" (fun () ->
         let owner = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
         let sender = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
         let mb = Hare_msg.Mailbox.create ~owner ~costs () in
         let t0 = Engine.now e in
         Hare_msg.Mailbox.send mb ~from:sender "x";
         Alcotest.(check int64) "send cost"
           (Int64.of_int costs.send)
           (Int64.sub (Engine.now e) t0);
         Alcotest.(check int64) "sender busy"
           (Int64.of_int costs.send)
           (Core_res.busy_cycles sender);
         Alcotest.(check int64) "owner idle" 0L (Core_res.busy_cycles owner)));
  Engine.run e

let test_cross_socket_penalty () =
  let e = Engine.create () in
  ignore
    (Engine.spawn e ~name:"t" (fun () ->
         let owner = Core_res.create e ~id:1 ~socket:1 ~ctx_switch:0 in
         let sender = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
         let mb = Hare_msg.Mailbox.create ~owner ~costs () in
         let t0 = Engine.now e in
         Hare_msg.Mailbox.send mb ~from:sender "x";
         Alcotest.(check int64) "cross-socket send"
           (Int64.of_int (costs.send + costs.send_cross_socket))
           (Int64.sub (Engine.now e) t0)));
  Engine.run e

let test_mailbox_blocking_recv () =
  let e = Engine.create () in
  let got = ref "" in
  let owner = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
  let sender = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
  let mb = Hare_msg.Mailbox.create ~owner ~costs () in
  ignore
    (Engine.spawn e ~name:"receiver" (fun () -> got := Hare_msg.Mailbox.recv mb));
  ignore
    (Engine.spawn e ~name:"sender" (fun () ->
         Engine.sleep 100L;
         Hare_msg.Mailbox.send mb ~from:sender "late"));
  Engine.run e;
  Alcotest.(check string) "value" "late" !got

let test_mailbox_poll () =
  let e = Engine.create () in
  let owner = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
  let sender = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
  let mb = Hare_msg.Mailbox.create ~owner ~costs () in
  ignore
    (Engine.spawn e ~name:"t" (fun () ->
         Alcotest.(check (option string)) "empty" None (Hare_msg.Mailbox.poll mb);
         Hare_msg.Mailbox.send mb ~from:sender "a";
         Alcotest.(check (option string)) "ready" (Some "a")
           (Hare_msg.Mailbox.poll mb)));
  Engine.run e

let test_rpc_roundtrip () =
  let e = Engine.create () in
  let server_core = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
  let client_core = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
  let ep : (int, int) Hare_msg.Rpc.t =
    Hare_msg.Rpc.endpoint ~owner:server_core ~costs ()
  in
  ignore
    (Engine.spawn e ~daemon:true ~name:"server" (fun () ->
         let rec loop () =
           let req, reply = Hare_msg.Rpc.recv ep in
           reply (req * 2);
           loop ()
         in
         loop ()));
  let results = ref [] in
  ignore
    (Engine.spawn e ~name:"client" (fun () ->
         for i = 1 to 3 do
           results := Hare_msg.Rpc.call ep ~from:client_core i :: !results
         done));
  Engine.run e;
  Alcotest.(check (list int)) "doubled" [ 6; 4; 2 ] !results

let test_rpc_overlap () =
  (* Two async calls to two servers overlap: total latency is close to one
     round trip, not two (the directory-broadcast effect, §3.6.2). *)
  let e = Engine.create () in
  let client_core = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
  let mk_server id =
    let core = Core_res.create e ~id ~socket:0 ~ctx_switch:0 in
    let ep : (unit, unit) Hare_msg.Rpc.t =
      Hare_msg.Rpc.endpoint ~owner:core ~costs ()
    in
    ignore
      (Engine.spawn e ~daemon:true
         ~name:(Printf.sprintf "srv%d" id)
         (fun () ->
           let rec loop () =
             let (), reply = Hare_msg.Rpc.recv ep in
             Core_res.compute core 10_000;
             reply ();
             loop ()
           in
           loop ()));
    ep
  in
  let s1 = mk_server 1 and s2 = mk_server 2 in
  let seq_time = ref 0L and par_time = ref 0L in
  ignore
    (Engine.spawn e ~name:"client" (fun () ->
         let t0 = Engine.now e in
         ignore (Hare_msg.Rpc.call s1 ~from:client_core ());
         ignore (Hare_msg.Rpc.call s2 ~from:client_core ());
         seq_time := Int64.sub (Engine.now e) t0;
         let t1 = Engine.now e in
         let call s =
           Hare_msg.Rpc.call_async s ~from:client_core ~abs_deadline:0L ()
         in
         let f1, sp1 = call s1 in
         let f2, sp2 = call s2 in
         ignore (Hare_msg.Rpc.await ~from:client_core ~costs ~span:sp1 f1);
         ignore (Hare_msg.Rpc.await ~from:client_core ~costs ~span:sp2 f2);
         par_time := Int64.sub (Engine.now e) t1));
  Engine.run e;
  Alcotest.(check bool)
    (Printf.sprintf "parallel (%Ld) well under sequential (%Ld)" !par_time
       !seq_time)
    true
    (Int64.to_float !par_time < 0.75 *. Int64.to_float !seq_time)

let test_rpc_parked_reply () =
  (* A server may stash the reply closure and answer later without
     blocking its loop — the pipe/rmdir parking pattern. *)
  let e = Engine.create () in
  let server_core = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
  let client_core = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
  let ep : ([ `Park | `Wake ], string) Hare_msg.Rpc.t =
    Hare_msg.Rpc.endpoint ~owner:server_core ~costs ()
  in
  ignore
    (Engine.spawn e ~daemon:true ~name:"server" (fun () ->
         let parked = ref None in
         let rec loop () =
           let req, reply = Hare_msg.Rpc.recv ep in
           (match req with
           | `Park -> parked := Some reply
           | `Wake ->
               (match !parked with
               | Some r ->
                   r "you first";
                   parked := None
               | None -> ());
               reply "done");
           loop ()
         in
         loop ()));
  let order = ref [] in
  ignore
    (Engine.spawn e ~name:"parker" (fun () ->
         let r = Hare_msg.Rpc.call ep ~from:client_core `Park in
         order := r :: !order));
  ignore
    (Engine.spawn e ~name:"waker" (fun () ->
         Engine.sleep 1000L;
         let r = Hare_msg.Rpc.call ep ~from:client_core `Wake in
         order := r :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "parked answered first" [ "done"; "you first" ]
    !order

let test_payload_lines_cost () =
  let e = Engine.create () in
  ignore
    (Engine.spawn e ~name:"t" (fun () ->
         let owner = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
         let sender = Core_res.create e ~id:0 ~socket:0 ~ctx_switch:0 in
         let mb = Hare_msg.Mailbox.create ~owner ~costs () in
         let t0 = Engine.now e in
         Hare_msg.Mailbox.send mb ~from:sender ~payload_lines:64 "4k";
         Alcotest.(check int64) "bulk payload cost"
           (Int64.of_int (costs.send + (64 * costs.msg_per_line)))
           (Int64.sub (Engine.now e) t0)));
  Engine.run e

let test_unwatch_rewatch () =
  (* A named mailbox holds an engine depth probe; crash handling drops
     it ([unwatch]) so deadlock reports skip dead queues, and restart
     brings it back ([rewatch]). Both directions are idempotent. *)
  let e = Engine.create () in
  ignore
    (Engine.spawn e ~name:"t" (fun () ->
         let owner = Core_res.create e ~id:1 ~socket:0 ~ctx_switch:0 in
         let mb = Hare_msg.Mailbox.create ~name:"fs0" ~owner ~costs () in
         let anon = Hare_msg.Mailbox.create ~owner ~costs () in
         Alcotest.(check int) "named mailbox registers" 1 (Engine.probe_count e);
         Hare_msg.Mailbox.unwatch mb;
         Alcotest.(check int) "unwatch drops it" 0 (Engine.probe_count e);
         Hare_msg.Mailbox.unwatch mb;
         Alcotest.(check int) "unwatch idempotent" 0 (Engine.probe_count e);
         Hare_msg.Mailbox.rewatch mb;
         Alcotest.(check int) "rewatch restores" 1 (Engine.probe_count e);
         Hare_msg.Mailbox.rewatch mb;
         Alcotest.(check int) "rewatch idempotent" 1 (Engine.probe_count e);
         Hare_msg.Mailbox.unwatch anon;
         Hare_msg.Mailbox.rewatch anon;
         Alcotest.(check int) "unnamed mailbox is a no-op" 1
           (Engine.probe_count e)));
  Engine.run e

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "msg.mailbox",
      [
        tc "atomic delivery" `Quick test_atomic_delivery;
        tc "send cost to sender" `Quick test_send_costs_charged_to_sender;
        tc "cross-socket penalty" `Quick test_cross_socket_penalty;
        tc "blocking recv" `Quick test_mailbox_blocking_recv;
        tc "poll" `Quick test_mailbox_poll;
        tc "payload cost" `Quick test_payload_lines_cost;
        tc "unwatch/rewatch probe" `Quick test_unwatch_rewatch;
      ] );
    ( "msg.rpc",
      [
        tc "roundtrip" `Quick test_rpc_roundtrip;
        tc "async overlap" `Quick test_rpc_overlap;
        tc "parked reply" `Quick test_rpc_parked_reply;
      ] );
  ]

let _ = with_engine
