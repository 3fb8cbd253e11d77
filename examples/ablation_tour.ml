(* Ablation tour: run one benchmark on the same machine size with each of
   Hare's five techniques (§3.6) disabled in turn, plus the two extensions,
   and print what each is worth — a miniature of Figures 9-14 you can edit
   and play with.

   Run with:  dune exec examples/ablation_tour.exe [benchmark] *)

module Config = Hare_config.Config
module Driver = Hare_experiments.Driver
module World = Hare_experiments.World
module HD = Driver.Make (World.Hare_w)

let ncores = 8

let variants =
  (("all techniques on (baseline)", Fun.id)
   :: List.map
        (fun (label, off) -> ("no " ^ String.lowercase_ascii label, off))
        Hare_experiments.Figures.techniques)
  @ [
      ( "width-2 distribution (ext)",
        fun c -> { c with Config.dist_width = Some 2 } );
      ("block stealing on (ext)", fun c -> { c with Config.block_stealing = true });
    ]

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "creates" in
  let spec =
    try Hare_workloads.All.find bench
    with Not_found ->
      Printf.eprintf "unknown benchmark %S; known: %s\n" bench
        (String.concat ", " Hare_workloads.All.names);
      exit 1
  in
  Printf.printf "%s on %d cores:\n\n" bench ncores;
  let base = ref None in
  List.iter
    (fun (label, tweak) ->
      let config = tweak (Driver.default_config ~ncores) in
      let r = HD.run ~config spec in
      let rel =
        match !base with
        | None ->
            base := Some r.Driver.throughput;
            1.0
        | Some b -> r.Driver.throughput /. b
      in
      Printf.printf "  %-32s %9.0f ops/s  (%.2fx)\n" label r.Driver.throughput
        rel)
    variants
