type mode = Workers | Make

type t = {
  name : string;
  mode : mode;
  exec_policy : Hare_config.Config.exec_policy;
  uses_dist : bool;
  setup : 'p. 'p Hare_api.Api.t -> 'p -> nprocs:int -> scale:int -> unit;
  worker :
    'p. 'p Hare_api.Api.t -> 'p -> idx:int -> nprocs:int -> scale:int -> unit;
  programs :
    'p. 'p Hare_api.Api.t -> (string * ('p -> string list -> int)) list;
  ops : nprocs:int -> scale:int -> int;
}

let no_programs _api = []
