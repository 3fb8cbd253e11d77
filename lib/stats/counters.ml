module type S = sig
  type key

  type t

  val create : unit -> t

  val incr : t -> key -> unit

  val add : t -> key -> int -> unit

  val get : t -> key -> int

  val keys : unit -> key list

  val reset : t -> unit

  val merge : into:t -> t -> unit

  val to_list : t -> (string * int) list

  val is_zero : t -> bool

  val equal : t -> t -> bool
end

module Make () = struct
  type key = int

  type t = int array

  (* A slot is a label ([None] for a bucket) and whether it merges with
     [max]. Registration happens at the schema module's initialisation;
     the first [create] freezes the schema. *)
  let declared : (string option * bool) list ref = ref []

  let slots = lazy (Array.of_list (List.rev !declared))

  let register label ~max =
    if Lazy.is_val slots then invalid_arg "Counters: schema already in use";
    let k = List.length !declared in
    declared := (label, max) :: !declared;
    k

  let key ?(max = false) label = register (Some label) ~max

  let buckets n = Array.init n (fun _ -> register None ~max:false)

  let create () = Array.make (Array.length (Lazy.force slots)) 0

  let incr t k = t.(k) <- t.(k) + 1

  let add t k n = t.(k) <- t.(k) + n

  let get t k = t.(k)

  let keys () = List.init (Array.length (Lazy.force slots)) Fun.id

  let reset t = Array.fill t 0 (Array.length t) 0

  let merge ~into src =
    Array.iteri
      (fun i (_, max) ->
        into.(i) <-
          (if max then Int.max into.(i) src.(i) else into.(i) + src.(i)))
      (Lazy.force slots)

  let to_list t =
    Lazy.force slots |> Array.to_list
    |> List.mapi (fun i (label, _) -> Option.map (fun l -> (l, t.(i))) label)
    |> List.filter_map Fun.id

  let is_zero t = Array.for_all (( = ) 0) t

  let equal (a : t) b =
    Array.length a = Array.length b && Array.for_all2 Int.equal a b
end
