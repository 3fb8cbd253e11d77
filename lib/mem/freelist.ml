(* The blocks [next, stop) of the initial range come first, then the
   ring's [len] blocks from [head]. Nothing is pushed into the range, so
   a push always lands behind it, as in a queue. The ring's capacity is
   0 or a power of two. *)
type t = {
  mutable next : int;
  mutable stop : int;
  mutable ring : int array;
  mutable head : int;
  mutable len : int;
}

let create ~first ~count =
  if first < 0 || count < 0 then invalid_arg "Freelist.create";
  { next = first; stop = first + count; ring = [||]; head = 0; len = 0 }

let length t = t.stop - t.next + t.len

let grow t =
  let cap = Array.length t.ring in
  let ring = Array.make (if cap = 0 then 16 else 2 * cap) 0 in
  for i = 0 to t.len - 1 do
    ring.(i) <- t.ring.((t.head + i) land (cap - 1))
  done;
  t.ring <- ring;
  t.head <- 0

let push t b =
  if t.len = Array.length t.ring then grow t;
  t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- b;
  t.len <- t.len + 1

let pop t =
  if t.next < t.stop then begin
    let b = t.next in
    t.next <- b + 1;
    b
  end
  else if t.len = 0 then invalid_arg "Freelist.pop: empty"
  else begin
    let b = t.ring.(t.head) in
    t.head <- (t.head + 1) land (Array.length t.ring - 1);
    t.len <- t.len - 1;
    b
  end

let clear t =
  t.next <- t.stop;
  t.head <- 0;
  t.len <- 0
