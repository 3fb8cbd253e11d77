(** Binary min-heap keyed by [(time, seq)] native-int pairs.

    The key is a (time, sequence) pair: the heap orders events primarily by
    simulated time and breaks ties by insertion sequence, which gives the
    discrete-event engine a deterministic FIFO order for simultaneous
    events.

    Keys are native ints (63-bit on 64-bit platforms), not int64: simulated
    cycle counts stay far below 2^62, and unboxed keys in flat parallel
    arrays keep the per-event push/{!pop} — the engine's hottest path —
    free of allocation. A value is stored once, at push, in a fixed slot;
    reordering the heap moves only ints. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push h ?tag ~time ~seq v] inserts [v] with key [(time, seq)].
    [tag] (default 0) is an opaque label carried alongside the entry —
    the engine stores its action tag there for the schedule explorer;
    it never affects ordering. Raises [Invalid_argument] if [time] is
    negative. *)
val push : 'a t -> ?tag:int -> time:int -> seq:int -> 'a -> unit

(** [pop_min h] removes and returns the minimum element together with its
    key. Raises [Not_found] when the heap is empty. *)
val pop_min : 'a t -> int * int * 'a

(** [pop h] removes the minimum element and returns its value only,
    without allocating; read its key first with {!min_time},
    {!min_seq} and {!min_tag}. Raises [Not_found] when the heap is
    empty. *)
val pop : 'a t -> 'a

(** [peek_min h] returns the minimum element without removing it.
    Raises [Not_found] when the heap is empty. *)
val peek_min : 'a t -> int * int * 'a

(** [min_time h] returns the minimum key's time without any allocation.
    Raises [Not_found] when the heap is empty. *)
val min_time : 'a t -> int

(** Sequence of the entry {!pop} would remove. Raises [Not_found] if
    empty. *)
val min_seq : 'a t -> int

(** Tag of the entry {!pop} would remove. Raises [Not_found] if
    empty. *)
val min_tag : 'a t -> int

(** {1 Schedule-exploration support}

    Cold-path scans used only when a schedule explorer drives the
    engine; the default event loop never calls them. *)

(** [min_entries h] returns every entry due at the minimum time as
    [(seq, tag)] pairs, sorted by ascending [seq] (index 0 is the entry
    {!pop_min} would return). Empty array on an empty heap. *)
val min_entries : 'a t -> (int * int) array

(** [remove_seq h seq] removes the entry with insertion sequence [seq]
    and returns [(time, tag, value)]. Raises [Not_found] if absent. *)
val remove_seq : 'a t -> int -> int * int * 'a
