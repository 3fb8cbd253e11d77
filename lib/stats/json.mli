(** JSON values, with the one printer and the one parser of every JSON
    file the repo writes or reads: the bench results, the Perfetto
    trace and the metrics series.

    The printer's one layout is compact, except that each element of a
    non-empty array of objects, and its closing bracket, start a line;
    the text ends in a newline. Strings print byte for byte, escaping
    only ['"'], ['\\'] and bytes below 0x20. A [Float] prints as the
    shortest decimal that reads back as the same float, always with a
    ['.'] or an exponent, so that it parses back as a [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list  (** in printed order *)

val decimals : int -> float -> t
(** [decimals d x] is [x] rounded to [d] decimal places as
    [Printf "%.*f"] rounds it: an [Int] when [d = 0], else a [Float]. *)

val to_string : t -> string
(** Raises [Invalid_argument] on a NaN or infinite [Float]. *)

val stream_objects : Buffer.t -> string -> ((t -> unit) -> unit) -> unit
(** [stream_objects buf key iter] appends the text of
    [Object [ (key, Array objs) ]], printing each of the objects [iter]
    passes on as it comes, without building [objs]. *)

val parse : string -> (t, int * string) result
(** The one value [s] holds, whitespace aside; or the byte offset of the
    first error (truncation, trailing garbage, a raw control byte in a
    string, ...) and what was expected there. A number with neither
    fraction nor exponent that fits an [int] is an [Int]. [\u] escapes
    of UTF-16 surrogates, which the printer never writes, are refused. *)

val member : string -> t -> t option
(** [member key v] is [v]'s first [key] binding, if [v] is an object. *)
