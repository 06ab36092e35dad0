(** Arbitrary-width unsigned bit vectors with limb-level arithmetic.

    The benchmark generators need exact arithmetic on words of up to 256 bits
    (adders, multipliers, dividers, square rooters).  A bit vector of width
    [w] represents an unsigned integer in [0, 2^w).  Bit 0 is the least
    significant bit.  All operations are pure.

    Values are stored in 62-bit limbs.  {!mul} is a column-wise (Comba)
    product over 31-bit half-limbs, {!divmod} is restoring division and
    {!isqrt} the digit-by-digit (two bits per step) method.  All three
    work in place on the limbs of the vectors they return: the only
    vectors they allocate are their results ({!isqrt} also copies its
    argument's limbs as the running remainder), and no step copies a
    vector per bit. *)

type t

val width : t -> int
(** Number of bits. *)

val zero : int -> t
(** [zero w] is the all-zero vector of width [w]. *)

val one : int -> t
(** [one w] is the value 1 at width [w].  [w >= 1]. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] truncates the non-negative integer [v] to [width]
    bits. *)

val to_int : t -> int
(** Value as a native integer.  Raises [Failure] if it does not fit in
    [Sys.int_size - 1] bits, i.e. exceeds [max_int]. *)

val of_bits : bool array -> t
(** [of_bits a] has bit [i] equal to [a.(i)] (index 0 = LSB). *)

val to_bits : t -> bool array

val get : t -> int -> bool
(** [get v i] is bit [i].  Raises [Invalid_argument] when out of range. *)

val set : t -> int -> bool -> t
(** Functional bit update. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Unsigned comparison; widths may differ (value comparison). *)

val is_zero : t -> bool

val concat : hi:t -> lo:t -> t
(** [concat ~hi ~lo] appends [hi] above [lo]:
    result width = width hi + width lo. *)

val extract : t -> lo:int -> len:int -> t
(** [extract v ~lo ~len] is bits [lo .. lo+len-1] of [v]. *)

val zero_extend : t -> int -> t
(** [zero_extend v w] pads [v] with zeros up to width [w] ([w >= width v]). *)

val add : t -> t -> t
(** Modular addition at the width of the wider operand. *)

val add_carry : t -> t -> t * bool
(** Addition returning the carry-out. Operands must have equal width. *)

val sub : t -> t -> t
(** Modular subtraction (two's complement) at the wider width. *)

val mul : t -> t -> t
(** Full product: result width = width a + width b. *)

val divmod : t -> t -> t * t
(** [divmod a b] is (quotient, remainder) with widths of [a].  A [b]
    wider than [a] is first taken modulo [2^(width a)]; if that leaves 0,
    the quotient is all ones and the remainder is [a].
    Raises [Division_by_zero] when [b] is zero. *)

val isqrt : t -> t
(** Integer square root (floor), result has [max 1 ((width + 1) / 2)]
    bits. *)

val popcount : t -> int

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
(** Bitwise operations; binary ones require equal widths. *)

val shift_left : t -> int -> t
(** Logical shift, width preserved. *)

val shift_right : t -> int -> t

val random : Random.State.t -> int -> t
(** [random st w] draws [w] uniform bits. *)

val to_string : t -> string
(** MSB-first binary string, e.g. ["0110"]. *)

val of_string : string -> t
(** Inverse of [to_string].  Raises [Invalid_argument] on non-binary
    characters. *)

val pp : Format.formatter -> t -> unit
