(** GF(256) arithmetic (AES polynomial 0x11b) and the deterministic RLC
    coefficient stream shared by the FEC machinery on both peers. *)

val mul : int -> int -> int
(** Field multiplication; operands are taken modulo 256. *)

val pow : int -> int -> int
(** [pow a n] — [a]{^ [n]} in the field (square-and-multiply). *)

val inv : int -> int
(** Multiplicative inverse; [inv 0 = 0] by convention. *)

val mulvec : coef:int -> src:Bytes.t -> dst:Bytes.t -> len:int -> unit
(** [dst.(k) <- dst.(k) lxor coef*src.(k)] for [k < len] — the FEC
    XOR-accumulate step — computed eight byte lanes per native word
    (SWAR xtime).
    @raise Invalid_argument when [len] overruns either buffer. *)

val mulvec_off :
  coef:int -> src:Bytes.t -> soff:int -> dst:Bytes.t -> doff:int ->
  len:int -> unit
(** {!mulvec} over the sub-ranges starting at [soff]/[doff]: the in-place
    form the host helpers use to accumulate straight between VM regions
    with no staging copies. The ranges must not partially overlap. *)

val rlc_coef : seed:int64 -> sid:int64 -> row:int -> int
(** The deterministic coding coefficient in 1..255 both peers regenerate
    for a (source-symbol id, repair row) pair; never 0. *)
