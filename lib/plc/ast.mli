(** The plugin language pluglets are written in — the stand-in for the
    paper's C-compiled-to-eBPF pipeline. Every value is a 64-bit integer;
    pointers into VM regions are plain integers. Helper functions (the
    PQUIC API of Table 1) are called by name and resolved to eBPF helper
    ids at compile time ({!Compile}).

    [While] loops are general and defeat the termination checker
    ({!Terminate}); a [For] loop evaluates its bound once, into a hidden
    local, and is provable when its body leaves the induction variable
    alone — mirroring the paper's trick of bounding list traversals with
    explicit sizes (Section 5). A body may reassign the induction
    variable: that is legal, the increment then applies to the value the
    body left, and the loop is left unproven. *)

module Insn = Ebpf.Insn

type size = Insn.size

(** Binary operators. [Lt]..[Ge] compare unsigned, [Slt]..[Sge] signed;
    comparisons yield 0 or 1. Division and modulo follow eBPF semantics
    (division by zero yields 0, modulo by zero keeps the dividend). *)
type binop =
  | Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Slt | Sle | Sgt | Sge

type expr =
  | Const of int64
  | Var of string
  | Bin of binop * expr * expr
  | Not of expr                  (** logical negation: 1 when the operand is 0 *)
  | Load of size * expr          (** memory read at an address expression *)
  | Call of string * expr list   (** helper call, at most 5 arguments *)

type stmt =
  | Let of string * expr         (** declare (or re-bind) a local *)
  | Assign of string * expr
  | Store of size * expr * expr  (** [Store (sz, addr, value)] *)
  | If of expr * block * block
  | While of expr * block
  | For of string * expr * expr * block
      (** [For (v, lo, hi, body)]: v = lo; while v <u hi do body;
          v := v + 1 (hi evaluated once, before lo) *)
  | Return of expr
  | Expr of expr                 (** evaluate for effect *)

and block = stmt list

(** A pluglet: a single entry function with up to 5 parameters (arriving
    in r1..r5). *)
type func = { name : string; params : string list; body : block }

(** {2 Construction shorthand} *)

val i : int -> expr
val v : string -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
(** Logical conjunction of truthiness (not bitwise). *)

val ( ||: ) : expr -> expr -> expr

(** {2 Pretty-printing} *)

val binop_name : binop -> string
val pp_expr : expr Fmt.t
val pp_func : func Fmt.t

val source : func -> string
(** The pluglet rendered as source text. *)

val lines_of_code : func -> int
(** Non-blank source lines — the "LoC" figure of Table 2. *)
