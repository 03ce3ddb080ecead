module Insn = Ebpf.Insn
(* A small structured language in which pluglets are written, standing in
   for the paper's C-compiled-to-eBPF pipeline. Every value is a 64-bit
   integer; pointers into VM regions are plain integers. Helper functions
   (the PQUIC API of Table 1) are called by name and resolved to eBPF helper
   ids at compile time.

   [While] loops are general and defeat the termination checker; a [For]
   loop evaluates its bound once and is provable when its body does not
   reassign the induction variable (a body that does is legal but
   unproven) — mirroring the paper's trick of adding explicit sizes to
   bound list traversals (Section 5). *)

type size = Insn.size

type binop =
  | Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge          (* unsigned comparisons *)
  | Slt | Sle | Sgt | Sge                (* signed comparisons *)

type expr =
  | Const of int64
  | Var of string
  | Bin of binop * expr * expr
  | Not of expr                           (* logical negation: e = 0 ? 1 : 0 *)
  | Load of size * expr                   (* *(e) *)
  | Call of string * expr list            (* helper call, at most 5 args *)

type stmt =
  | Let of string * expr                  (* declare and initialize a local *)
  | Assign of string * expr
  | Store of size * expr * expr           (* *(addr) <- value *)
  | If of expr * block * block
  | While of expr * block
  | For of string * expr * expr * block   (* for v = lo; v < hi; v++ *)
  | Return of expr
  | Expr of expr                          (* evaluate for effect *)

and block = stmt list

(* A pluglet: a single entry function with up to 5 parameters. *)
type func = { name : string; params : string list; body : block }

let i n = Const (Int64.of_int n)
let ( +: ) a b = Bin (Add, a, b)
let ( -: ) a b = Bin (Sub, a, b)
let ( *: ) a b = Bin (Mul, a, b)
let ( /: ) a b = Bin (Div, a, b)
let ( %: ) a b = Bin (Mod, a, b)
let ( =: ) a b = Bin (Eq, a, b)
let ( <>: ) a b = Bin (Ne, a, b)
let ( <: ) a b = Bin (Lt, a, b)
let ( <=: ) a b = Bin (Le, a, b)
let ( >: ) a b = Bin (Gt, a, b)
let ( >=: ) a b = Bin (Ge, a, b)
let ( &&: ) a b = Bin (And, Bin (Ne, a, i 0), Bin (Ne, b, i 0))
let ( ||: ) a b = Bin (Or, Bin (Ne, a, i 0), Bin (Ne, b, i 0))
let v x = Var x

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | And -> "&" | Or -> "|" | Xor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">"
  | Ge -> ">=" | Slt -> "<s" | Sle -> "<=s" | Sgt -> ">s" | Sge -> ">=s"

let size_suffix = function
  | Insn.W8 -> "8" | Insn.W16 -> "16" | Insn.W32 -> "32" | Insn.W64 -> "64"

let rec pp_expr ppf = function
  | Const n -> Fmt.pf ppf "%Ld" n
  | Var x -> Fmt.string ppf x
  | Bin (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Not e -> Fmt.pf ppf "!%a" pp_expr e
  | Load (sz, e) -> Fmt.pf ppf "load%s(%a)" (size_suffix sz) pp_expr e
  | Call (f, args) ->
    Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") pp_expr) args

let rec pp_stmt ind ppf s =
  let pad = String.make ind ' ' in
  match s with
  | Let (x, e) -> Fmt.pf ppf "%slet %s = %a;" pad x pp_expr e
  | Assign (x, e) -> Fmt.pf ppf "%s%s = %a;" pad x pp_expr e
  | Store (sz, a, e) ->
    Fmt.pf ppf "%sstore%s(%a, %a);" pad (size_suffix sz) pp_expr a pp_expr e
  | If (c, t, []) ->
    Fmt.pf ppf "%sif %a {@.%a@.%s}" pad pp_expr c (pp_block (ind + 2)) t pad
  | If (c, t, f) ->
    Fmt.pf ppf "%sif %a {@.%a@.%s} else {@.%a@.%s}" pad pp_expr c
      (pp_block (ind + 2)) t pad (pp_block (ind + 2)) f pad
  | While (c, b) ->
    Fmt.pf ppf "%swhile %a {@.%a@.%s}" pad pp_expr c (pp_block (ind + 2)) b pad
  | For (x, lo, hi, b) ->
    Fmt.pf ppf "%sfor %s in %a .. %a {@.%a@.%s}" pad x pp_expr lo pp_expr hi
      (pp_block (ind + 2)) b pad
  | Return e -> Fmt.pf ppf "%sreturn %a;" pad pp_expr e
  | Expr e -> Fmt.pf ppf "%s%a;" pad pp_expr e

and pp_block ind ppf b =
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any "@.") (pp_stmt ind)) b

let pp_func ppf f =
  Fmt.pf ppf "fn %s(%a) {@.%a@.}@." f.name
    Fmt.(list ~sep:(any ", ") string)
    f.params (pp_block 2) f.body

let source f = Fmt.str "%a" pp_func f

(* Source line count of the pretty-printed pluglet: the "LoC" figure
   reported in Table 2. *)
let lines_of_code f =
  String.split_on_char '\n' (source f)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length
