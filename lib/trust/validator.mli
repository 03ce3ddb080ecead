(** A Plugin Validator (PV): validates plugin bindings, maintains a Merkle
    prefix tree of the plugins it vouches for, and signs its root at each
    epoch (the Signed Tree Root). Validation applies the static checks a
    PRE would run (eBPF verification of every pluglet) and — for strict
    validators holding the source — the Section 5 termination check. *)

type str = { pv_id : string; epoch : int; root : string; signature : string }

type failure = { plugin : string; epoch : int; reason : string }

type t = {
  id : string;
  signing_key : string;
  mutable epoch : int;
  tree : Merkle.t;
  mutable current_str : str option;
  mutable failures : failure list;
  require_termination_proof : bool;
  depth : int;
}

val create :
  ?depth:int -> ?require_termination_proof:bool -> id:string ->
  signing_key:string -> unit -> t

val check_str : key:string -> str -> bool
(** STR signature check, runnable by anyone holding the PV's verification
    key (registered at the repository). *)

val validate_plugin : t -> Pluginop.Plugin.t -> (unit, string) result

val submit : t -> Pluginop.Plugin.t -> (unit, string) result
(** Validate at the current epoch; success puts the binding in the tree,
    failure records the cause for the repository. *)

val inject_spurious : t -> name:string -> code:string -> unit
(** A malicious validator planting a binding — used by tests and the
    Appendix B analysis to show developers detect it. *)

val publish : t -> str
(** Close the epoch: recompute the root and sign it. *)

val current_str : t -> str

val prove : t -> string -> Merkle.proof option
(** PQUIC user lookup: the authentication path, Θ(log n + α); co-located
    bindings come as hashes only (the Appendix B bandwidth optimization). *)

val developer_lookup : t -> string -> Merkle.proof * Merkle.binding list
(** Developer lookup: same path, but co-located bindings in clear text so
    the developer can spot a spurious binding under their name. *)

type developer_verdict = Clean | Spurious of string list | Tampered

val developer_check : t -> name:string -> code:string -> developer_verdict
val failures : t -> failure list
