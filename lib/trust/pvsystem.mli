(** End-to-end glue of the secure plugin management system (Figure 4):
    builds the prover a PQUIC peer uses to answer PLUGIN_VALIDATE with a
    PLUGIN_PROOF bundle, and the verifier the receiving peer runs against
    the STRs of the validators it trusts, under its pinned requirement
    formula. *)

type t

val create :
  ?depth:int -> repo:Repository.t ->
  validators:(string * Validator.t) list -> unit -> t

type proof_item = {
  pv_id : string;
  str : Validator.str;
  path : Merkle.proof;
}

val serialize_bundle : proof_item list -> string

exception Malformed_bundle

val deserialize_bundle : string -> proof_item list

val prover : t -> name:string -> formula:string -> string option
(** Gather authentication paths from the validators named in the peer's
    formula; [None] when the requirement cannot be met. *)

val verifier :
  t -> formula:string ->
  name:string -> bytes:string -> proof:string -> bool
(** Check each path against the (non-equivocating) logged STR of its
    validator and accept when the receiver's own pinned [formula] is
    satisfied by the validators with valid proofs. *)

val publish_and_validate :
  t -> developer:string -> Pluginop.Plugin.t -> (string * (unit, string) result) list
(** Developer → PR → every PV, returning each validator's verdict. *)

val publish_epoch : t -> unit
(** Close the epoch at every validator and record the STRs at the PR. *)
