(** The Plugin Repository (PR): central identities, distributed validation.
    Hosts plugins published by developers, registers validator
    verification keys, and stores each PV's STRs in an append-only
    hash-chained log (Appendix B.1) so equivocation — different STRs for
    the same epoch — is detectable and alerted. *)

type str_entry = {
  str : Validator.str;
  prev_hash : string;
  entry_hash : string;
}

type t

val create : unit -> t

exception Rejected of string

val publish : t -> developer:string -> Pluginop.Plugin.t -> unit
(** Names are globally unique: a second publish under the same name must
    come from the owning developer.
    @raise Rejected on a takeover attempt. *)

val fetch : t -> string -> string option
val plugin_names : t -> string list

val register_pv : t -> id:string -> key:string -> unit
val pv_key : t -> string -> string option

val record_str : t -> Validator.str -> (unit, string) result
(** Append-only: a second, different STR for an already-logged epoch is
    equivocation — it is refused and an alert is raised. *)

val str_at_epoch : t -> string -> int -> Validator.str option

val audit_log : t -> string -> bool
(** Check the hash chain of a PV's STR log; tampering breaks it. *)

val report_alert : t -> string -> unit
val alerts : t -> string list
