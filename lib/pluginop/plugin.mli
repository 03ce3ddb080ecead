(** Protocol plugins: a globally unique name plus pluglets and the manifest
    linking each pluglet to a protocol operation and anchor (Section 2).

    Pluglet code is either plc source (developer side: compilable,
    termination-checkable, countable in LoC) or raw eBPF bytecode — what
    travels on the wire; receivers only ever see platform-independent
    bytecode. The serialized form stands in for the paper's ELF files; its
    binding (name || code) is what the trust system's Merkle trees
    authenticate. *)

type code =
  | Source of Plc.Ast.func
  | Bytecode of Ebpf.Insn.t array * int (** program, stack size *)

type pluglet = {
  op : Protoop.id;
  param : int option; (** frame type, for the four parameterized operations *)
  anchor : Protoop.anchor;
  code : code;
}

type t = { name : string; pluglets : pluglet list }

exception Malformed of string

val compiled : pluglet -> Ebpf.Insn.t array * int
(** The pluglet's bytecode and stack size, compiling source on demand.
    @raise Plc.Compile.Error when source compilation fails *)

val code_key : Ebpf.Insn.t array -> int -> string
(** Content address of an executable form (bytecode digest + stack size):
    the key under which the PREs' program cache shares one verified
    and jitted compilation between identical pluglets. *)

val serialize : t -> string
(** Deterministic wire form — the unit published to the Plugin Repository
    and exchanged over connections. *)

val deserialize : string -> t
(** @raise Malformed on truncated or corrupt input. *)

val binding : t -> string
(** [name || code], the value validators put in their Merkle trees. *)

val elf_size : t -> int

(** Table 2 statistics. LoC and termination verdicts need source pluglets;
    bytecode-only pluglets count as unproven. *)
type stats = {
  name : string;
  loc : int;
  pluglet_count : int;
  proven_terminating : int;
  elf_size : int;
}

val stats : t -> stats
