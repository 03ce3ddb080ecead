(* A Plugin Validator (PV): validates plugin bindings, maintains a Merkle
   prefix tree of the plugins it vouches for, and signs its root at each
   epoch (the STR). Validation applies the static checks a PRE would run
   (eBPF verification of every pluglet) and, when the source is available,
   the termination check of Section 5 — mirroring "the validation itself
   depends on the PV capabilities". *)

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

let create ?(depth = 16) ?(require_termination_proof = false) ~id ~signing_key () =
  {
    id;
    signing_key;
    epoch = 0;
    (* the empty-leaf constant c is distinct per PV (Section 3.3) *)
    tree = Merkle.create ~depth ~empty_constant:(Sha256.digest ("empty:" ^ id)) ();
    current_str = None;
    failures = [];
    require_termination_proof;
    depth;
  }

let str_payload ~pv_id ~epoch ~root =
  Printf.sprintf "STR|%s|%d|" pv_id epoch ^ root

let sign_str t root =
  {
    pv_id = t.id;
    epoch = t.epoch;
    root;
    signature = Sha256.hmac ~key:t.signing_key (str_payload ~pv_id:t.id ~epoch:t.epoch ~root);
  }

(* STR signature check — any participant holding the PV's verification key
   (here: the MAC key registered at the PR) can run it. *)
let check_str ~key (s : str) =
  Sha256.hmac ~key (str_payload ~pv_id:s.pv_id ~epoch:s.epoch ~root:s.root)
  = s.signature

(* The actual validation work on a submitted plugin. *)
let validate_plugin t (plugin : Pluginop.Plugin.t) =
  let check_pluglet (p : Pluginop.Plugin.pluglet) =
    match Pluginop.Plugin.compiled p with
    | exception Plc.Compile.Error m -> Error ("compilation failed: " ^ m)
    | prog, stack_size -> (
      match
        Ebpf.Verifier.verify ~stack_size
          ~known_helper:Pluginop.Api.is_known_helper prog
      with
      | Error errs ->
        Error
          ("verifier: "
           ^ String.concat "; " (List.map Ebpf.Verifier.error_to_string errs))
      | Ok () ->
        if t.require_termination_proof then
          match p.Pluginop.Plugin.code with
          | Pluginop.Plugin.Source f -> (
            match Plc.Terminate.check f with
            | Plc.Terminate.Proven -> Ok ()
            | Plc.Terminate.Unproven why ->
              Error ("termination not proven: " ^ why))
          | Pluginop.Plugin.Bytecode _ ->
            Error "termination proof requires source"
        else Ok ())
  in
  let rec all = function
    | [] -> Ok ()
    | p :: rest -> ( match check_pluglet p with Ok () -> all rest | e -> e)
  in
  all plugin.Pluginop.Plugin.pluglets

(* Submit a plugin for validation at the current epoch. On success its
   binding enters the tree; on failure the cause is recorded for the PR. *)
let submit t (plugin : Pluginop.Plugin.t) =
  match validate_plugin t plugin with
  | Ok () ->
    Merkle.add t.tree
      {
        Merkle.name = plugin.Pluginop.Plugin.name;
        code = Pluginop.Plugin.serialize plugin;
      };
    Ok ()
  | Error reason ->
    t.failures <-
      { plugin = plugin.Pluginop.Plugin.name; epoch = t.epoch; reason }
      :: t.failures;
    Error reason

(* Inject a spurious binding — used by tests and the security analysis to
   show developers detect it (Appendix B.2). *)
let inject_spurious t ~name ~code = Merkle.add t.tree { Merkle.name; code }

(* Close the epoch: recompute the tree root and sign it. *)
let publish t =
  t.epoch <- t.epoch + 1;
  let s = sign_str t (Merkle.root t.tree) in
  t.current_str <- Some s;
  s

let current_str t =
  match t.current_str with Some s -> s | None -> publish t

(* PQUIC user lookup: authentication path for a plugin name, Θ(log n + α).
   Other bindings at the leaf are returned as hashes only (bandwidth
   optimization of Appendix B.2.1). *)
let prove t name =
  match Merkle.find t.tree name with
  | None -> None
  | Some _ -> Some (Merkle.prove t.tree name)

(* Developer lookup: same path, but co-located bindings in clear text so
   the developer can spot a spurious binding under their name. *)
let developer_lookup t name =
  let proof = Merkle.prove t.tree name in
  let leaf =
    Option.value ~default:[]
      (Hashtbl.find_opt t.tree.Merkle.leaves (Merkle.prefix_of t.tree name))
  in
  (proof, leaf)

(* The developer-side checks of Appendix B.1: verify that the leaf contains
   exactly our binding (or none), and that it folds to the signed root. *)
type developer_verdict = Clean | Spurious of string list | Tampered

let developer_check t ~name ~code =
  let _, leaf = developer_lookup t name in
  let str = current_str t in
  let mine, others = List.partition (fun b -> b.Merkle.name = name) leaf in
  let spurious =
    List.filter_map
      (fun (b : Merkle.binding) ->
        match mine with
        | [ m ] when m.code = b.code -> None
        | _ -> Some b.Merkle.name)
      mine
  in
  ignore others;
  let root_ok =
    match mine with
    | [] ->
      let proof = Merkle.prove t.tree name in
      Merkle.verify_absent ~root:str.root ~depth:t.depth
        ~empty_constant:t.tree.Merkle.empty_leaf ~name proof
    | _ ->
      let proof = Merkle.prove t.tree name in
      Merkle.verify_present ~root:str.root ~depth:t.depth ~name ~code proof
  in
  if not root_ok then
    (* either our code was replaced or the tree does not match the STR *)
    if mine <> [] && (List.hd mine).code <> code then Spurious [ name ]
    else Tampered
  else if spurious <> [] then Spurious spurious
  else Clean

let failures t = t.failures
