(* Trust-system tests: SHA-256 against FIPS vectors, HMAC against RFC 4231,
   Merkle prefix trees (presence/absence proofs, collisions, tampering),
   policy formulas, validators, the repository's equivocation detection and
   the full PV pipeline. *)

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------ sha256 -------------------------------- *)

let test_sha256_vectors () =
  check Alcotest.string "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Trust.Sha256.digest_hex "");
  check Alcotest.string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Trust.Sha256.digest_hex "abc");
  check Alcotest.string "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Trust.Sha256.digest_hex
       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check Alcotest.string "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Trust.Sha256.digest_hex (String.make 1_000_000 'a'))

let test_hmac_vector () =
  (* RFC 4231 test case 2 *)
  check Alcotest.string "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Trust.Sha256.hex
       (Trust.Sha256.hmac ~key:"Jefe" "what do ya want for nothing?"))

let sha256_deterministic_and_sensitive =
  qtest ~count:200 "sha256 is deterministic and bit-sensitive"
    QCheck2.Gen.(string_size ~gen:printable (int_range 1 200))
    (fun s ->
      Trust.Sha256.digest s = Trust.Sha256.digest s
      && Trust.Sha256.digest s <> Trust.Sha256.digest (s ^ "x"))

let test_bit_prefix () =
  (* 0xA5 = 10100101 *)
  let s = "\xA5\xFF" in
  check Alcotest.string "prefix bits" "1010010111"
    (Trust.Sha256.bit_prefix s 10)

(* ------------------------------ merkle -------------------------------- *)

let mk_tree ?(depth = 16) names =
  let t = Trust.Merkle.create ~depth ~empty_constant:(Trust.Sha256.digest "c") () in
  List.iter
    (fun name -> Trust.Merkle.add t { Trust.Merkle.name; code = "code:" ^ name })
    names;
  t

let merkle_presence_proofs =
  qtest ~count:60 "every inserted binding has a valid presence proof"
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 10)))
    (fun names ->
      let names = List.sort_uniq compare names in
      let t = mk_tree names in
      let root = Trust.Merkle.root t in
      List.for_all
        (fun name ->
          Trust.Merkle.verify_present ~root ~depth:16 ~name
            ~code:("code:" ^ name) (Trust.Merkle.prove t name))
        names)

let merkle_wrong_code_rejected =
  qtest ~count:60 "presence proofs bind the exact code"
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 10))
    (fun name ->
      let t = mk_tree [ name; "other" ] in
      let root = Trust.Merkle.root t in
      not
        (Trust.Merkle.verify_present ~root ~depth:16 ~name ~code:"evil"
           (Trust.Merkle.prove t name)))

let merkle_absence_proofs =
  qtest ~count:60 "absent names have valid absence proofs"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 20)
           (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))
        (string_size ~gen:(char_range 'A' 'Z') (int_range 1 8)))
    (fun (names, absent) ->
      let t = mk_tree names in
      let root = Trust.Merkle.root t in
      Trust.Merkle.verify_absent ~root ~depth:16
        ~empty_constant:(Trust.Sha256.digest "c") ~name:absent
        (Trust.Merkle.prove t absent))

let test_merkle_collision_leaf () =
  (* with depth 2 every leaf collides quickly: bindings share leaves and
     presence proofs still verify through the linked list *)
  let t = mk_tree ~depth:2 [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let root = Trust.Merkle.root t in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "proof for %s with colliding leaves" name)
        true
        (Trust.Merkle.verify_present ~root ~depth:2 ~name
           ~code:("code:" ^ name) (Trust.Merkle.prove t name)))
    [ "a"; "b"; "c"; "d"; "e"; "f" ]

let test_merkle_root_changes_on_update () =
  let t = mk_tree [ "a"; "b" ] in
  let r1 = Trust.Merkle.root t in
  Trust.Merkle.add t { Trust.Merkle.name = "a"; code = "new-code" };
  let r2 = Trust.Merkle.root t in
  Alcotest.(check bool) "root is binding-sensitive" true (r1 <> r2)

let test_merkle_remove () =
  let t = mk_tree [ "a"; "b" ] in
  Trust.Merkle.remove t "a";
  check Alcotest.int "one binding left" 1 (Trust.Merkle.size t);
  Alcotest.(check bool) "removed binding absent" true (Trust.Merkle.find t "a" = None)

let test_merkle_proof_serialization () =
  let t = mk_tree [ "alpha"; "beta"; "gamma" ] in
  let proof = Trust.Merkle.prove t "beta" in
  let roundtrip =
    Trust.Merkle.deserialize_proof (Trust.Merkle.serialize_proof proof)
  in
  Alcotest.(check bool) "proof roundtrips" true (roundtrip = proof);
  match Trust.Merkle.deserialize_proof "junk" with
  | exception Trust.Merkle.Malformed_proof -> ()
  | _ -> Alcotest.fail "junk proof accepted"

(* ------------------------------ policy -------------------------------- *)

let test_policy_parse_eval () =
  let f = Trust.Policy.parse "PV1&(PV2|PV3)" in
  let valid_of l id = List.mem id l in
  Alcotest.(check bool) "1+2" true (Trust.Policy.satisfied f ~valid:(valid_of [ "PV1"; "PV2" ]));
  Alcotest.(check bool) "1+3" true (Trust.Policy.satisfied f ~valid:(valid_of [ "PV1"; "PV3" ]));
  Alcotest.(check bool) "2+3 missing PV1" false
    (Trust.Policy.satisfied f ~valid:(valid_of [ "PV2"; "PV3" ]));
  Alcotest.(check bool) "1 alone" false (Trust.Policy.satisfied f ~valid:(valid_of [ "PV1" ]))

let test_policy_validators_listed () =
  let f = Trust.Policy.parse "PV1&(PV2|PV3)" in
  check (Alcotest.list Alcotest.string) "validators in formula"
    [ "PV1"; "PV2"; "PV3" ] (Trust.Policy.validators f)

let test_policy_errors () =
  List.iter
    (fun input ->
      match Trust.Policy.parse input with
      | exception Trust.Policy.Parse_error _ -> ()
      | _ -> Alcotest.failf "bad formula %S accepted" input)
    [ ""; "PV1&"; "(PV1"; "PV1)"; "PV1 PV2"; "&PV1" ]

let policy_roundtrip =
  let gen_formula =
    let open QCheck2.Gen in
    sized
    @@ fix (fun self n ->
           if n <= 0 then map (fun k -> Trust.Policy.Pv (Printf.sprintf "PV%d" k)) (int_range 1 9)
           else
             oneof
               [ map (fun k -> Trust.Policy.Pv (Printf.sprintf "PV%d" k)) (int_range 1 9);
                 map2 (fun a b -> Trust.Policy.And (a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Trust.Policy.Or (a, b)) (self (n / 2)) (self (n / 2)) ])
  in
  qtest ~count:200 "to_string/parse roundtrip preserves satisfaction" gen_formula
    (fun f ->
      let f' = Trust.Policy.parse (Trust.Policy.to_string f) in
      (* equality of semantics over a few valuations *)
      List.for_all
        (fun k ->
          let valid id = Hashtbl.hash (id, k) mod 2 = 0 in
          Trust.Policy.satisfied f ~valid = Trust.Policy.satisfied f' ~valid)
        [ 1; 2; 3; 4; 5 ])

(* ------------------------ validator + repository ----------------------- *)

let mk_system () =
  let repo = Trust.Repository.create () in
  let pvs =
    List.map
      (fun id ->
        let v = Trust.Validator.create ~id ~signing_key:("k" ^ id) () in
        Trust.Repository.register_pv repo ~id ~key:("k" ^ id);
        (id, v))
      [ "PV1"; "PV2"; "PV3" ]
  in
  (repo, pvs, Trust.Pvsystem.create ~repo ~validators:pvs ())

let test_validator_rejects_broken_plugin () =
  let broken =
    {
      Pluginop.Plugin.name = "org.test.broken";
      pluglets =
        [
          {
            Pluginop.Plugin.op = 1;
            param = None;
            anchor = Pluginop.Protoop.Post;
            code = Pluginop.Plugin.Bytecode ([| Ebpf.Insn.Ja 5 |], 512);
          };
        ];
    }
  in
  let v = Trust.Validator.create ~id:"PV" ~signing_key:"k" () in
  (match Trust.Validator.submit v broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unverifiable plugin validated");
  check Alcotest.int "failure recorded" 1 (List.length (Trust.Validator.failures v))

let test_validator_requires_termination () =
  let v =
    Trust.Validator.create ~id:"PV" ~signing_key:"k" ~require_termination_proof:true ()
  in
  (* the RLC FEC plugin has an unprovable pluglet: this strict PV refuses *)
  (match Trust.Validator.submit v Plugins.Fec.rlc_full with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "strict PV accepted an unproven pluglet");
  match Trust.Validator.submit v Plugins.Monitoring.plugin with
  | Ok () -> ()
  | Error e -> Alcotest.failf "strict PV refused a fully proven plugin: %s" e

let test_str_signature () =
  let v = Trust.Validator.create ~id:"PV" ~signing_key:"secret" () in
  ignore (Trust.Validator.submit v Plugins.Datagram.plugin);
  let str = Trust.Validator.publish v in
  Alcotest.(check bool) "good key verifies" true
    (Trust.Validator.check_str ~key:"secret" str);
  Alcotest.(check bool) "wrong key fails" false
    (Trust.Validator.check_str ~key:"wrong" str)

let test_repository_name_ownership () =
  let repo = Trust.Repository.create () in
  Trust.Repository.publish repo ~developer:"alice" Plugins.Datagram.plugin;
  match Trust.Repository.publish repo ~developer:"mallory" Plugins.Datagram.plugin with
  | exception Trust.Repository.Rejected _ -> ()
  | _ -> Alcotest.fail "name takeover allowed"

let test_equivocation_detection () =
  let repo, pvs, _ = mk_system () in
  let v = List.assoc "PV1" pvs in
  ignore (Trust.Validator.submit v Plugins.Datagram.plugin);
  let str1 = Trust.Validator.publish v in
  (match Trust.Repository.record_str repo str1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest STR refused: %s" e);
  (* same epoch, different tree *)
  Trust.Validator.inject_spurious v ~name:"evil" ~code:"evil";
  v.Trust.Validator.epoch <- v.Trust.Validator.epoch - 1;
  let str2 = Trust.Validator.publish v in
  (match Trust.Repository.record_str repo str2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "equivocation not detected");
  Alcotest.(check bool) "alert raised" true
    (List.length (Trust.Repository.alerts repo) > 0);
  Alcotest.(check bool) "hash chain intact" true
    (Trust.Repository.audit_log repo "PV1")

let test_developer_lookup_detects_spurious () =
  let v = Trust.Validator.create ~id:"PV" ~signing_key:"k" () in
  let plugin = Plugins.Datagram.plugin in
  ignore (Trust.Validator.submit v plugin);
  ignore (Trust.Validator.publish v);
  let code = Pluginop.Plugin.serialize plugin in
  (match Trust.Validator.developer_check v ~name:plugin.Pluginop.Plugin.name ~code with
  | Trust.Validator.Clean -> ()
  | _ -> Alcotest.fail "clean tree flagged");
  Trust.Validator.inject_spurious v ~name:plugin.Pluginop.Plugin.name ~code:"evil";
  ignore (Trust.Validator.publish v);
  match Trust.Validator.developer_check v ~name:plugin.Pluginop.Plugin.name ~code with
  | Trust.Validator.Clean -> Alcotest.fail "spurious binding missed"
  | Trust.Validator.Spurious _ | Trust.Validator.Tampered -> ()

let test_pvsystem_formula_enforced () =
  let _, _, system = mk_system () in
  let plugin = Plugins.Datagram.plugin in
  ignore (Trust.Pvsystem.publish_and_validate system ~developer:"dev" plugin);
  Trust.Pvsystem.publish_epoch system;
  let name = plugin.Pluginop.Plugin.name in
  let bytes = Pluginop.Plugin.serialize plugin in
  (* prover can satisfy PV1&PV2 *)
  (match Trust.Pvsystem.prover system ~name ~formula:"PV1&PV2" with
  | Some proof ->
    Alcotest.(check bool) "verifier accepts" true
      (Trust.Pvsystem.verifier system ~formula:"PV1&PV2" ~name ~bytes ~proof);
    (* a verifier pinning an unsatisfiable formula refuses the same bundle *)
    Alcotest.(check bool) "stricter formula refuses" false
      (Trust.Pvsystem.verifier system ~formula:"PV9" ~name ~bytes ~proof)
  | None -> Alcotest.fail "prover failed");
  (* unknown validator in the formula: the prover cannot satisfy it *)
  match Trust.Pvsystem.prover system ~name ~formula:"PV9" with
  | None -> ()
  | Some _ -> Alcotest.fail "prover satisfied an unknown validator"

let test_pvsystem_unvalidated_plugin () =
  let _, _, system = mk_system () in
  match
    Trust.Pvsystem.prover system ~name:"never.validated" ~formula:"PV1"
  with
  | None -> ()
  | Some _ -> Alcotest.fail "proof produced for an unvalidated plugin"

let tests =
  [
    ("sha256", [
      Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
      Alcotest.test_case "hmac rfc4231" `Quick test_hmac_vector;
      Alcotest.test_case "bit prefix" `Quick test_bit_prefix;
      sha256_deterministic_and_sensitive;
    ]);
    ("merkle", [
      Alcotest.test_case "collision leaf" `Quick test_merkle_collision_leaf;
      Alcotest.test_case "root sensitivity" `Quick test_merkle_root_changes_on_update;
      Alcotest.test_case "remove" `Quick test_merkle_remove;
      Alcotest.test_case "proof serialization" `Quick test_merkle_proof_serialization;
      merkle_presence_proofs;
      merkle_wrong_code_rejected;
      merkle_absence_proofs;
    ]);
    ("policy", [
      Alcotest.test_case "parse + eval" `Quick test_policy_parse_eval;
      Alcotest.test_case "validators listed" `Quick test_policy_validators_listed;
      Alcotest.test_case "parse errors" `Quick test_policy_errors;
      policy_roundtrip;
    ]);
    ("validators", [
      Alcotest.test_case "rejects broken plugin" `Quick test_validator_rejects_broken_plugin;
      Alcotest.test_case "termination requirement" `Quick test_validator_requires_termination;
      Alcotest.test_case "STR signatures" `Quick test_str_signature;
      Alcotest.test_case "name ownership" `Quick test_repository_name_ownership;
      Alcotest.test_case "equivocation" `Quick test_equivocation_detection;
      Alcotest.test_case "developer lookup" `Quick test_developer_lookup_detects_spurious;
      Alcotest.test_case "formula enforcement" `Quick test_pvsystem_formula_enforced;
      Alcotest.test_case "unvalidated plugin" `Quick test_pvsystem_unvalidated_plugin;
    ]);
  ]
