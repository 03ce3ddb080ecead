(* Conservative termination checker for pluglets, standing in for the T2
   prover of Section 5. A pluglet is *proven terminating* when every loop in
   it is a [For] (trip count fixed before entry, induction variable never
   reassigned in the body) — helper functions, like T2's "external
   functions", are assumed to terminate. A [While] loop, or a [For] whose
   body writes its induction variable, yields [Unproven] with the reason,
   exactly the situation where the paper authors had to rewrite pluglets
   (bounding list traversals) or gave up (3 multipath pluglets). *)

type verdict = Proven | Unproven of string

let rec check_block loop_vars b =
  List.fold_left
    (fun acc s -> match acc with Unproven _ -> acc | Proven -> check_stmt loop_vars s)
    Proven b

and check_stmt loop_vars = function
  | Ast.Let (x, _) | Ast.Assign (x, _) ->
    if List.mem x loop_vars then
      Unproven (Printf.sprintf "induction variable %s is reassigned" x)
    else Proven
  | Ast.Store _ | Ast.Return _ | Ast.Expr _ -> Proven
  | Ast.If (_, t, f) -> (
    match check_block loop_vars t with
    | Proven -> check_block loop_vars f
    | u -> u)
  | Ast.While _ -> Unproven "contains an unbounded while loop"
  | Ast.For (x, _, _, body) -> check_block (x :: loop_vars) body

let check (f : Ast.func) = check_block [] f.body

let is_proven f = check f = Proven
