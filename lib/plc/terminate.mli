(** Conservative termination checking of pluglets — the stand-in for the
    paper's T2 prover (Section 5).

    A pluglet is {e proven terminating} when every loop in it is a
    [For] (trip count fixed before entry, induction variable never
    reassigned); helper calls, like T2's external functions, are assumed
    to terminate. A [While] loop yields {!Unproven} with the reason —
    exactly the situation where the paper's authors had to rewrite
    pluglets (bounding list traversals) or gave up. *)

type verdict = Proven | Unproven of string

val check : Ast.func -> verdict
val is_proven : Ast.func -> bool
