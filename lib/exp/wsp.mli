(** WSP space-filling experimental design (Santiago, Claeys-Bruno &
    Sergent 2012), as the paper uses to sample its network-parameter
    spaces into 139 points: from a large candidate set, keep a point,
    discard candidates closer than dmin, hop to the nearest survivor,
    repeat — with dmin tuned by bisection to the requested size. *)

type range = { lo : float; hi : float }

val design : count:int -> range array -> float array list
(** [design ~count ranges] returns exactly [count] points (arrays indexed
    like [ranges]), chosen deterministically from 4096 candidates drawn
    from a fixed seed. *)
