(* Compression, WSP experimental design and statistics. *)

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------ lzss ---------------------------------- *)

let lzss_roundtrip =
  qtest ~count:300 "lzss roundtrip on arbitrary strings"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 5000))
    (fun s -> Compress.Lzss.decompress (Compress.Lzss.compress s) = s)

let lzss_repetitive_shrinks =
  qtest ~count:50 "repetitive input compresses"
    QCheck2.Gen.(pair (string_size ~gen:printable (int_range 4 40)) (int_range 10 100))
    (fun (unit, reps) ->
      let s = String.concat "" (List.init reps (fun _ -> unit)) in
      String.length (Compress.Lzss.compress s) < String.length s)

let test_lzss_empty () =
  check Alcotest.string "empty" "" (Compress.Lzss.decompress (Compress.Lzss.compress ""))

let test_lzss_corrupt () =
  (* a back-reference pointing before the start of output *)
  let bogus = "\x01\xFF\xF5" in
  match Compress.Lzss.decompress bogus with
  | exception Compress.Lzss.Corrupt -> ()
  | _ -> Alcotest.fail "corrupt stream accepted"

let test_lzss_plugin_ratio () =
  (* pluglets share code: the paper's Table 2 relies on this compressing *)
  let bytes = Pluginop.Plugin.serialize Plugins.Fec.rlc_full in
  let ratio =
    float_of_int (String.length (Compress.Lzss.compress bytes))
    /. float_of_int (String.length bytes)
  in
  check Alcotest.bool (Printf.sprintf "ratio %.2f < 0.5" ratio) true (ratio < 0.5)

(* ------------------------------- wsp ---------------------------------- *)

let test_wsp_count_and_ranges () =
  let pts =
    Exp.Wsp.design ~count:139
      [| { Exp.Wsp.lo = 2.5; hi = 25. }; { Exp.Wsp.lo = 5.; hi = 50. } |]
  in
  check Alcotest.int "exactly 139 points" 139 (List.length pts);
  List.iter
    (fun p ->
      Alcotest.(check bool) "in range" true
        (p.(0) >= 2.5 && p.(0) <= 25. && p.(1) >= 5. && p.(1) <= 50.))
    pts

let test_wsp_space_filling () =
  (* WSP's purpose: no two kept points closer than the tuned dmin; check a
     weaker invariant — the minimum pairwise distance is not tiny *)
  let pts =
    Exp.Wsp.design ~count:50 [| { Exp.Wsp.lo = 0.; hi = 1. }; { Exp.Wsp.lo = 0.; hi = 1. } |]
    |> Array.of_list
  in
  let dmin = ref infinity in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then
            dmin :=
              min !dmin
                (sqrt (((a.(0) -. b.(0)) ** 2.) +. ((a.(1) -. b.(1)) ** 2.))))
        pts)
    pts;
  check Alcotest.bool (Printf.sprintf "min distance %.4f" !dmin) true (!dmin > 0.01)

let test_wsp_deterministic () =
  let d () =
    Exp.Wsp.design ~count:20 [| { Exp.Wsp.lo = 0.; hi = 1. } |]
  in
  Alcotest.(check bool) "same seed, same design" true (d () = d ())

(* ------------------------------ stats --------------------------------- *)

let test_stats_percentiles () =
  let vs = [ 1.; 2.; 3.; 4.; 5. ] in
  check (Alcotest.float 1e-9) "median" 3. (Exp.Stats.median vs);
  check (Alcotest.float 1e-9) "p0" 1. (Exp.Stats.percentile 0. vs);
  check (Alcotest.float 1e-9) "p100" 5. (Exp.Stats.percentile 100. vs);
  check (Alcotest.float 1e-9) "p25" 2. (Exp.Stats.percentile 25. vs)

let stats_cdf_monotone =
  qtest ~count:100 "cdf is monotone and ends at 1"
    QCheck2.Gen.(list_size (int_range 1 100) (float_bound_inclusive 1000.))
    (fun vs ->
      let cdf = Exp.Stats.cdf vs in
      let rec mono = function
        | (x1, p1) :: ((x2, p2) :: _ as rest) ->
          x1 <= x2 && p1 <= p2 && mono rest
        | _ -> true
      in
      mono cdf && snd (List.nth cdf (List.length cdf - 1)) = 1.)

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "constant data" 0. (Exp.Stats.stddev [ 5.; 5.; 5. ]);
  check (Alcotest.float 1e-6) "known sample" 1. (Exp.Stats.stddev [ 1.; 2.; 3. ])

let tests =
  [
    ("lzss", [
      Alcotest.test_case "empty" `Quick test_lzss_empty;
      Alcotest.test_case "corrupt" `Quick test_lzss_corrupt;
      Alcotest.test_case "plugin ratio" `Quick test_lzss_plugin_ratio;
      lzss_roundtrip;
      lzss_repetitive_shrinks;
    ]);
    ("wsp", [
      Alcotest.test_case "count + ranges" `Quick test_wsp_count_and_ranges;
      Alcotest.test_case "space filling" `Quick test_wsp_space_filling;
      Alcotest.test_case "deterministic" `Quick test_wsp_deterministic;
    ]);
    ("stats", [
      Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
      Alcotest.test_case "stddev" `Quick test_stats_stddev;
      stats_cdf_monotone;
    ]);
  ]
