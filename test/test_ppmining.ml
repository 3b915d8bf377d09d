(* End-to-end privacy-preserving mining tests: exactness under the identity
   operator, recovery of planted itemsets under real randomization, and the
   accuracy bookkeeping. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm_mining
open Ppdm

let identity_scheme universe = Randomizer.uniform ~universe ~p_keep:1. ~p_add:0.

let itemset_list result =
  List.map (fun d -> d.Ppmining.itemset) result.Ppmining.discovered

let test_identity_equals_apriori () =
  let rng = Rng.create ~seed:1 () in
  let params = { Quest.default with n_transactions = 800; universe = 60 } in
  let db = Quest.generate rng params in
  let scheme = identity_scheme 60 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let min_support = 0.04 in
  let truth = Apriori.mine db ~min_support in
  let mined = Ppmining.mine ~scheme ~data ~min_support () in
  Alcotest.(check (list string)) "same itemsets as Apriori"
    (List.map (fun (s, _) -> Itemset.to_string s) truth)
    (List.map Itemset.to_string (itemset_list mined));
  (* estimates equal the exact supports *)
  List.iter2
    (fun (s, c) d ->
      Alcotest.(check string) "aligned" (Itemset.to_string s)
        (Itemset.to_string d.Ppmining.itemset);
      Alcotest.(check (float 1e-9)) "support exact"
        (float_of_int c /. float_of_int (Db.length db))
        d.Ppmining.est_support)
    truth mined.Ppmining.discovered;
  let acc = Ppmining.accuracy_vs ~truth ~mined in
  Alcotest.(check int) "no false positives" 0 acc.Ppmining.false_positives;
  Alcotest.(check int) "no false drops" 0 acc.Ppmining.false_drops;
  Alcotest.(check int) "all found" (List.length truth) acc.Ppmining.true_positives

let test_planted_recovery_under_randomization () =
  let universe = 120 and size = 6 and count = 15_000 in
  let rng = Rng.create ~seed:2 () in
  let itemset = Itemset.of_list [ 4; 9 ] in
  let db = Simple.planted rng ~universe ~size ~count ~itemset ~support:0.25 in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:6 ~rho:0.03 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined = Ppmining.mine ~scheme ~data ~min_support:0.15 ~max_size:2 () in
  Alcotest.(check bool) "planted pair discovered" true
    (List.exists (fun s -> Itemset.equal s itemset) (itemset_list mined));
  (* its estimate should be near the truth *)
  let d =
    List.find (fun d -> Itemset.equal d.Ppmining.itemset itemset) mined.Ppmining.discovered
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f within 5 sigma of 0.25" d.Ppmining.est_support)
    true
    (Float.abs (d.Ppmining.est_support -. 0.25) < 5. *. d.Ppmining.sigma)

let test_max_size_respected () =
  let rng = Rng.create ~seed:3 () in
  let db = Quest.generate rng { Quest.default with n_transactions = 500; universe = 50 } in
  let scheme = identity_scheme 50 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined = Ppmining.mine ~scheme ~data ~min_support:0.02 ~max_size:1 () in
  List.iter
    (fun d -> Alcotest.(check int) "singletons only" 1 (Itemset.cardinal d.Ppmining.itemset))
    mined.Ppmining.discovered

let test_explored_superset () =
  let rng = Rng.create ~seed:4 () in
  let db = Quest.generate rng { Quest.default with n_transactions = 500; universe = 50 } in
  let scheme = Randomizer.cut_and_paste ~universe:50 ~cutoff:8 ~rho:0.05 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined = Ppmining.mine ~scheme ~data ~min_support:0.05 ~max_size:3 () in
  let explored = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace explored d.Ppmining.itemset ()) mined.Ppmining.explored;
  List.iter
    (fun d ->
      Alcotest.(check bool) "discovered is explored" true
        (Hashtbl.mem explored d.Ppmining.itemset))
    mined.Ppmining.discovered;
  Alcotest.(check bool) "explored at least as large" true
    (List.length mined.Ppmining.explored >= List.length mined.Ppmining.discovered)

let planted ~universe ~n ~pattern ~noise rng =
  Db.create ~universe
    (Array.init n (fun i ->
         let extra = List.init (i mod 4) (fun _ -> Rng.int rng noise) in
         if i mod 3 = 0 then Itemset.of_list extra
         else Itemset.of_list (pattern @ extra)))

let test_level_two_fast_path_consistency () =
  (* the engine path (per-class counts, inclusion-exclusion) must agree
     exactly with the generic per-candidate estimator at levels 2 and 3 *)
  let rng = Rng.create ~seed:6 () in
  let universe = 40 in
  let db = Quest.generate rng { Quest.default with n_transactions = 600; universe } in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:6 ~rho:0.08 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined =
    Ppmining.mine ~scheme ~data ~min_support:0.03 ~max_size:3 ~sigma_cap:1. ()
  in
  let explored mined k =
    List.filter (fun d -> Itemset.cardinal d.Ppmining.itemset = k) mined.Ppmining.explored
  in
  let bits = Alcotest.testable (fun f x -> Format.fprintf f "%h" x) ( = ) in
  let exact ~scheme ~data ds =
    List.iter
      (fun d ->
        let direct = Estimator.estimate ~scheme ~data ~itemset:d.Ppmining.itemset in
        Alcotest.check bits
          (Itemset.to_string d.Ppmining.itemset ^ " support")
          direct.Estimator.support d.Ppmining.est_support;
        Alcotest.check bits
          (Itemset.to_string d.Ppmining.itemset ^ " sigma")
          direct.Estimator.sigma d.Ppmining.sigma)
      ds
  in
  Alcotest.(check bool) "some pairs explored" true (explored mined 2 <> []);
  exact ~scheme ~data (explored mined 2 @ explored mined 3);
  (* level 3 needs co-occurring triples: plant one *)
  let universe = 20 in
  let db = planted ~universe ~n:600 ~pattern:[ 2; 7; 11 ] ~noise:universe rng in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:4 ~rho:0.05 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined =
    Ppmining.mine ~scheme ~data ~min_support:0.1 ~max_size:3 ~sigma_cap:1. ()
  in
  Alcotest.(check bool) "some triples explored" true (explored mined 3 <> []);
  exact ~scheme ~data (explored mined 2 @ explored mined 3)

(* The engine path against the per-candidate scan, on the shapes the
   layout has to get right. *)
let scan_case ~name ?(max_size = 3) ?(min_support = 0.1) ~scheme db =
  let rng = Rng.create ~seed:(Db.length db) () in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let explored =
    List.length
      (Ppmining.mine ~max_size ~sigma_cap:1. ~scheme ~data ~min_support ())
        .Ppmining.explored
  in
  let verdict =
    Ppdm_check.Oracle.ppmining_matches_scan ~max_size ~sigma_cap:1. ~scheme
      ~data ~min_support ()
  in
  Alcotest.(check bool) (name ^ ": explores beyond level 1") true (explored > 0);
  match verdict with Ok () -> () | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_engine_matches_scan () =
  let rng = Rng.create ~seed:21 () in
  (* universe > 1024: the old sparse level-2 path *)
  let universe = 1100 in
  let noise_items = List.init 6 (fun i -> 1040 + i) in
  let db =
    Db.create ~universe
      (Array.init 300 (fun i ->
           Itemset.of_list
             ((if i mod 2 = 0 then [ 1050; 1051; 1090 ] else [ 1051 ])
             @ [ List.nth noise_items (i mod 6) ])))
  in
  scan_case ~name:"universe 1100"
    ~scheme:(Randomizer.cut_and_paste ~universe ~cutoff:3 ~rho:0.001)
    db;
  (* itemsets up to size 4: 4-subset inclusion-exclusion *)
  let db = planted ~universe:12 ~n:400 ~pattern:[ 1; 2; 3; 4 ] ~noise:12 rng in
  scan_case ~name:"max size 4" ~max_size:4
    ~scheme:(Randomizer.uniform ~universe:12 ~p_keep:0.85 ~p_add:0.05)
    db;
  (* size-0 rows (every third row of [planted] is empty or nearly so) and
     classes of 1..3 rows, none a multiple of 62 *)
  let db =
    Db.append
      (Db.create ~universe:10 (Array.make 7 Itemset.empty))
      (planted ~universe:10 ~n:187 ~pattern:[ 0; 5 ] ~noise:10 rng)
  in
  scan_case ~name:"size-0 rows"
    ~scheme:(Randomizer.cut_and_paste ~universe:10 ~cutoff:3 ~rho:0.1)
    db;
  (* surviving items and pairs below the dense cutoff (1/62 of the
     rows): their tid-sets are sparse arrays, filled in data order, which
     interleaves the two size classes *)
  let db =
    Db.create ~universe:300
      (Array.init 620 (fun i ->
           Itemset.of_list
             ([ 100 + (i mod 70); 200 + (i mod 70) ]
             @ if i mod 3 = 0 then [ i mod 7; 7 + (i mod 5) ] else [])))
  in
  scan_case ~name:"sparse survivors" ~max_size:2 ~min_support:0.008
    ~scheme:(Randomizer.uniform ~universe:300 ~p_keep:0.95 ~p_add:0.0005)
    db;
  (* one size class *)
  let db =
    Db.create ~universe:10
      (Array.init 250 (fun i ->
           Itemset.of_list
             (if i mod 2 = 0 then [ 0; 1; 2 ] else [ i mod 10; (i + 3) mod 10; (i + 6) mod 10 ])))
  in
  Alcotest.(check int) "one size class" 1 (List.length (Db.size_histogram db));
  scan_case ~name:"single size class"
    ~scheme:(Randomizer.uniform ~universe:10 ~p_keep:0.8 ~p_add:0.1)
    db

let test_sigma_cap_prunes () =
  (* with a tiny cap nothing noisy survives *)
  let rng = Rng.create ~seed:7 () in
  let universe = 40 in
  let db = Quest.generate rng { Quest.default with n_transactions = 300; universe } in
  let scheme = Randomizer.cut_and_paste ~universe ~cutoff:3 ~rho:0.2 in
  let data = Randomizer.apply_db_tagged scheme rng db in
  let mined = Ppmining.mine ~scheme ~data ~min_support:0.05 ~max_size:2 ~sigma_cap:1e-9 () in
  Alcotest.(check int) "nothing explored under a zero cap" 0
    (List.length mined.Ppmining.explored)

let test_accuracy_bookkeeping () =
  let mk l = Itemset.of_list l in
  let truth = [ (mk [ 0 ], 10); (mk [ 1 ], 8); (mk [ 0; 1 ], 5) ] in
  let mined =
    {
      Ppmining.discovered =
        [
          { Ppmining.itemset = mk [ 0 ]; est_support = 0.5; sigma = 0.01 };
          { Ppmining.itemset = mk [ 2 ]; est_support = 0.4; sigma = 0.01 };
        ];
      explored = [];
    }
  in
  let acc = Ppmining.accuracy_vs ~truth ~mined in
  Alcotest.(check int) "tp" 1 acc.Ppmining.true_positives;
  Alcotest.(check int) "fp" 1 acc.Ppmining.false_positives;
  Alcotest.(check int) "drops" 2 acc.Ppmining.false_drops

let test_validation () =
  let scheme = identity_scheme 10 in
  Alcotest.check_raises "bad support"
    (Invalid_argument "Ppmining.mine: min_support out of (0,1]") (fun () ->
      ignore
        (Ppmining.mine ~scheme
           ~data:[| (1, Itemset.singleton 0) |]
           ~min_support:0. ()));
  Alcotest.check_raises "empty data"
    (Invalid_argument "Ppmining.mine: empty data") (fun () ->
      ignore (Ppmining.mine ~scheme ~data:[||] ~min_support:0.1 ()))

let suite =
  [
    Alcotest.test_case "identity equals apriori" `Quick test_identity_equals_apriori;
    Alcotest.test_case "planted recovery" `Slow test_planted_recovery_under_randomization;
    Alcotest.test_case "max size respected" `Quick test_max_size_respected;
    Alcotest.test_case "explored superset" `Quick test_explored_superset;
    Alcotest.test_case "level-2 fast path consistency" `Quick
      test_level_two_fast_path_consistency;
    Alcotest.test_case "sigma cap prunes" `Quick test_sigma_cap_prunes;
    Alcotest.test_case "accuracy bookkeeping" `Quick test_accuracy_bookkeeping;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "engine matches per-candidate scan" `Quick
      test_engine_matches_scan;
  ]
