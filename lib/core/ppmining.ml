open Ppdm_data
open Ppdm_mining

type discovery = { itemset : Itemset.t; est_support : float; sigma : float }
type result = { discovered : discovery list; explored : discovery list }

(* Per original size m: the number of rows and each item's count among
   them — the level-1 statistic, and the support table's seed. *)
let size_counts ~universe data =
  let by_size = Hashtbl.create 8 in
  Array.iter
    (fun (size, y) ->
      let slot =
        match Hashtbl.find_opt by_size size with
        | Some s -> s
        | None ->
            let s = (ref 0, Array.make universe 0) in
            Hashtbl.replace by_size size s;
            s
      in
      incr (fst slot);
      Itemset.iter (fun item -> (snd slot).(item) <- (snd slot).(item) + 1) y)
    data;
  by_size

(* Singletons get a fast path: one pass counts every item at once, giving
   the k = 1 observed partials for all universe items. *)
let level_one ~scheme ~by_size ~total ~keep =
  let universe = Randomizer.universe scheme in
  let total = float_of_int total in
  let out = ref [] in
  for item = 0 to universe - 1 do
    (* Pool the per-size 2x2 inversions: for k = 1 the transition matrix
       is [[1-rho, 1-q]; [rho, q]] with q the keep probability. *)
    let support = ref 0. and variance = ref 0. in
    Hashtbl.iter
      (fun size (n_ref, counts) ->
        let n = !n_ref in
        let resolved = Randomizer.resolve scheme ~size in
        let q = Breach.keep_probability resolved and rho = resolved.rho in
        let denom = q -. rho in
        let w = float_of_int n /. total in
        if Float.abs denom < 1e-12 then ()
          (* degenerate operator: the class carries no signal; weight 0 *)
        else begin
          let observed = float_of_int counts.(item) /. float_of_int n in
          let s = (observed -. rho) /. denom in
          let var =
            observed *. (1. -. observed)
            /. (denom *. denom *. float_of_int n)
          in
          support := !support +. (w *. s);
          variance := !variance +. (w *. w *. var)
        end)
      by_size;
    let d =
      { itemset = Itemset.singleton item; est_support = !support;
        sigma = sqrt (Float.max 0. !variance) }
    in
    if keep d then out := d :: !out
  done;
  List.rev !out

(* Levels >= 2 count on one transposed copy of the randomized rows, laid
   out in size classes: rows sorted stably by original size m, each class
   padded with empty rows to a word boundary, so class c owns the bitmap
   words [windows.(c)].  A padding row contains no non-empty itemset, so
   a windowed count is exactly the class's support.  Only the surviving
   singletons are transposed: no later candidate contains another item. *)
type layout = {
  vt : Vertical.t;
  sizes : int array;  (* class sizes m, ascending *)
  rows : int array;  (* real (unpadded) rows per class *)
  windows : (int * int) array;
}

let layout ~universe ~by_size ~items data =
  Ppdm_obs.Span.with_ ~name:"ppmining.load" @@ fun () ->
  let sizes =
    Array.of_list
      (List.sort Int.compare (Hashtbl.fold (fun m _ acc -> m :: acc) by_size []))
  in
  let rows = Array.map (fun m -> !(fst (Hashtbl.find by_size m))) sizes in
  let class_of = Array.make (sizes.(Array.length sizes - 1) + 1) 0 in
  Array.iteri (fun c m -> class_of.(m) <- c) sizes;
  let windows = Array.make (Array.length sizes) (0, 0) in
  let next = ref 0 in
  Array.iteri
    (fun c n ->
      let lo = !next in
      next := lo + Bitset.words_for n;
      windows.(c) <- (lo, !next))
    rows;
  (* Row j of class c (in data order) goes to tid first.(c) + j. *)
  let first = Array.map (fun (lo, _) -> lo * Bitset.bits_per_word) windows in
  let each_row f =
    let cursor = Array.copy first in
    Array.iter
      (fun (m, y) ->
        let c = class_of.(m) in
        f cursor.(c) y;
        cursor.(c) <- cursor.(c) + 1)
      data
  in
  let kept = Array.make universe false in
  List.iter (fun item -> kept.(item) <- true) items;
  let vt =
    Vertical.of_rows ~keep:(Array.get kept) ~universe
      ~n:(!next * Bitset.bits_per_word) each_row
  in
  { vt; sizes; rows; windows }

module Table = Hashtbl.Make (struct
  type t = Itemset.t

  let equal = Itemset.equal
  let hash = Itemset.hash
end)

(* The k+1 observed partial counts of candidate A in each class, from
   per-class supports alone.  With N_j the sum of supp(B) over the
   j-subsets B of A (N_0 = the class's rows), every row y with
   |y ∩ A| = l contributes C(l, j) to N_j, so N_j = Σ_l C(l, j) c_l and,
   inverting the binomial transform,
     c_l = Σ_{j >= l} (-1)^{j-l} C(j, l) N_j.
   Every proper subset of A was explored at a lower level (candidate
   generation requires it), so the table holds its supports; the sums are
   exact integers. *)
let partial_counts ~table ~rows items supp =
  let k = Array.length items in
  let n_classes = Array.length rows in
  let sums =
    Array.init (k + 1) (fun j ->
        if j = 0 then rows else if j = k then supp else Array.make n_classes 0)
  in
  let sub = Array.make k 0 in
  for mask = 1 to (1 lsl k) - 2 do
    let j = ref 0 in
    for i = 0 to k - 1 do
      if mask land (1 lsl i) <> 0 then begin
        sub.(!j) <- items.(i);
        incr j
      end
    done;
    let s =
      Table.find table (Itemset.of_sorted_array_unchecked (Array.sub sub 0 !j))
    in
    let row = sums.(!j) in
    for c = 0 to n_classes - 1 do
      row.(c) <- row.(c) + s.(c)
    done
  done;
  let binom = Array.make_matrix (k + 1) (k + 1) 0 in
  for j = 0 to k do
    binom.(j).(0) <- 1;
    for l = 1 to j do
      binom.(j).(l) <- binom.(j - 1).(l - 1) + if l < j then binom.(j - 1).(l) else 0
    done
  done;
  Array.init n_classes (fun c ->
      Array.init (k + 1) (fun l ->
          let acc = ref 0 in
          for j = l to k do
            let term = binom.(j).(l) * sums.(j).(c) in
            acc := if (j - l) land 1 = 0 then !acc + term else !acc - term
          done;
          !acc))

(* Per-level span and counters; the names are computed, so the disabled
   path stays one flag check. *)
let with_level_span ~size f =
  if Ppdm_obs.Metrics.any_enabled () then
    Ppdm_obs.Span.with_ ~name:(Printf.sprintf "ppmining.level%d" size) f
  else f ()

let record_level ~size ~candidates ~explored =
  if Ppdm_obs.Metrics.enabled () then begin
    Ppdm_obs.Metrics.add (Printf.sprintf "ppmining.candidates.k%d" size) candidates;
    Ppdm_obs.Metrics.add (Printf.sprintf "ppmining.explored.k%d" size) explored
  end

(* One level >= 2: count every candidate per class, derive its partial
   counts, estimate, and keep (in the support table too) what passes. *)
let level ~scratch ~ops ~table ~lay ~keep ~size candidates =
  let cands = Array.of_list (List.sort_uniq Itemset.compare candidates) in
  (* [prepare] sorts by Itemset.compare and deduplicates, so count
     columns line up with [cands]. *)
  let prepared = Vertical.prepare (Array.to_list cands) in
  let counts =
    Array.map
      (fun (word_lo, word_hi) ->
        Vertical.count_into ~scratch lay.vt ~word_lo ~word_hi prepared)
      lay.windows
  in
  let out = ref [] in
  Array.iteri
    (fun i itemset ->
      let supp = Array.map (fun per_class -> per_class.(i)) counts in
      let partials =
        partial_counts ~table ~rows:lay.rows (Itemset.unsafe_to_array itemset) supp
      in
      let e =
        Estimator.estimate_with ops ~k:size
          ~counts:(List.init (Array.length lay.sizes) (fun c -> (lay.sizes.(c), partials.(c))))
      in
      let d =
        { itemset; est_support = e.Estimator.support; sigma = e.Estimator.sigma }
      in
      if keep d then begin
        Table.replace table itemset supp;
        out := d :: !out
      end)
    cands;
  (Array.length cands, List.rev !out)

let mine ?max_size ?(sigma_slack = 2.0) ?sigma_cap ~scheme ~data ~min_support
    () =
  if min_support <= 0. || min_support > 1. then
    invalid_arg "Ppmining.mine: min_support out of (0,1]";
  if Array.length data = 0 then invalid_arg "Ppmining.mine: empty data";
  Ppdm_obs.Span.with_ ~name:"ppmining.mine" @@ fun () ->
  let cap = Option.value max_size ~default:max_int in
  let sigma_cap = Option.value sigma_cap ~default:(min_support /. 2.) in
  (* Estimates travel through matrix inversions, so threshold comparisons
     carry a one-ulp tolerance: an exact-support itemset must not be
     dropped by rounding. *)
  let eps = 1e-12 in
  let passes d =
    d.sigma < sigma_cap
    && d.est_support +. (sigma_slack *. d.sigma) >= min_support -. eps
  in
  let universe = Randomizer.universe scheme in
  let first, by_size =
    if cap < 1 then ([], Hashtbl.create 1)
    else
      with_level_span ~size:1 (fun () ->
          let by_size = size_counts ~universe data in
          let first =
            level_one ~scheme ~by_size ~total:(Array.length data) ~keep:passes
          in
          (first, by_size))
  in
  if cap >= 1 then
    record_level ~size:1 ~candidates:universe ~explored:(List.length first);
  let levels =
    (* Level 2 joins every pair of surviving singletons: with fewer than
       two there is nothing to count, and nothing to transpose. *)
    if cap < 2 || List.compare_length_with first 2 < 0 then [ first ]
    else begin
      let lay =
        layout ~universe ~by_size
          ~items:(List.map (fun d -> Itemset.nth d.itemset 0) first)
          data
      in
      let table = Table.create 256 in
      List.iter
        (fun d ->
          let item = Itemset.nth d.itemset 0 in
          Table.replace table d.itemset
            (Array.map (fun m -> (snd (Hashtbl.find by_size m)).(item)) lay.sizes))
        first;
      let ops = Estimator.operators scheme in
      let scratch = Vertical.make_scratch lay.vt in
      let rec go acc current size =
        if size > cap || current = [] then acc
        else begin
          let n_candidates, next =
            with_level_span ~size (fun () ->
                Apriori.candidates_from
                  ~frequent:(List.map (fun d -> d.itemset) current)
                  ~size
                |> level ~scratch ~ops ~table ~lay ~keep:passes ~size)
          in
          record_level ~size ~candidates:n_candidates
            ~explored:(List.length next);
          go (next :: acc) next (size + 1)
        end
      in
      go [ first ] first 2
    end
  in
  let ordered =
    List.sort (fun a b -> Itemset.compare a.itemset b.itemset) (List.concat levels)
  in
  {
    discovered = List.filter (fun d -> d.est_support >= min_support -. eps) ordered;
    explored = ordered;
  }

type accuracy = {
  true_positives : int;
  false_positives : int;
  false_drops : int;
}

let accuracy_vs ~truth ~mined =
  let truth_set = Hashtbl.create (2 * List.length truth) in
  List.iter (fun (s, _) -> Hashtbl.replace truth_set s ()) truth;
  let mined_set = Hashtbl.create 64 in
  List.iter
    (fun d -> Hashtbl.replace mined_set d.itemset ())
    mined.discovered;
  let true_positives = ref 0 and false_positives = ref 0 in
  Hashtbl.iter
    (fun s () ->
      if Hashtbl.mem truth_set s then incr true_positives
      else incr false_positives)
    mined_set;
  let false_drops = ref 0 in
  Hashtbl.iter
    (fun s () -> if not (Hashtbl.mem mined_set s) then incr false_drops)
    truth_set;
  {
    true_positives = !true_positives;
    false_positives = !false_positives;
    false_drops = !false_drops;
  }
