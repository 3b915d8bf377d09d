open Ppdm_data

(* Tid-sets are the adaptive dense/sparse hybrids of the vertical
   engine: dense atoms intersect by word-wide AND, a sparse operand
   against a dense one probes bit by bit, two sparse ones merge.  Counts
   come back with every intersection, so patterns never recount. *)

type atoms = {
  threshold : int;
  items : (int * Vertical.tidset * int) array;
      (* frequent (item, tid-set, count), in item order *)
}

let atoms db ~min_support =
  Ppdm_obs.Span.with_ ~name:"eclat.atoms" @@ fun () ->
  let threshold = Threshold.absolute ~n:(Db.length db) ~min_support in
  let vt = Vertical.of_db db in
  let items =
    List.filter_map Fun.id
      (List.init (Db.universe db) (fun item ->
           let count = Vertical.item_count vt item in
           if count >= threshold then
             Some (item, Vertical.item_tidset vt item, count)
           else None))
  in
  let items = Array.of_list items in
  if Ppdm_obs.Metrics.enabled () then begin
    Ppdm_obs.Metrics.gauge "eclat.atoms" (float_of_int (Array.length items));
    let dense =
      Array.fold_left
        (fun acc (_, ts, _) -> if Vertical.tidset_is_dense ts then acc + 1 else acc)
        0 items
    in
    Ppdm_obs.Metrics.add "eclat.atoms.dense" dense;
    Ppdm_obs.Metrics.add "eclat.atoms.sparse" (Array.length items - dense)
  end;
  { threshold; items }

(* DFS over prefix classes: [atoms] holds (item, tid-set, count) triples
   usable to extend the current prefix, all items greater than the
   prefix's last item. *)
let rec dfs t cap results prefix depth atoms =
  List.iteri
    (fun idx (item, tids, count) ->
      let pattern = item :: prefix in
      Ppdm_obs.Metrics.incr "eclat.patterns";
      results := (Itemset.of_list pattern, count) :: !results;
      if depth < cap then begin
        let extensions =
          List.filteri (fun j _ -> j > idx) atoms
          |> List.filter_map (fun (other, other_tids, _) ->
                 let joint, joint_count =
                   Vertical.inter_tidsets tids other_tids
                 in
                 if joint_count >= t.threshold then
                   Some (other, joint, joint_count)
                 else None)
        in
        if extensions <> [] then dfs t cap results pattern (depth + 1) extensions
      end)
    atoms

let mine_atoms ?max_size t =
  let cap = Option.value max_size ~default:max_int in
  if cap < 1 then []
  else begin
    Ppdm_obs.Span.with_ ~name:"eclat.extend" @@ fun () ->
    let results = ref [] in
    (* Each root atom owns its prefix class; extensions come from every
       atom after it. *)
    for i = 0 to Array.length t.items - 1 do
      let item, tids, count = t.items.(i) in
      Ppdm_obs.Metrics.incr "eclat.patterns";
      results := (Itemset.singleton item, count) :: !results;
      if cap > 1 then begin
        let extensions = ref [] in
        for j = Array.length t.items - 1 downto i + 1 do
          let other, other_tids, _ = t.items.(j) in
          let joint, joint_count = Vertical.inter_tidsets tids other_tids in
          if joint_count >= t.threshold then
            extensions := (other, joint, joint_count) :: !extensions
        done;
        if Ppdm_obs.Metrics.enabled () then
          Ppdm_obs.Metrics.observe "eclat.prefix_class.extensions"
            (List.length !extensions);
        if !extensions <> [] then dfs t cap results [ item ] 2 !extensions
      end
    done;
    !results
  end

let mine ?max_size db ~min_support =
  if min_support <= 0. || min_support > 1. then
    invalid_arg "Eclat.mine: min_support out of (0,1]";
  Ppdm_obs.Span.with_ ~name:"eclat.mine" (fun () ->
      let t = atoms db ~min_support in
      let results = mine_atoms ?max_size t in
      List.sort (fun (a, _) (b, _) -> Itemset.compare a b) results)
