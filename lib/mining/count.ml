open Ppdm_data

type node = {
  mutable count : int;
  mutable terminal : bool;
  children : (int, node) Hashtbl.t;
}

type t = { root : node; mutable candidates : int }

let make_node () = { count = 0; terminal = false; children = Hashtbl.create 4 }
let create () = { root = make_node (); candidates = 0 }

let add t itemset =
  if Itemset.is_empty itemset then invalid_arg "Count.add: empty candidate";
  let node = ref t.root in
  Itemset.iter
    (fun item ->
      match Hashtbl.find_opt !node.children item with
      | Some child -> node := child
      | None ->
          let child = make_node () in
          Hashtbl.replace !node.children item child;
          node := child)
    itemset;
  if not !node.terminal then begin
    !node.terminal <- true;
    t.candidates <- t.candidates + 1
  end

let candidate_count t = t.candidates

let count_transaction t tx =
  Ppdm_obs.Metrics.incr "count.transactions";
  (* read-only walk, so the defensive copy of [to_array] is pure waste *)
  let items = Itemset.unsafe_to_array tx in
  let len = Array.length items in
  let rec walk node start =
    for pos = start to len - 1 do
      match Hashtbl.find_opt node.children items.(pos) with
      | Some child ->
          if child.terminal then child.count <- child.count + 1;
          walk child (pos + 1)
      | None -> ()
    done
  in
  walk t.root 0

let count_db t db = Db.iter (count_transaction t) db

let get t itemset =
  let rec descend node = function
    | [] -> if node.terminal then Some node.count else None
    | item :: rest -> (
        match Hashtbl.find_opt node.children item with
        | Some child -> descend child rest
        | None -> None)
  in
  descend t.root (Itemset.to_list itemset)

let to_list t =
  let out = ref [] in
  let rec collect node prefix =
    if node.terminal then
      out := (Itemset.of_list (List.rev prefix), node.count) :: !out;
    Hashtbl.iter (fun item child -> collect child (item :: prefix)) node.children
  in
  collect t.root [];
  List.sort (fun (a, _) (b, _) -> Itemset.compare a b) !out

let support_counts db candidates =
  Ppdm_obs.Metrics.time "count.support_counts_ns" (fun () ->
      let t = create () in
      List.iter (add t) candidates;
      count_db t db;
      to_list t)
