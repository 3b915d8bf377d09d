(** Candidate support counting over a prefix trie.

    Candidates are inserted as item paths (items in increasing order); a
    single pass over each transaction then increments every candidate it
    contains, touching only trie paths that match — the standard
    subset-counting structure of Apriori implementations. *)

open Ppdm_data

type t

val create : unit -> t

val add : t -> Itemset.t -> unit
(** Register a candidate (idempotent). *)

val candidate_count : t -> int

val count_transaction : t -> Itemset.t -> unit
(** Increment every registered candidate contained in the transaction. *)

val count_db : t -> Db.t -> unit

val get : t -> Itemset.t -> int option
(** Count accumulated for a candidate; [None] if it was never added. *)

val to_list : t -> (Itemset.t * int) list
(** All candidates with their counts, in {!Itemset.compare} order. *)

val support_counts : Db.t -> Itemset.t list -> (Itemset.t * int) list
(** One-shot convenience: build a trie, count the database, list results. *)
