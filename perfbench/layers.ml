(* In-process layer probe for the end-to-end benchmark (perfbench/run.py).

     layers replay randomize|private|mine --input FILE --seed S ...
     layers private-ref --input FILE --seed S ...
     layers ingest --port P --seed S ...

   [replay] re-runs a workload's CLI pipeline through the same public
   library calls the ppdm subcommands make, in the same order and with the
   same defaults: once untraced, for the CLI-only remainder, and once with a
   span recorded around each call, for the per-layer numbers.  The
   library's own instrumentation (Metrics, Trace) stays off.  [private-ref]
   prints the discoveries [ppdm private] must print.  [ingest] drives a
   running [ppdm serve] over loopback.  Every command prints one JSON
   object on stdout. *)

open Ppdm_prng
open Ppdm_data
open Ppdm_datagen
open Ppdm_mining
open Ppdm
open Ppdm_runtime
module J = Ppdm_obs.Json
module Client = Ppdm_server.Client

(* The CLI's default operator: optimized select-a-size at gamma 19. *)
let gamma = 19.

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------ arguments *)

let command, options =
  let rec pairs = function
    | [] -> []
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        (String.sub k 2 (String.length k - 2), v) :: pairs rest
    | k :: _ -> failwith ("layers: unexpected argument " ^ k)
  in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> failwith "layers: missing command"
  | "replay" :: w :: rest -> ("replay " ^ w, pairs rest)
  | c :: rest -> (c, pairs rest)

let arg k =
  match List.assoc_opt k options with
  | Some v -> v
  | None -> failwith ("layers: missing --" ^ k)

let arg_int k = int_of_string (arg k)
let arg_float k = float_of_string (arg k)
let arg_items k = List.map int_of_string (String.split_on_char ',' (arg k))

(* ---------------------------------------------------------------- spans *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let tracing = ref false
let spans : span list ref = ref []
let open_spans = ref [ -1 ]
let next_id = ref 0

(* Spans are only opened on the main domain, around whole library calls;
   pool workers inside a call are covered by the call's span. *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !open_spans in
    open_spans := id :: !open_spans;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        spans := { id; parent; name; start; stop = now () } :: !spans)
      f
  end

let span_s name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0. !spans

let spans_json () =
  let origin = List.fold_left (fun m s -> Float.min m s.start) infinity !spans in
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Int s.id);
             ("parent", J.Int s.parent);
             ("name", J.String s.name);
             ("start_s", J.Float (s.start -. origin));
             ("dur_s", J.Float (s.stop -. s.start));
           ])
       !spans)

(* ------------------------------------------------------------- numbers *)

let quantile values q =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let mb bytes = float_of_int bytes /. 1048576.
let file_bytes path = (Unix.stat path).Unix.st_size
let ratio a b = if b > 0. then a /. b else 0.

let obj_of fields = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) fields)

(* Run [pipeline] untraced, then traced.  It returns its count-type layer
   metrics and its per-stage wall times; the counts of the two runs must be
   identical (same code, same seed). *)
let replay pipeline =
  tracing := false;
  let (counts0, stages0), _ = timed pipeline in
  spans := [];
  tracing := true;
  let (counts1, stages1), _ = timed pipeline in
  tracing := false;
  let mismatched =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k counts0 with
        | Some v0 when Float.equal v0 v -> None
        | _ -> Some (J.String k))
      counts1
  in
  let total = List.fold_left (fun acc (_, t) -> acc +. t) 0. in
  (counts1, stages0, total stages1 -. total stages0, mismatched)

let print_replay ~counts ~stages ~overhead ~mismatched layers =
  print_endline
    (J.to_string
       (J.Obj
          [
            ("stages_untraced_s", obj_of stages);
            ( "layers",
              obj_of ((("trace.overhead_s", overhead) :: layers) @ counts) );
            ("counts", obj_of counts);
            ("repeat_mismatch", J.List mismatched);
            ("spans", spans_json ());
          ]))

(* ------------------------------------------------ the CLI's call chains *)

(* ppdm randomize: read, operator, seeded stream, sharded randomization;
   the tagged writer is CLI code. *)
let randomize_stage ~input ~seed ~jobs ~scheme_out =
  let db = span "io.read" (fun () -> Io.read_file input) in
  let scheme =
    span "scheme" (fun () ->
        Optimizer.scheme_for_estimation ~universe:(Db.universe db) ~gamma ())
  in
  let rng = Rng.create ~seed () in
  let data =
    span "randomizer" (fun () ->
        Pool.with_pool ~jobs (fun pool ->
            Parallel.randomize_db_tagged pool scheme rng db))
  in
  span "scheme_io.write" (fun () ->
      Scheme_io.write_file scheme_out scheme ~sizes:(Scheme_io.sizes_of_db db));
  (db, scheme, data)

(* ppdm recover --scheme: the tagged parse is CLI code, so the replay
   estimates over the rows the randomize replay produced. *)
let recover_stage ~scheme_file ~data ~itemset =
  let scheme = span "scheme_io.read" (fun () -> Scheme_io.read_file scheme_file) in
  span "estimator" (fun () -> Estimator.estimate ~scheme ~data ~itemset)

(* ppdm private.  The CLI builds its (randomized, truth) pair as one tuple
   expression, which OCaml evaluates right to left: the truth mine runs
   first. *)
let private_stage ~input ~seed ~jobs ~min_support ~max_size =
  let db = span "io.read" (fun () -> Io.read_file input) in
  let scheme =
    span "scheme" (fun () ->
        Optimizer.scheme_for_estimation ~universe:(Db.universe db) ~gamma ())
  in
  let rng = Rng.create ~seed () in
  let data, truth =
    Pool.with_pool ~jobs (fun pool ->
        let truth =
          span "apriori" (fun () ->
              Parallel.apriori_mine pool ~sched:Pool.Chunked db ~min_support
                ~max_size ~counter:Apriori.Auto)
        in
        let data =
          span "randomizer" (fun () ->
              Parallel.randomize_db_tagged pool scheme rng db)
        in
        (data, truth))
  in
  let mined =
    span "ppmining" (fun () ->
        Ppmining.mine ~scheme ~data ~min_support ~max_size ())
  in
  let acc = Ppmining.accuracy_vs ~truth ~mined in
  (db, scheme, data, truth, mined, acc)

let items_out data =
  Array.fold_left (fun acc (_, y) -> acc + Itemset.cardinal y) 0 data

(* The replay runs at --jobs 1, like the timed CLI pipelines; each
   [*.scaling_j2] re-runs one call at [scaling_jobs] and is the jobs-1 time
   over that time. *)
let scaling_jobs = 2

(* Randomizer layer metrics from the traced span, plus a jobs-2 re-run of
   the same call for the scaling ratio. *)
let randomizer_layers ~db ~scheme ~seed ~data =
  let busy = span_s "randomizer" in
  let j2 =
    snd
      (timed (fun () ->
           Pool.with_pool ~jobs:scaling_jobs (fun pool ->
               Parallel.randomize_db_tagged pool scheme (Rng.create ~seed ()) db)))
  in
  [
    ("randomizer.busy_s", busy);
    ("randomizer.ns_per_item_out", ratio (busy *. 1e9) (float_of_int (items_out data)));
    ("randomizer.scaling_j2", ratio busy j2);
  ]

let io_layers ~input =
  let read = span_s "io.read" in
  [
    ("io.read_s", read);
    ("io.read_mb_per_s", ratio (mb (file_bytes input)) read);
    ("optimizer.scheme_s", span_s "scheme");
  ]

let replay_randomize () =
  let input = arg "input" and seed = arg_int "seed" and jobs = arg_int "jobs" in
  let itemset = Itemset.of_list (arg_items "itemset") in
  let scheme_out = Filename.concat (arg "workdir") "replay.scheme" in
  let last = ref None in
  let pipeline () =
    let (db, scheme, data), t_rand =
      timed (fun () -> randomize_stage ~input ~seed ~jobs ~scheme_out)
    in
    let _, t_rec =
      timed (fun () -> recover_stage ~scheme_file:scheme_out ~data ~itemset)
    in
    last := Some (db, scheme, data);
    let n = float_of_int (Db.length db) in
    ( [ ("randomizer.items_out_per_tx", float_of_int (items_out data) /. n) ],
      [ ("randomize", t_rand); ("recover", t_rec) ] )
  in
  let counts, stages, overhead, mismatched = replay pipeline in
  let db, scheme, data = Option.get !last in
  print_replay ~counts ~stages ~overhead ~mismatched
    (io_layers ~input
    @ randomizer_layers ~db ~scheme ~seed ~data
    @ [ ("estimator.recover_s", span_s "estimator") ])

let by_size k ds =
  List.filter (fun d -> Itemset.cardinal d.Ppmining.itemset = k) ds

let replay_private () =
  let input = arg "input" and seed = arg_int "seed" and jobs = arg_int "jobs" in
  let min_support = arg_float "min-support" and max_size = arg_int "max-size" in
  let last = ref None in
  let pipeline () =
    let ((db, _, data, truth, mined, acc) as r), t =
      timed (fun () -> private_stage ~input ~seed ~jobs ~min_support ~max_size)
    in
    last := Some r;
    let explored k = by_size k mined.Ppmining.explored in
    let candidates k =
      List.length
        (Apriori.candidates_from
           ~frequent:(List.map (fun d -> d.Ppmining.itemset) (explored (k - 1)))
           ~size:k)
    in
    let count k = float_of_int (List.length (explored k)) in
    let c2 = float_of_int (candidates 2) and c3 = float_of_int (candidates 3) in
    ( [
        ("randomizer.items_out_per_tx",
          float_of_int (items_out data) /. float_of_int (Db.length db));
        ("apriori.itemsets_out", float_of_int (List.length truth));
        ("ppmining.explored.k1", count 1);
        ("ppmining.explored.k2", count 2);
        ("ppmining.explored.k3", count 3);
        ("ppmining.candidates.k2", c2);
        ("ppmining.candidates.k3", c3);
        ("ppmining.survival.k2", ratio (count 2) c2);
        ("ppmining.survival.k3", ratio (count 3) c3);
        ("ppmining.discovered",
          float_of_int (List.length mined.Ppmining.discovered));
        ("ppmining.false_positives", float_of_int acc.Ppmining.false_positives);
        ("ppmining.false_drops", float_of_int acc.Ppmining.false_drops);
      ],
      [ ("private", t) ] )
  in
  let counts, stages, overhead, mismatched = replay pipeline in
  let db, scheme, data, _, _, _ = Option.get !last in
  let level max_size =
    snd
      (timed (fun () ->
           Ppmining.mine ~scheme ~data ~min_support ~max_size ()))
  in
  let l1 = level 1 and l2 = level 2 and busy = span_s "ppmining" in
  let apriori_j2 =
    snd
      (timed (fun () ->
           Pool.with_pool ~jobs:scaling_jobs (fun pool ->
               Parallel.apriori_mine pool ~sched:Pool.Chunked db ~min_support
                 ~max_size ~counter:Apriori.Auto)))
  in
  print_replay ~counts ~stages ~overhead ~mismatched
    (io_layers ~input
    @ randomizer_layers ~db ~scheme ~seed ~data
    @ [
        ("apriori.busy_s", span_s "apriori");
        ("apriori.scaling_j2", ratio (span_s "apriori") apriori_j2);
        ("ppmining.busy_s", busy);
        ("ppmining.level1_s", l1);
        ("ppmining.level2_s", l2 -. l1);
        ("ppmining.level3_s", busy -. l2);
      ])

let discovery_line d =
  Printf.sprintf "  %s  est %.4f (sigma %.4f)"
    (Itemset.to_string d.Ppmining.itemset)
    d.Ppmining.est_support d.Ppmining.sigma

let private_ref () =
  let _, _, _, truth, mined, _ =
    private_stage ~input:(arg "input") ~seed:(arg_int "seed")
      ~jobs:(arg_int "jobs") ~min_support:(arg_float "min-support")
      ~max_size:(arg_int "max-size")
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("truth", J.Int (List.length truth));
            ( "discovered",
              J.List
                (List.map
                   (fun d -> J.String (discovery_line d))
                   mined.Ppmining.discovered) );
          ]))

(* ppdm convert, ppdm mine --in, ppdm mine --db. *)
let replay_mine () =
  let input = arg "input" and jobs = arg_int "jobs" in
  let min_support = arg_float "min-support" and max_size = arg_int "max-size" in
  let colfile = Filename.concat (arg "workdir") "replay.ppdmc" in
  let last = ref None in
  let pipeline () =
    let _, t_convert =
      timed (fun () ->
          span "colfile.convert" (fun () ->
              Colfile.convert ~src:input ~dst:colfile ()))
    in
    let (db, frequent), t_mine =
      timed (fun () ->
          let db = span "io.read" (fun () -> Io.read_file input) in
          ( db,
            span "apriori" (fun () ->
                Pool.with_pool ~jobs (fun pool ->
                    Parallel.apriori_mine pool ~sched:Pool.Chunked db
                      ~min_support ~max_size ~counter:Apriori.Auto)) ))
    in
    let (vt, frequent_db), t_mine_db =
      timed (fun () ->
          let cf = span "colfile.open" (fun () -> Colfile.open_file colfile) in
          Fun.protect
            ~finally:(fun () -> Colfile.close cf)
            (fun () ->
              let vt = span "vertical.of_colfile" (fun () -> Vertical.of_colfile cf) in
              ( vt,
                span "column.count" (fun () ->
                    Pool.with_pool ~jobs (fun pool ->
                        Parallel.apriori_mine_vertical pool ~sched:Pool.Chunked
                          vt ~min_support ~max_size)) )))
    in
    if frequent <> frequent_db then failwith "mine: --in and --db disagree";
    last := Some (db, vt);
    ( [
        ("apriori.itemsets_out", float_of_int (List.length frequent));
        ("colfile.bytes_per_tx",
          float_of_int (file_bytes colfile) /. float_of_int (Db.length db));
      ],
      [ ("convert", t_convert); ("mine", t_mine); ("mine_db", t_mine_db) ] )
  in
  let counts, stages, overhead, mismatched = replay pipeline in
  let db, column_vt = Option.get !last in
  (* The in-RAM engine the --in path counts on, timed apart from the
     transpose that Parallel.apriori_mine does inside its span. *)
  tracing := true;
  let vt = span "vertical.load" (fun () -> Vertical.load db) in
  ignore
    (span "vertical.count" (fun () ->
         Pool.with_pool ~jobs (fun pool ->
             Parallel.apriori_mine_vertical pool ~sched:Pool.Chunked vt
               ~min_support ~max_size)));
  ignore
    (span "apriori.j2" (fun () ->
         Pool.with_pool ~jobs:scaling_jobs (fun pool ->
             Parallel.apriori_mine pool ~sched:Pool.Chunked db ~min_support
               ~max_size ~counter:Apriori.Auto)));
  tracing := false;
  print_replay ~counts ~stages ~overhead ~mismatched
    (io_layers ~input
    @ [
        ("apriori.busy_s", span_s "apriori");
        ("apriori.scaling_j2", ratio (span_s "apriori") (span_s "apriori.j2"));
        ("vertical.load_s", span_s "vertical.load");
        ("vertical.count_s", span_s "vertical.count");
        ("vertical.resident_mb", mb (Vertical.resident_bytes vt));
        ("colfile.convert_s", span_s "colfile.convert");
        ("colfile.load_s", span_s "colfile.open" +. span_s "vertical.of_colfile");
        ("column.count_s", span_s "column.count");
        ("column.resident_mb", mb (Vertical.resident_bytes column_vt));
        ("column.count_ratio",
          ratio (span_s "column.count") (span_s "vertical.count"));
      ])

(* --------------------------------------------------------------- ingest *)

(* Timing samples, one list per sender domain. *)
let samples () = ref []
let push s v = s := v :: !s
let all_of arr = List.concat_map ( ! ) (Array.to_list arr)

let json_int v =
  match v with
  | Some (J.Int n) -> n
  | Some (J.Float f) -> int_of_float f
  | _ -> failwith "ingest: snapshot field is not a number"

let json_float = function
  | Some (J.Int n) -> Some (float_of_int n)
  | Some (J.Float f) -> Some f
  | _ -> None

let parse_snapshot json =
  match J.parse json with
  | Ok v -> v
  | Error e -> failwith ("ingest: snapshot JSON: " ^ e)

(* CPU seconds the serve process has used, from /proc (utime + stime). *)
let cpu_seconds ~pid ~clk_tck =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. clk_tck

let scrape port =
  match Ppdm_server.Admin.fetch ~port "/metrics" with
  | Ok (200, body) -> (
      match Ppdm_obs.Exposition.parse body with
      | Ok samples -> samples
      | Error e -> failwith ("ingest: exposition: " ^ e))
  | Ok (status, _) -> failwith (Printf.sprintf "ingest: /metrics HTTP %d" status)
  | Error e -> failwith ("ingest: /metrics: " ^ e)

let sample_sum samples pred =
  List.fold_left
    (fun acc (s : Ppdm_obs.Exposition.sample) ->
      if pred s.Ppdm_obs.Exposition.name then acc +. s.Ppdm_obs.Exposition.value
      else acc)
    0. samples

let sample_value samples name = sample_sum samples (String.equal name)

let ingest () =
  let port = arg_int "port" and seed = arg_int "seed" in
  let universe = arg_int "universe" and size = arg_int "size" in
  let pool_size = arg_int "pool" and clients = arg_int "clients" in
  let traced = arg_int "trace" = 1 in
  (* Set-up: the reports [ppdm load] would send, randomized up front. *)
  let setup () =
    let scheme, t_scheme =
      timed (fun () -> Optimizer.scheme_for_estimation ~universe ~gamma ())
    in
    let rng = Rng.create ~seed () in
    let db = Simple.fixed_size rng ~universe ~size ~count:pool_size in
    let data, t_rand = timed (fun () -> Randomizer.apply_db_tagged scheme rng db) in
    (scheme, data, t_scheme, t_rand)
  in
  let setups = List.init (arg_int "setups") (fun _ -> timed setup) in
  let scheme, data, _, _ = fst (List.hd setups) in
  let setup_s = quantile (List.map snd setups) 0.5 in
  let median_of f = quantile (List.map (fun (r, _) -> f r) setups) 0.5 in
  let scheme_s = median_of (fun (_, _, t, _) -> t)
  and randomize_s = median_of (fun (_, _, _, t) -> t) in
  let parts =
    Array.init clients (fun i ->
        let lo = i * pool_size / clients and hi = (i + 1) * pool_size / clients in
        Array.sub data lo (hi - lo))
  in
  (* Connection c sends parts.(c) over and over; sent.(c) reports so far. *)
  let sent = Array.make clients 0 in
  let conns =
    Array.init clients (fun _ ->
        let c = Client.connect ~port () in
        ignore (Client.handshake c ~scheme ~sizes:[ size ] ());
        c)
  in
  let send c =
    let part = parts.(c) in
    let sz, y = part.(sent.(c) mod Array.length part) in
    Client.report conns.(c) ~size:sz y;
    sent.(c) <- sent.(c) + 1
  in
  let barriers_run = ref 0 and folded = ref 0 in
  (* After every sender has passed its in-order sync, a flushed snapshot on
     connection 0 has folded every report sent so far. *)
  let barrier () =
    let v = parse_snapshot (Client.snapshot conns.(0) ~flush:true) in
    let now_folded = json_int (J.member "reports" v) in
    let fresh = now_folded - !folded in
    folded := now_folded;
    incr barriers_run;
    (v, fresh)
  in
  let in_domains work =
    Array.map Domain.join (Array.init clients (fun c -> Domain.spawn (work c)))
  in
  let queue_max = ref 0. and scraping = Atomic.make false in
  let scraper =
    if not traced then None
    else begin
      Atomic.set scraping true;
      let admin = arg_int "admin-port" in
      Some
        (Domain.spawn (fun () ->
             while Atomic.get scraping do
               let s = scrape admin in
               let depth =
                 List.fold_left
                   (fun m (x : Ppdm_obs.Exposition.sample) ->
                     if x.Ppdm_obs.Exposition.name = "ppdm_server_queue_depth"
                     then Float.max m x.Ppdm_obs.Exposition.value
                     else m)
                   0. s
               in
               queue_max := Float.max !queue_max depth;
               Unix.sleepf 0.02
             done))
    end
  in
  let server_cpu () = cpu_seconds ~pid:(arg_int "serve-pid") ~clk_tck:(arg_float "clk-tck") in
  let own_cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let cpu0 = server_cpu () in
  let t_begin = now () in
  (* Closed loop: each connection sends as fast as writes go. *)
  let round_reports = arg_int "round-reports" / clients in
  let closed_round ~timing =
    let lat = Array.init clients (fun _ -> samples ()) in
    let t0 = now () in
    ignore
      (in_domains (fun c () ->
           for _ = 1 to round_reports do
             if timing then begin
               let a = now () in
               send c;
               push lat.(c) ((now () -. a) *. 1e6)
             end
             else send c
           done;
           ignore (Client.snapshot conns.(c) ~flush:false)));
    let _, fresh = barrier () in
    let dt = now () -. t0 in
    (float_of_int fresh /. dt, dt, lat)
  in
  (* A fixed number of rounds, so the reports sent (a count the benchmark
     checks for exact repeats) do not depend on speed. *)
  let untraced_round = if traced then Some (closed_round ~timing:false) else None in
  (* Processor seconds of both ends over the closed rounds: unlike their
     wall time, these do not grow with the time the host withholds the
     vCPUs (steal). *)
  let closed_cpu0 = server_cpu () +. own_cpu () in
  let closed = List.init (arg_int "rounds") (fun _ -> closed_round ~timing:traced) in
  let closed_cpu = server_cpu () +. own_cpu () -. closed_cpu0 in
  (* Open loop: each connection sends at its share of the offered rate and
     issues a flushed barrier every [barrier_every] reports; a barrier's
     freshness counts from its scheduled time. *)
  let rate = arg_float "rate" /. float_of_int clients in
  let barrier_every = arg_int "barrier-every" and open_s = arg_float "open-seconds" in
  let fresh = Array.init clients (fun _ -> samples ())
  and lag = Array.init clients (fun _ -> samples ())
  and barrier_ms = Array.init clients (fun _ -> samples ()) in
  let barriers = Array.make clients 0 in
  let t0 = now () +. 0.005 in
  ignore
    (in_domains (fun c () ->
         let i = ref 0 in
         while float_of_int !i /. rate < open_s do
           let due = t0 +. (float_of_int !i /. rate) in
           let ahead = due -. now () in
           if ahead > 0. then Unix.sleepf ahead;
           if !i > 0 && !i mod barrier_every = 0 then begin
             let a = now () in
             ignore (Client.snapshot conns.(c) ~flush:true);
             let b = now () in
             barriers.(c) <- barriers.(c) + 1;
             push fresh.(c) ((b -. due) *. 1e3);
             push barrier_ms.(c) ((b -. a) *. 1e3)
           end;
           push lag.(c) (Float.max 0. (now () -. due) *. 1e3);
           send c;
           incr i
         done;
         ignore (Client.snapshot conns.(c) ~flush:false)));
  let final, _ = barrier () in
  let elapsed = now () -. t_begin in
  let cpu1 = server_cpu () in
  Atomic.set scraping false;
  Option.iter Domain.join scraper;
  (* Correctness: the flushed estimates must be bit-identical to one
     sequential Stream fold of every report sent. *)
  let total = Array.fold_left ( + ) 0 sent in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if json_int (J.member "reports" final) <> total then
    problem "folded %d of %d reports" (json_int (J.member "reports" final)) total;
  (match J.member "itemsets" final with
  | Some (J.List entries) ->
      List.iter
        (fun e ->
          let items =
            match J.member "items" e with
            | Some (J.List l) -> List.map (fun v -> json_int (Some v)) l
            | _ -> []
          in
          let itemset = Itemset.of_list items in
          let st = Stream.create ~scheme ~itemset in
          Array.iteri
            (fun c part ->
              for j = 0 to sent.(c) - 1 do
                let sz, y = part.(j mod Array.length part) in
                Stream.observe st ~size:sz y
              done)
            parts;
          let est = Stream.estimate st in
          let same field want =
            match json_float (J.member field e) with
            | Some got -> Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)
            | None -> not (Float.is_finite want)
          in
          if json_int (J.member "observed" e) <> total
             || not (same "support" est.Estimator.support && same "sigma" est.Estimator.sigma)
          then problem "estimate of %s differs from the sequential fold" (Itemset.to_string itemset))
        entries
  | _ -> problem "snapshot has no itemsets");
  let admin =
    if traced then
      let s = scrape (arg_int "admin-port") in
      let us name = sample_value s name /. 1e3 in
      [
        ("server.fold_latency_us_p50", us "ppdm_server_fold_latency_ns_p50");
        ("server.fold_latency_us_p99", us "ppdm_server_fold_latency_ns_p99");
        ("server.queue_depth_max", !queue_max);
        ("server.worker_busy_share",
          (cpu1 -. cpu0) /. (elapsed *. arg_float "server-domains"));
        ("server.error_frames",
          sample_sum s (fun n ->
              String.length n > 19 && String.sub n 0 19 = "ppdm_server_errors_"));
      ]
    else []
  in
  let reports_folded =
    if traced then sample_value (scrape (arg_int "admin-port")) "ppdm_server_reports_total"
    else float_of_int total
  in
  for c = 1 to clients - 1 do Client.close conns.(c) done;
  Client.shutdown conns.(0);
  Client.close conns.(0);
  let rates = List.map (fun (r, _, _) -> r) closed in
  let traced_layers =
    if not traced then []
    else
      let reports_us = List.concat_map (fun (_, _, l) -> all_of l) closed in
      let untraced_dt = match untraced_round with Some (_, dt, _) -> dt | None -> 0. in
      let items = float_of_int (items_out data) in
      [
        ("optimizer.scheme_s", scheme_s);
        ("randomizer.busy_s", randomize_s);
        ("randomizer.ns_per_item_out", ratio (randomize_s *. 1e9) items);
        ("client.report_us_p50", quantile reports_us 0.5);
        ("client.report_us_p99", quantile reports_us 0.99);
        ("client.barrier_ms_p50", quantile (all_of barrier_ms) 0.5);
        ("generator.lag_ms_p90", quantile (all_of lag) 0.9);
        ("trace.overhead_s",
          quantile (List.map (fun (_, dt, _) -> dt) closed) 0.5 -. untraced_dt);
      ]
      @ admin
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("setup_s", J.Float setup_s);
            ("ingest_reports_per_s", J.Float (quantile rates 0.5));
            ( "ingest_reports_per_cpu_s",
              J.Float
                (float_of_int (List.length closed * round_reports * clients)
                /. closed_cpu) );
            ("closed_rates", J.List (List.map (fun r -> J.Float r) rates));
            ("freshness_ms_p50", J.Float (quantile (all_of fresh) 0.5));
            ("freshness_ms_p90", J.Float (quantile (all_of fresh) 0.9));
            ("barriers", J.Int (Array.fold_left ( + ) 0 barriers));
            ( "attempted",
              J.Int (total + !barriers_run + Array.fold_left ( + ) 0 barriers) );
            ("failed", J.Int (max 0 (total - !folded)));
            ("problems", J.List (List.map (fun s -> J.String s) !problems));
            ( "counts",
              obj_of
                [
                  ("server.reports_folded", reports_folded);
                  ("randomizer.items_out_per_tx",
                    float_of_int (items_out data) /. float_of_int pool_size);
                ] );
            ("layers", obj_of traced_layers);
          ]))

let () =
  match command with
  | "replay randomize" -> replay_randomize ()
  | "replay private" -> replay_private ()
  | "replay mine" -> replay_mine ()
  | "private-ref" -> private_ref ()
  | "ingest" -> ingest ()
  | c -> failwith ("layers: unknown command " ^ c)
