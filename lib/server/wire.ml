open Ppdm_data

let protocol_version = 1

type error_code =
  | Frame_too_large
  | Bad_frame
  | Protocol_violation
  | Scheme_mismatch
  | Item_out_of_universe
  | Size_not_covered
  | Handshake_timeout

let error_code_name = function
  | Frame_too_large -> "frame-too-large"
  | Bad_frame -> "bad-frame"
  | Protocol_violation -> "protocol-violation"
  | Scheme_mismatch -> "scheme-mismatch"
  | Item_out_of_universe -> "item-out-of-universe"
  | Size_not_covered -> "size-not-covered"
  | Handshake_timeout -> "handshake-timeout"

let error_code_tag = function
  | Frame_too_large -> 1
  | Bad_frame -> 2
  | Protocol_violation -> 3
  | Scheme_mismatch -> 4
  | Item_out_of_universe -> 5
  | Size_not_covered -> 6
  | Handshake_timeout -> 7

let error_code_of_tag = function
  | 1 -> Some Frame_too_large
  | 2 -> Some Bad_frame
  | 3 -> Some Protocol_violation
  | 4 -> Some Scheme_mismatch
  | 5 -> Some Item_out_of_universe
  | 6 -> Some Size_not_covered
  | 7 -> Some Handshake_timeout
  | _ -> None

type message =
  | Hello of { version : int; sizes : int list; scheme : string }
  | Welcome of { universe : int; itemsets : Itemset.t list }
  | Report of { size : int; items : Itemset.t }
  | Snapshot_request of { flush : bool }
  | Snapshot of { json : string }
  | Shutdown
  | Bye
  | Error of { code : error_code; detail : string }

let message_name = function
  | Hello _ -> "hello"
  | Welcome _ -> "welcome"
  | Report _ -> "report"
  | Snapshot_request _ -> "snapshot-request"
  | Snapshot _ -> "snapshot"
  | Shutdown -> "shutdown"
  | Bye -> "bye"
  | Error _ -> "error"

(* ------------------------------------------------------------- encoding *)

let check_u16 what v =
  if v < 0 || v > 0xFFFF then
    invalid_arg (Printf.sprintf "Wire.encode: %s %d outside u16" what v)

let check_u31 what v =
  if v < 0 || v > 0x7FFFFFFF then
    invalid_arg (Printf.sprintf "Wire.encode: %s %d outside u31" what v)

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))
let add_u16 buf v = Buffer.add_uint16_be buf v
let add_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)

let add_itemset buf s =
  let k = Itemset.cardinal s in
  check_u16 "itemset cardinality" k;
  add_u16 buf k;
  Itemset.iter
    (fun i ->
      check_u31 "item" i;
      add_u32 buf i)
    s

let encode msg =
  let buf = Buffer.create 64 in
  (match msg with
  | Hello { version; sizes; scheme } ->
      add_u8 buf 0x01;
      check_u16 "version" version;
      add_u16 buf version;
      check_u16 "size count" (List.length sizes);
      add_u16 buf (List.length sizes);
      List.iter
        (fun m ->
          check_u16 "transaction size" m;
          add_u16 buf m)
        sizes;
      Buffer.add_string buf scheme
  | Welcome { universe; itemsets } ->
      add_u8 buf 0x02;
      check_u31 "universe" universe;
      add_u32 buf universe;
      check_u16 "itemset count" (List.length itemsets);
      add_u16 buf (List.length itemsets);
      List.iter (add_itemset buf) itemsets
  | Report { size; items } ->
      add_u8 buf 0x03;
      check_u16 "transaction size" size;
      add_u16 buf size;
      add_itemset buf items
  | Snapshot_request { flush } ->
      add_u8 buf 0x04;
      add_u8 buf (if flush then 1 else 0)
  | Snapshot { json } ->
      add_u8 buf 0x05;
      Buffer.add_string buf json
  | Shutdown -> add_u8 buf 0x06
  | Bye -> add_u8 buf 0x07
  | Error { code; detail } ->
      add_u8 buf 0x08;
      add_u8 buf (error_code_tag code);
      Buffer.add_string buf detail);
  Buffer.to_bytes buf

(* ------------------------------------------------------------- decoding *)

exception Reject of string

let decode payload =
  let len = Bytes.length payload in
  let pos = ref 0 in
  let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt in
  let need n what =
    if !pos + n > len then
      reject "truncated payload: %s needs %d byte(s), %d left" what n (len - !pos)
  in
  let u8 what =
    need 1 what;
    let v = Char.code (Bytes.get payload !pos) in
    incr pos;
    v
  in
  let u16 what =
    need 2 what;
    let v = Bytes.get_uint16_be payload !pos in
    pos := !pos + 2;
    v
  in
  let u32 what =
    need 4 what;
    let v = Int32.to_int (Bytes.get_int32_be payload !pos) in
    pos := !pos + 4;
    if v < 0 then reject "%s outside u31" what;
    v
  in
  let rest () =
    let s = Bytes.sub_string payload !pos (len - !pos) in
    pos := len;
    s
  in
  (* [List.init]/[Array.init] apply their function in unspecified order;
     the parser is stateful, so every repeated field reads explicitly. *)
  let read_list n f =
    let rec go acc i = if i = n then List.rev acc else go (f () :: acc) (i + 1) in
    go [] 0
  in
  let itemset () =
    let k = u16 "itemset cardinality" in
    let items = Array.make k 0 in
    for i = 0 to k - 1 do
      items.(i) <- u32 "item"
    done;
    for i = 1 to k - 1 do
      if items.(i) <= items.(i - 1) then
        reject "itemset items not strictly increasing"
    done;
    Itemset.of_sorted_array_unchecked items
  in
  let finished what =
    if !pos <> len then reject "%d trailing byte(s) after %s" (len - !pos) what
  in
  try
    let tag = u8 "tag" in
    let msg =
      match tag with
      | 0x01 ->
          let version = u16 "version" in
          let n = u16 "size count" in
          let sizes = read_list n (fun () -> u16 "transaction size") in
          let scheme = rest () in
          Hello { version; sizes; scheme }
      | 0x02 ->
          let universe = u32 "universe" in
          let n = u16 "itemset count" in
          let itemsets = read_list n (fun () -> itemset ()) in
          finished "welcome";
          Welcome { universe; itemsets }
      | 0x03 ->
          let size = u16 "transaction size" in
          let items = itemset () in
          finished "report";
          Report { size; items }
      | 0x04 ->
          let flush =
            match u8 "flush flag" with
            | 0 -> false
            | 1 -> true
            | v -> reject "flush flag %d is not 0|1" v
          in
          finished "snapshot-request";
          Snapshot_request { flush }
      | 0x05 -> Snapshot { json = rest () }
      | 0x06 ->
          finished "shutdown";
          Shutdown
      | 0x07 ->
          finished "bye";
          Bye
      | 0x08 ->
          let code =
            let t = u8 "error code" in
            match error_code_of_tag t with
            | Some c -> c
            | None -> reject "unknown error code %d" t
          in
          Error { code; detail = rest () }
      | t -> reject "unknown message tag 0x%02x" t
    in
    Ok msg
  with Reject msg -> Result.Error msg
