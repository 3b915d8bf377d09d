(** Client side of the wire protocol: connect, handshake, stream reports,
    pull snapshots.

    This is the support library for [ppdm load], the examples, and the
    loopback tests.  High-level calls raise {!Server_error} when the
    server answers a typed [Error] frame and [Failure] on transport
    trouble (peer gone, truncated frame, undecodable payload); the
    low-level [send_raw]/[read] pair is exposed so fault-injection tests
    can speak malformed bytes and observe the exact reply. *)

open Ppdm_data
open Ppdm

type t
(** A connected session. *)

exception Server_error of Wire.error_code * string
(** The server answered [Error { code; detail }]. *)

exception Connect_failed of { port : int; error : Unix.error }
(** {!connect} gave up: no server accepted on 127.0.0.1:[port] within
    its retries, or the connect failed in a way retrying cannot fix;
    [error] is the last socket error. *)

val connect : ?retries:int -> ?max_frame:int -> port:int -> unit -> t
(** Connect to 127.0.0.1:[port].  [retries] (default 100) connection
    attempts 10 ms apart cover the race against a server still binding.
    [max_frame] (default {!Framing.default_max_frame}) caps frames in
    {e both} directions: reads reject larger frames, and {!send} raises
    [Invalid_argument] rather than emit one the peer would reject.
    @raise Connect_failed when every attempt fails. *)

val close : t -> unit
(** Close the socket (idempotent). *)

val handshake :
  t -> ?scheme:Randomizer.t -> sizes:int list -> unit -> int * Itemset.t list
(** Send [Hello] and await [Welcome]; returns the server's universe and
    tracked itemsets.  [scheme] must be given when [sizes] is non-empty
    (its {!Ppdm.Scheme_io} text rides in the hello); omit both for a
    control-only session. *)

val report : t -> size:int -> Itemset.t -> unit
(** Stream one randomized transaction (as its intersection pattern with
    the universe), without awaiting a reply — errors for invalid reports
    arrive asynchronously and surface at the next read. *)

val snapshot : t -> flush:bool -> string
(** Request a snapshot and return its JSON. *)

val shutdown : t -> unit
(** Ask the server to stop; waits for [Bye] (tolerating an already-closed
    peer). *)

(** {2 Low-level access (fault injection, tests)} *)

val send : t -> Wire.message -> unit
(** Encode, frame, write. *)

val send_raw : t -> bytes -> unit
(** Write bytes verbatim — no framing, no validation. *)

val read : t -> (Wire.message, string) result
(** Read and decode one frame.  [Error] describes transport or decode
    trouble (["closed"], ["truncated ..."], ...) — a successfully decoded
    [Wire.Error] frame is [Ok (Error _)], not [Error _]. *)

val fd : t -> Unix.file_descr
(** The underlying socket, for surgical fault injection ([shutdown] of
    one direction, abrupt close mid-frame). *)
