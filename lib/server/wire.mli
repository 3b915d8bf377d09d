(** Binary message codec of the ingest protocol.

    A message is one frame payload (see {!Framing} for the length prefix):
    a one-byte tag followed by a fixed, big-endian binary layout per
    message kind.  The codec is strict in both directions — {!decode}
    rejects unknown tags, short payloads, trailing bytes after a
    fixed-size message, and item lists that are not strictly increasing —
    so a garbled frame surfaces as a typed error, never as a silently
    misparsed report.

    Protocol summary (client to server unless noted):

    {v
    tag  message           payload after the tag
    0x01 Hello             u16 version, u16 n, n*u16 sizes, scheme text
    0x02 Welcome (server)  u32 universe, u16 n, n*(u16 k, k*u32 items)
    0x03 Report            u16 original size, u16 k, k*u32 items
    0x04 Snapshot_request  u8 flush (0|1)
    0x05 Snapshot (server) JSON text
    0x06 Shutdown          (empty)
    0x07 Bye (server)      (empty)
    0x08 Error (server)    u8 code, detail text
    v}

    The [Hello] scheme text is the {!Ppdm.Scheme_io} serialization of the
    client's operator parameters at the sizes it will report (empty for a
    control-only session that sends no reports); the server accepts the
    session only if {!Ppdm.Randomizer.same_parameters} holds against its
    own scheme at those sizes. *)

open Ppdm_data

val protocol_version : int

(** Typed error codes the server can answer with.  [Frame_too_large],
    [Bad_frame] and [Protocol_violation] are fatal (the server closes the
    session after sending them); [Handshake_timeout] ends a session that
    sent no [Hello] within the server's deadline; [Scheme_mismatch]
    rejects the handshake;
    [Item_out_of_universe] and [Size_not_covered] reject one report and
    leave the session open. *)
type error_code =
  | Frame_too_large
  | Bad_frame
  | Protocol_violation
  | Scheme_mismatch
  | Item_out_of_universe
  | Size_not_covered
  | Handshake_timeout

val error_code_name : error_code -> string

type message =
  | Hello of { version : int; sizes : int list; scheme : string }
  | Welcome of { universe : int; itemsets : Itemset.t list }
  | Report of { size : int; items : Itemset.t }
  | Snapshot_request of { flush : bool }
  | Snapshot of { json : string }
  | Shutdown
  | Bye
  | Error of { code : error_code; detail : string }

val encode : message -> Bytes.t
(** Serialize to a frame payload.
    @raise Invalid_argument if a field exceeds its encoding range (a size
    or cardinality beyond 65535, an item id beyond [2^31 - 1], more than
    65535 sizes or itemsets). *)

val decode : Bytes.t -> (message, string) result
(** Parse one frame payload.  Total: every byte sequence yields [Ok] or
    [Error], never an exception. *)

val message_name : message -> string
(** Tag name for logs and metrics ("hello", "report", ...). *)
