(** Deterministic fault-injection scenarios.

    Each scenario arms a hook ({!Ppdm_runtime.Pool.inject_task_failure}
    or {!Ppdm_data.Io.inject_read_truncation}), drives the real code
    path, and asserts the documented failure contract: the error reaches
    the caller as the documented exception, sibling work still completes,
    nothing hangs, and no partial output escapes.  Every scenario disarms
    its hook in a [finally], so a failing scenario cannot poison later
    checks. *)

val pool_error_propagates :
  jobs:int -> k:int -> n:int -> unit -> (unit, string) result
(** Run a batch of [n] tasks on a [jobs]-domain pool with the [k]-th
    armed to fail.  Asserts:
    {!Ppdm_runtime.Pool.Injected_fault} reaches the caller; every other
    task ran to completion (no structural cancellation); and the pool
    still executes a clean follow-up batch (workers survive).  Requires
    [0 <= k < n]. *)

val map_reduce_fault_no_partial : jobs:int -> (unit, string) result
(** Arm a fault at a middle chunk of a [map_reduce] and assert the call
    raises rather than returning a partially reduced value. *)

val io_truncated_read_rejected : unit -> (unit, string) result
(** Write a database, arm a truncation mid-body, and assert
    {!Ppdm_data.Io.read_file} raises its documented [Failure] ("fewer
    transactions than declared") instead of returning a partial database
    — then that the same file reads back fully once disarmed. *)

val io_truncated_header_rejected : unit -> (unit, string) result
(** Truncation before the header must fail as "empty input". *)

val io_fimi_truncation_is_silent : unit -> (unit, string) result
(** The FIMI format declares no count, so truncation yields a shorter
    database with no error — asserted here to document the asymmetry the
    header format exists to close. *)

(** {1 Server scenarios}

    Each starts a real {!Ppdm_server.Serve} on an ephemeral loopback
    port, injects the fault as raw bytes on a client socket, and asserts
    the wire contract: the documented typed [Error] frame (or none, for
    a peer that vanishes), no lost valid reports, and — always — that a
    fresh session still gets a snapshot afterwards.  A misbehaving
    client takes down nothing but itself. *)

val server_oversized_frame_rejected : unit -> (unit, string) result
(** A frame header declaring more than the cap earns [Frame_too_large]
    and ends the session; the server keeps serving. *)

val server_malformed_length_rejected : unit -> (unit, string) result
(** A declared length of zero earns [Bad_frame]. *)

val server_truncated_frame_tolerated : unit -> (unit, string) result
(** A client that dies mid-frame is dropped silently (nothing to answer);
    the server keeps serving. *)

val server_mid_session_disconnect : unit -> (unit, string) result
(** Valid reports followed by an abrupt close: every report already on
    the wire is eventually folded, none double-counted. *)

val server_scheme_mismatch_rejected : unit -> (unit, string) result
(** A hello whose operator parameters differ from the server's earns
    [Scheme_mismatch] at handshake time. *)

val server_invalid_reports_rejected : unit -> (unit, string) result
(** An out-of-universe item and a size outside the handshake each earn
    their typed error while the session {e continues}; a subsequent
    valid report still lands, exactly once. *)

val client_oversized_send_rejected : unit -> (unit, string) result
(** A client configured with a small frame cap refuses to {e send} a
    message that encodes above it ([Invalid_argument], mirroring the
    read-side [Too_large]) — nothing reaches the wire, and the server
    keeps serving. *)

(** {1 Admin-plane scenarios}

    Each runs a server with the admin plane on (ephemeral port, 1ms
    sampler), replays a fixed deterministic report set, injects the
    fault over the admin socket or its timing, and asserts the one
    invariant that matters: the flushed estimates are {e bit-identical}
    to a sequential fold of the same reports.  The admin plane may
    degrade under abuse; the data plane may not move. *)

val admin_garbage_request_rejected : unit -> (unit, string) result
(** Raw non-HTTP bytes at the admin port earn a 400; the admin loop
    answers the next scrape and the estimates are unchanged. *)

val admin_oversized_request_rejected : unit -> (unit, string) result
(** A request whose headers never terminate within the size cap earns a
    413; the admin loop and the data plane survive. *)

val admin_scrape_racing_shutdown : unit -> (unit, string) result
(** A domain hammering [/metrics] races a server shutdown: every fetch
    returns (a response or a clean connection error, never a hang), at
    least one scrape succeeded, and the pre-shutdown estimates equal the
    sequential fold. *)

val admin_sampler_during_quiesce : unit -> (unit, string) result
(** With the sampler ticking every 1ms, repeated flushed snapshots
    (quiesce barriers) all equal the sequential fold — sampling reads
    never perturb the accumulators. *)

val server_queued_client_disconnect : unit -> (unit, string) result
(** On a one-worker server, a client that queues behind a busy session
    (a control hello plus 50 snapshot requests) and closes before it is
    served: answering its dead socket ends only that session.  A fresh
    session is then served, and the flushed estimates are bit-identical
    to a sequential fold of the acknowledged reports. *)

val server_idle_connection_times_out : unit -> (unit, string) result
(** On a one-worker server with a 0.2 s handshake deadline, a connection
    that never sends [Hello] holds the only session worker: the deadline
    answers it [Handshake_timeout] and frees the worker, so a reporting
    session queued behind it is served no sooner than the deadline and
    within 10 s (else the scenario fails), and the flushed estimates are
    bit-identical to a sequential fold of its reports. *)
