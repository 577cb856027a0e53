(** The wire subject: the socket stack ({!Hyper_net.Wire} codec,
    {!Hyper_net.Server} sessions, {!Hyper_net.Client}) in front of any
    {!Differential.subject}.

    Each op travels as a one-op request and the server's reply is the
    outcome — the wire codec round-trips {!Hyper_core.Trace.outcome}
    exactly, so agreement with the oracle means framing, session and
    transaction plumbing added nothing and lost nothing.

    A crash armed under the served store kills the server {e without
    acking the in-flight request} (its [reraise] hook), so the client
    sees {!Hyper_net.Client.Connection_lost}.  Recovery kills the
    server, recovers the inner store, starts a fresh server over it and
    hands the verdict a {!Hyper_net.Client_backend} reading through a
    new connection: the acked prefix is verified end to end. *)

val subject : level:int -> Differential.subject -> Differential.subject
(** Named [<inner>-wire]. *)
