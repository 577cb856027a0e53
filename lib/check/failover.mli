(** The replicated subject: a diskdb primary (crash-mode configuration)
    replicating to a {!Hyper_repl.Repl.Cluster}, with its own faults —
    message-level link faults and a replica kill/restart — on top of
    the crash loop's primary crash point.  Recovery promotes the
    most-caught-up live replica and opens its files as an ordinary
    store.

    The verdict's allowed set is the survivor's applied commit count
    [k] alone ({e prefix consistency}: replica logs are gap-free
    prefixes, so a failover may lose a tail of unacknowledged
    transactions but never keeps partial or reordered state).  Acked
    durability, [acked <= k], is promised for sync-one and quorum while
    the replicas dead at promotion stay below the policy's required ack
    count. *)

type config = {
  policy : Hyper_repl.Repl.policy;
  replicas : int;
  net_faults : bool;  (** drop/duplicate/reorder/delay on the links *)
  kill_at : (int * int) option;  (** (replica index, op step) to crash *)
  restart_at : int option;  (** op step to restart the killed replica *)
  retain : int;  (** retained log records; small forces snapshot catch-up *)
  snapshot_lag : int;
}

val subject :
  seed:int64 -> gen_seed:int64 -> level:int -> config -> Differential.subject
(** [seed] seeds the link faults and names the replicas. *)
