module D = Hyper_diskdb.Diskdb
module Repl = Hyper_repl.Repl
module Replica = Hyper_repl.Repl.Replica
module Cluster = Hyper_repl.Repl.Cluster

type config = {
  policy : Repl.policy;
  replicas : int;
  net_faults : bool;
  kill_at : (int * int) option;
  restart_at : int option;
  retain : int;
  snapshot_lag : int;
}

(* Replica acks a commit needs beyond the primary's own vote, mirroring
   the cluster's policy arithmetic. *)
let required_acks policy replicas =
  match policy with
  | Repl.Async -> 0
  | Repl.Sync_one -> 1
  | Repl.Quorum -> (replicas + 1) / 2

let subject ~seed ~gen_seed ~level c =
  let layout = Differential.layout_of ~level in
  let fresh () =
    let env = Hyper_storage.Vfs.Faulty.create Hyper_storage.Vfs.Faulty.quiet in
    let vfs = Hyper_storage.Vfs.Faulty.vfs env in
    let db = D.open_db (Differential.crash_config vfs) in
    let store = Differential.disk_instance db in
    Differential.generate ~gen_seed ~level store;
    (* The cluster forms after generation, so replica commit counts map
       1:1 onto the trace's commit prefix. *)
    let cluster =
      Cluster.create
        ~cfg:
          { Cluster.default_config with
            policy = c.policy; retain_records = c.retain;
            snapshot_lag = c.snapshot_lag;
            link_plan =
              (if c.net_faults then Hyper_net.Channel.Link.faulty ~seed
               else Hyper_net.Channel.Link.reliable) }
        ~engine:(D.engine db) ~vfs ~path:"/fuzz/disk.db"
        ~replicas:
          (List.init c.replicas (fun i ->
               Replica.create ~name:(Printf.sprintf "s%Ld-r%d" seed i) ()))
        ()
    in
    let before_op i =
      (match c.kill_at with
      | Some (r, at) when at = i -> Cluster.kill_replica cluster r
      | Some _ | None -> ());
      (match (c.restart_at, c.kill_at) with
      | Some at, Some (r, _) when at = i -> Cluster.restart_replica cluster r
      | (Some _ | None), _ -> ());
      if i > 0 && i mod 16 = 0 then Cluster.heartbeat cluster
    in
    let recover ~crashed ~acked:_ ~in_flight:_ =
      (* A surviving primary settles its tail (async mode ships without
         waiting); a crashed one is gone and must not be touched. *)
      if not crashed then Cluster.heartbeat cluster;
      let dead = ref 0 in
      for i = 0 to Cluster.n_replicas cluster - 1 do
        if not (Replica.up (Cluster.replica cluster i)) then incr dead
      done;
      let counters = Cluster.counters cluster in
      let idx, survivor = Cluster.promote cluster in
      let k = Replica.applied_commits survivor in
      let promoted =
        D.open_db
          { (Differential.crash_config (Replica.vfs survivor)) with
            D.path = Replica.path survivor }
      in
      { Differential.state = Differential.disk_instance promoted;
        prefixes = [ k ];
        (* With [required] replica acks per commit, up to [required - 1]
           replica losses (plus the primary) cannot take the last acked
           commit with them. *)
        acked_durable = !dead < required_acks c.policy c.replicas;
        note =
          Printf.sprintf "policy=%s survivor=r%d degraded=%b"
            (Repl.policy_to_string c.policy) idx (Cluster.degraded cluster);
        catchups = (counters.Cluster.snapshots, counters.Cluster.replays);
        release = Differential.quietly D.close promoted }
    in
    let close = Differential.quietly D.close db in
    let apply = Hyper_core.Trace.apply ~reraise:Differential.is_crash ~layout in
    { Differential.store; env; apply = apply store; before_op; recover; close }
  in
  { Differential.name = "diskdb-replicated"; fresh }
