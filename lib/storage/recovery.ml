module Obs = Hyper_obs.Obs

let m_runs =
  Obs.Counter.make "hyper_recovery_runs_total" ~help:"recovery passes run"

let m_redone =
  Obs.Counter.make "hyper_recovery_pages_redone_total"
    ~help:"pages patched last by a committed transaction's redo ranges"

let m_undone =
  Obs.Counter.make "hyper_recovery_pages_undone_total"
    ~help:"pages patched last by an uncommitted transaction's undo ranges"

type report = {
  committed : int list;
  rolled_back : int list;
  pages_redone : int;
  pages_undone : int;
}

let after_last_checkpoint entries =
  let rec strip acc = function
    | [] -> List.rev acc
    | Wal.Checkpoint :: rest -> strip [] rest
    | e :: rest -> strip (e :: acc) rest
  in
  strip [] entries

(* Apply, per page and in LOG ORDER, the ranges of committed
   transactions' After records and of uncommitted transactions' Before
   records.  Separate redo-then-undo passes are wrong here: a transaction
   that aborted cleanly long before the crash also has no commit record,
   and replaying its before-ranges *after* the redo pass would clobber
   pages that later committed transactions rewrote — its ranges are only
   current up to the point in the log where it ran.  Applying in log
   order makes a later committed After win over a stale Before, while a
   transaction still in flight at the crash (whose records end the log)
   is undone.

   Each record's ranges cover every byte where the page's next image
   differs from the image before it, so whatever mix of those images a
   crash left on disk (a torn write included), patching in log order
   ends at the last image: bytes no record covers are equal in all of
   them.  Pages are therefore read unverified — a torn page fails its
   checksum until patched — and written back through [Pager.write],
   which rewrites the checksum.  A page the log mentions past the end of
   the file is first extended with zero pages (a torn log can name pages
   the data file never received).

   Shared with replication: a replica replaying its received log is
   exactly this resolution over a log whose tail may lack a commit. *)
let apply_log entries pager =
  let committed = Hashtbl.create 8 in
  List.iter
    (function
      | Wal.Commit t -> Hashtbl.replace committed t ()
      | Wal.Begin _ | Wal.Before _ | Wal.After _ | Wal.Checkpoint -> ())
    entries;
  (* page -> its applicable records, newest first *)
  let per_page = Hashtbl.create 64 in
  let add p r =
    Hashtbl.replace per_page p
      (r :: Option.value (Hashtbl.find_opt per_page p) ~default:[])
  in
  List.iter
    (function
      | Wal.After (t, p, rs) when Hashtbl.mem committed t -> add p (`Redo, rs)
      | Wal.Before (t, p, rs) when not (Hashtbl.mem committed t) ->
        add p (`Undo, rs)
      | Wal.Begin _ | Wal.Commit _ | Wal.Checkpoint | Wal.Before _
      | Wal.After _ -> ())
    entries;
  let redone = ref 0 in
  let undone = ref 0 in
  Hashtbl.iter
    (fun p records ->
      while Pager.page_count pager <= p do
        ignore (Pager.allocate pager)
      done;
      let img = Pager.read_unverified pager p in
      List.iter (fun (_, rs) -> Wal.patch img rs) (List.rev records);
      Pager.write pager p img;
      match records with
      | (`Redo, _) :: _ -> incr redone
      | (`Undo, _) :: _ -> incr undone
      | [] -> ())
    per_page;
  (!redone, !undone)

let recover ?(vfs = Vfs.real) ~wal_path pager =
  let entries = after_last_checkpoint (Wal.read_all ~vfs wal_path) in
  let committed = Hashtbl.create 8 in
  let started = Hashtbl.create 8 in
  List.iter
    (function
      | Wal.Begin t -> Hashtbl.replace started t ()
      | Wal.Commit t -> Hashtbl.replace committed t ()
      | Wal.Before _ | Wal.After _ | Wal.Checkpoint -> ())
    entries;
  let redone, undone = apply_log entries pager in
  Obs.Counter.incr m_runs;
  Obs.Counter.add m_redone redone;
  Obs.Counter.add m_undone undone;
  let ids tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
  let rolled_back =
    List.filter (fun t -> not (Hashtbl.mem committed t)) (ids started)
  in
  { committed = List.sort compare (ids committed);
    rolled_back = List.sort compare rolled_back;
    pages_redone = redone;
    pages_undone = undone }

let needs_recovery ?(vfs = Vfs.real) wal_path =
  after_last_checkpoint (Wal.read_all ~vfs wal_path) <> []
