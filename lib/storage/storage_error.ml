type fault = Eio | Enospc | Efault of string

type t =
  | Io of { op : string; path : string; fault : fault; transient : bool }
  | Corrupt_page of { path : string; page : int; expected : int; actual : int }
  | Read_only
  | Unsupported_format of { path : string; found : int; expected : int }

exception Error of t

let fault_to_string = function
  | Eio -> "EIO"
  | Enospc -> "ENOSPC"
  | Efault e -> e

let to_string = function
  | Io { op; path; fault; transient } ->
    Printf.sprintf "%s(%s): %s%s" op path (fault_to_string fault)
      (if transient then " (transient)" else "")
  | Corrupt_page { path; page; expected; actual } ->
    Printf.sprintf
      "%s: page %d checksum mismatch (stored %#x, computed %#x)" path page
      expected actual
  | Read_only -> "store is in read-only mode (WAL unavailable)"
  | Unsupported_format { path; found; expected } ->
    Printf.sprintf
      "%s: unsupported format (magic %#x, this build reads %#x); recover \
       it with the build that wrote it"
      path found expected

let is_transient = function Io { transient; _ } -> transient | _ -> false

let raise_io ~op ~path ~fault ~transient =
  raise (Error (Io { op; path; fault; transient }))

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Storage_error(%s)" (to_string e))
    | _ -> None)
