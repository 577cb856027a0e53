(* perfbench — the repository's benchmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds of measurement on inputs generated
   from seed N, checks the program's outputs, and prints one JSON line
   last: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end ones of the workload.  With --trace 1
   the observability sink is on and the metrics are the per-layer
   figures of three sections, each given a third of S: both workloads
   and the durable-commit section, because the per-layer metrics are
   one list shared by every traced run.  Exits 1 when an output check
   fails, 2 on bad arguments. *)

let workloads = [ "paper_l6"; "served_mix" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload paper_l6|served_mix --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := Option.bind (float_of_string_opt s) (fun s -> if s > 0.0 then Some s else None);
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some n, Some s, Some t -> (w, n, s, t)
  | _ -> usage ()

let untraced workload ~seed ~seconds =
  match workload with
  | "paper_l6" -> Paper.run ~seed ~seconds
  | _ -> Served.run ~seed ~seconds

let traced ~seed ~seconds =
  let third = seconds /. 3.0 in
  let parts =
    [ Paper.traced ~seed ~seconds:third;
      Served.traced ~seed ~seconds:third;
      Durable.traced ~seed ~seconds:third ]
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 parts in
  { Common.attempted = sum (fun r -> r.Common.attempted);
    failed = sum (fun r -> r.Common.failed);
    metrics = List.concat_map (fun r -> r.Common.metrics) parts }

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  match
    Common.with_scratch_dir (fun () ->
        if trace then traced ~seed ~seconds else untraced workload ~seed ~seconds)
  with
  | r ->
    print_endline
      (Common.result_line ~attempted:r.Common.attempted
         ~failed:r.Common.failed r.Common.metrics)
  | exception Common.Check_failed msg ->
    Printf.eprintf "perfbench: output check failed: %s\n%!" msg;
    exit 1
