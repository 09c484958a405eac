(* Per-layer split of one traced operation, from the spans the program
   emits (plus the benchmark's own [bench.*] and [vfs.*] spans).

   A span's self time is its duration minus the part its direct child
   spans cover, on its own (pid, tid) track.  On the calling domain's
   track the self times of every span inside the operation's [bench.*]
   span telescope to exactly its wall time; [residual_s] is the part
   that belongs to no layer: the benchmark's own span, the driver's
   [build] span and the scheduler's [sched.run] span (bookkeeping,
   waiting, IPC and GC that no span isolates). *)

(* span name -> (layer, metric the self time feeds) *)
let classify name =
  match name with
  | "parse" -> Some ("lang", "lang.parse_s")
  | "build.scan_sources" -> Some ("depend", "depend.scan_s")
  | "scan" -> Some ("depend", "depend.unit_scan_s")
  | "elaborate" -> Some ("statics", "statics.elaborate_s")
  | "translate" -> Some ("lambda", "lambda.translate_s")
  | "simplify" -> Some ("lambda", "lambda.simplify_s")
  | "hash" -> Some ("pickle", "pickle.hash_s")
  | "pickle.read" -> Some ("pickle", "pickle.read_s")
  | "pickle.write" | "pickle.write_static" -> Some ("pickle", "pickle.write_s")
  | "compile.unit" | "compile.static" | "compile.codegen" ->
    Some ("core", "core.compile_s")
  | "build.compile_job" -> Some ("irm", "irm.job_s")
  | "build.run" | "build.recover" -> Some ("irm", "irm.run_s")
  | "link.verify_imports" -> Some ("link", "link.verify_s")
  | "link.execute" -> Some ("link", "link.execute_s")
  | "vfs.read" -> Some ("vfs", "vfs.read_s")
  | "vfs.write" | "vfs.rename" | "vfs.remove" | "vfs.mtime" | "vfs.list" ->
    Some ("vfs", "vfs.meta_s")
  | _ -> None

(* every metric [classify] can feed, in report order *)
let metrics =
  [ "lang.parse_s"; "depend.scan_s"; "depend.unit_scan_s"; "statics.elaborate_s";
    "lambda.translate_s"; "lambda.simplify_s"; "pickle.hash_s"; "pickle.read_s";
    "pickle.write_s"; "core.compile_s"; "irm.job_s"; "irm.run_s"; "link.verify_s";
    "link.execute_s"; "vfs.read_s"; "vfs.meta_s" ]

type split = {
  wall_s : float;  (* the operation's [bench.*] span *)
  by_layer : (string * float) list;  (* main-track self seconds per layer *)
  by_metric : (string * float) list;  (* main-track self seconds per metric *)
  residual_s : float;  (* main-track self time of unclassified spans *)
  off_main_s : float;  (* self time on other tracks: worker domains, children *)
}

let add table key v =
  Hashtbl.replace table key (v +. Option.value ~default:0. (Hashtbl.find_opt table key))

(* self time of every span of one track: sort by (start, longest first)
   and keep a stack of open spans; each span subtracts itself from its
   innermost enclosing span *)
let self_times track =
  let spans =
    List.sort
      (fun (a : Obs.Trace.event) (b : Obs.Trace.event) ->
        match compare a.ev_start_us b.ev_start_us with
        | 0 -> compare b.ev_dur_us a.ev_dur_us
        | c -> c)
      track
    |> Array.of_list
  in
  let selfs = Array.map (fun (e : Obs.Trace.event) -> e.ev_dur_us) spans in
  let stack = ref [] in
  Array.iteri
    (fun i (e : Obs.Trace.event) ->
      let rec pop () =
        match !stack with
        | j :: rest
          when e.ev_start_us >= spans.(j).ev_start_us +. spans.(j).ev_dur_us ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | j :: _ -> selfs.(j) <- selfs.(j) -. e.ev_dur_us
      | [] -> ());
      stack := i :: !stack)
    spans;
  Array.to_list (Array.mapi (fun i e -> (e, selfs.(i) /. 1e6)) spans)

(* [split ~main_tid events op] — the split of the [bench.*] span [op]
   over the events that start inside its window *)
let split ~main_tid events (op : Obs.Trace.event) =
  let lo = op.ev_start_us and hi = op.ev_start_us +. op.ev_dur_us in
  let by_layer = Hashtbl.create 16 and by_metric = Hashtbl.create 32 in
  let main = ref [] and others = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.ev_start_us >= lo && e.ev_start_us < hi then
        if e.ev_pid = 0 && e.ev_tid = main_tid then main := e :: !main
        else others := e :: !others)
    events;
  let residual = ref 0. in
  List.iter
    (fun ((e : Obs.Trace.event), self) ->
      match classify e.ev_name with
      | Some (layer, metric) ->
        add by_layer layer self;
        add by_metric metric self
      | None -> residual := !residual +. self)
    (self_times !main);
  (* other tracks nest among themselves; their busy time is reported
     beside the identity, not inside it *)
  let by_track = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let key = (e.ev_pid, e.ev_tid) in
      Hashtbl.replace by_track key
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_track key)))
    !others;
  let off_main =
    Hashtbl.fold
      (fun _ track acc ->
        List.fold_left (fun acc (_, self) -> acc +. self) acc (self_times track))
      by_track 0.
  in
  let sorted table = List.sort compare (List.of_seq (Hashtbl.to_seq table)) in
  {
    wall_s = op.ev_dur_us /. 1e6;
    by_layer = sorted by_layer;
    by_metric = sorted by_metric;
    residual_s = !residual;
    off_main_s = off_main;
  }
