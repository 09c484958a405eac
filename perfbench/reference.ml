(* The benchmark's own oracle: what the generated program must print
   and which units an edit may recompile, derived from the source text
   alone.  Nothing here calls the compiler, the dependency scanner or
   the generator's internals; it reads the lines [Workload.Gen] writes
   and redoes their arithmetic on OCaml's native ints, which wrap
   around exactly like MiniSML's. *)

type unit_text = {
  name : string;  (* structure name, e.g. U017 *)
  refs : string list;  (* other units named as [Uxxx.] in the text *)
  seed_terms : [ `Unit of string | `Const of int ] list;
  helpers : (int * (int * int)) list;  (* helpN -> (base, multiplier) *)
  works : (int * (int * int)) list;  (* workN -> (helper, multiplier) *)
}

exception Unparsed of string

let is_digit c = c >= '0' && c <= '9'

(* every [Uddd.] occurrence, own name excluded, deduplicated *)
let unit_refs ~self text =
  let n = String.length text in
  let found = ref [] in
  for i = 0 to n - 5 do
    if text.[i] = 'U' && is_digit text.[i + 1] && is_digit text.[i + 2]
       && is_digit text.[i + 3] && text.[i + 4] = '.'
    then begin
      let name = String.sub text i 4 in
      if (not (String.equal name self)) && not (List.mem name !found) then
        found := name :: !found
    end
  done;
  List.sort String.compare !found

let structure_name text =
  let name = ref None in
  List.iter
    (fun line ->
      if !name = None then
        try Scanf.sscanf line "structure %s = struct" (fun s -> name := Some s)
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> ())
    (String.split_on_char '\n' text);
  match !name with
  | Some s -> s
  | None -> raise (Unparsed "no structure line")

let parse_seed rhs =
  List.map
    (fun term ->
      let term = String.trim term in
      if String.length term = 9 && term.[0] = 'U' && String.ends_with ~suffix:".seed" term
      then `Unit (String.sub term 0 4)
      else
        match int_of_string_opt term with
        | Some k -> `Const k
        | None -> raise (Unparsed ("seed term " ^ term)))
    (String.split_on_char '+' rhs)

let parse text =
  let name = structure_name text in
  let seed = ref None and helpers = ref [] and works = ref [] in
  let try_scan line fmt k =
    try Scanf.sscanf line fmt k with
    | Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
  in
  List.iter
    (fun line ->
      try_scan line " val seed = %[^\n]" (fun rhs ->
          if !seed = None then seed := Some (parse_seed rhs));
      try_scan line " fun help%d n = if n < 1 then %d else n * %d + help%d (n - 1)"
        (fun h base mult h' -> if h = h' then helpers := (h, (base, mult)) :: !helpers);
      try_scan line " fun work%d n = help%d (n mod 7) + seed * %d"
        (fun f h mult -> works := (f, (h, mult)) :: !works))
    (String.split_on_char '\n' text);
  {
    name;
    refs = unit_refs ~self:name text;
    seed_terms = Option.value ~default:[] !seed;
    helpers = !helpers;
    works = !works;
  }

(* ------------------------------------------------------------------ *)
(* The program's output                                                *)
(* ------------------------------------------------------------------ *)

let seeds units =
  let table = Hashtbl.create 64 in
  let by_name = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace by_name u.name u) units;
  let rec seed name =
    match Hashtbl.find_opt table name with
    | Some v -> v
    | None ->
      let u =
        match Hashtbl.find_opt by_name name with
        | Some u -> u
        | None -> raise (Unparsed ("unknown unit " ^ name))
      in
      let v =
        List.fold_left
          (fun acc -> function `Unit d -> acc + seed d | `Const k -> acc + k)
          0 u.seed_terms
      in
      Hashtbl.replace table name v;
      v
  in
  List.iter (fun u -> ignore (seed u.name)) units;
  table

let work units =
  let seeds = seeds units in
  fun name f ->
    let u = List.find (fun u -> String.equal u.name name) units in
    let helper, mult = List.assoc f u.works in
    let base, hmult = List.assoc helper u.helpers in
    let rec help n = if n < 1 then base else (n * hmult) + help (n - 1) in
    fun n -> help (n mod 7) + (Hashtbl.find seeds name * mult)

(* the text of the benchmark's own main unit: [iterations] rounds of
   [acc * 31 + U.workF i + ...] over [calls], then print the total *)
let main_source ~iterations calls =
  let terms =
    String.concat ""
      (List.map (fun (u, f) -> Printf.sprintf "\n        + %s.work%d i" u f) calls)
  in
  Printf.sprintf
    "structure Main = struct\n\
    \  fun loop (i, acc) =\n\
    \    if i < 1 then acc\n\
    \    else loop (i - 1, acc * 31%s)\n\
    \  val checksum = loop (%d, 0)\n\
    \  val shown = print (intToString checksum)\n\
     end\n"
    terms iterations

(* SML's rendering of an int: [~] for the sign *)
let sml_int n = if n < 0 then "~" ^ string_of_int (-n) else string_of_int n

let checksum units ~iterations calls =
  let work = work units in
  let fns = List.map (fun (u, f) -> work u f) calls in
  let acc = ref 0 in
  for i = iterations downto 1 do
    acc := List.fold_left (fun acc w -> acc + w i) (!acc * 31) fns
  done;
  sml_int !acc

(* ------------------------------------------------------------------ *)
(* Which units an edit may recompile                                   *)
(* ------------------------------------------------------------------ *)

(* [importers units victim] — units whose text names [victim] *)
let importers units victim =
  List.filter_map
    (fun u -> if List.mem victim u.refs then Some u.name else None)
    units

(* the transitive dependents of [victim] *)
let cone units victim =
  let rec grow seen = function
    | [] -> seen
    | name :: rest ->
      let fresh =
        List.filter (fun d -> not (List.mem d seen)) (importers units name)
      in
      grow (fresh @ seen) (fresh @ rest)
  in
  grow [] [ victim ]

module Names = Set.Make (String)

(* the sum over units of the size of their transitive import closure:
   the number of bins a from-clean build rehydrates when every compile
   loads its whole closure *)
let closure_total units =
  let refs = Hashtbl.create 64 and memo = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace refs u.name u.refs) units;
  let rec closure name =
    match Hashtbl.find_opt memo name with
    | Some s -> s
    | None ->
      let s =
        List.fold_left
          (fun acc d -> Names.union acc (Names.add d (closure d)))
          Names.empty
          (Option.value ~default:[] (Hashtbl.find_opt refs name))
      in
      Hashtbl.replace memo name s;
      s
  in
  List.fold_left (fun acc u -> acc + Names.cardinal (closure u.name)) 0 units
