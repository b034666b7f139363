(* Timing, statistics and the result line shared by every workload. *)

let now = Unix.gettimeofday

(* [timed f] is [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [timed] after a full major collection, so garbage left by earlier
   work is neither collected on this call's time nor counted in the
   heap it grows. *)
let measured f =
  Gc.full_major ();
  timed f

(* Accumulate [f]'s wall time into [acc]. *)
let timing acc f =
  let t0 = now () in
  Fun.protect f ~finally:(fun () -> acc := !acc +. (now () -. t0))

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Seconds per call of [f] in each of [k] batches.  Each batch starts
   after a full major collection and repeats [f] until [min_s] have
   passed (at least once), so a call of a few microseconds is still
   timed well above the clock's grain.  One batch before them warms
   up and is dropped. *)
let batches ?(k = 9) ?(min_s = 0.03) f =
  let batch () =
    Gc.full_major ();
    let t0 = now () in
    let n = ref 0 in
    while !n = 0 || now () -. t0 < min_s do
      f ();
      incr n
    done;
    (now () -. t0) /. float_of_int !n
  in
  ignore (batch ());
  List.init k (fun _ -> batch ())

(* Seconds per call of [f]: the median of [batches]. *)
let per_call f = median (batches f)

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- Metrics and the result line ----------------------------------------- *)

type metrics = (string * (float * string)) list ref

let metrics () : metrics = ref []

let set (m : metrics) name unit v =
  m := (name, (v, unit)) :: List.remove_assoc name !m

let add (m : metrics) name unit v =
  let prev = match List.assoc_opt name !m with Some (x, _) -> x | None -> 0.0 in
  set m name unit (prev +. v)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output: one JSON object with the metrics
   that were set, in any order.  perfbench/run.py checks their names
   and units against BENCHMARK.json and orders them as it lists them. *)
let print_result ~correct ~attempted ~failed (m : metrics) =
  let field (name, (v, unit)) =
    if not (Float.is_finite v) then
      failwith (Printf.sprintf "metric %s is not finite" name);
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.rev_map field !m))
