(* Output checks computed independently of the program under test:
   the benchmark's own shortest-path routine, the tree properties every
   sweep tree must have, and the membership a churn sample must report. *)

module G = Topology.Graph

(* Forward shortest-path cost from [source] to every node over the
   directed link costs [G.cost u v].  A plain O(n^2) Dijkstra: slow,
   but sharing no code with [lib/routing]. *)
let distances_from g source =
  let n = G.node_count g in
  let dist = Array.make n max_int and done_ = Array.make n false in
  dist.(source) <- 0;
  for _ = 1 to n do
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not done_.(v)) && dist.(v) < max_int
         && (!u < 0 || dist.(v) < dist.(!u))
      then u := v
    done;
    if !u >= 0 then begin
      let u = !u in
      done_.(u) <- true;
      List.iter
        (fun v ->
          let d = dist.(u) + G.cost g u v in
          if d < dist.(v) then dist.(v) <- d)
        (G.neighbors g u)
    end
  done;
  dist

(* One sweep tree, against [sp], the shortest-path distances from the
   source.  [shortest] says the protocol builds shortest-path
   trees (HBH: every delay equals the distance); [single_copy] says it
   never puts two copies on one link (HBH and PIM-SS). *)
let sweep_tree ~sp ~receivers ~shortest ~single_copy tree =
  let module D = Mcast.Distribution in
  let sorted l = List.sort_uniq compare l in
  let each_once =
    D.duplicate_deliveries tree = 0
    && List.length (D.receivers tree) = List.length receivers
    && sorted (D.receivers tree) = sorted receivers
  in
  let delays_ok () =
    List.for_all
      (fun r ->
        match D.delay tree r with
        | None -> false
        | Some d ->
            let d_sp = float_of_int sp.(r) in
            d >= d_sp -. 1e-9 && ((not shortest) || Float.abs (d -. d_sp) < 1e-9))
      receivers
  in
  let copies_ok () =
    (not single_copy)
    || List.for_all (fun (_, n) -> n <= 1) (D.link_loads tree)
  in
  each_once && delays_ok () && copies_ok ()

(* The membership a churn run must report at [t], from the generated
   schedule alone: (live members over all channels, channels with at
   least one member). *)
let scheduled_membership per_channel t =
  Array.fold_left
    (fun (members, active) sched ->
      match List.length (Workload.Churn.members_at sched t) with
      | 0 -> (members, active)
      | m -> (members + m, active + 1))
    (0, 0) per_channel
