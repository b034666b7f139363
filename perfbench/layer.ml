(* Per-layer costs, measured from outside the program: calls into each
   layer's public functions on the workload's own graph, and the
   program's own counters read from the metrics registry. *)

module G = Topology.Graph
module Engine = Eventsim.Engine
module Net = Netsim.Network
module Table = Routing.Table

(* [k] distinct nodes of [g] drawn from [rng], in draw order. *)
let some_nodes rng g k =
  let n = G.node_count g in
  Stats.Rng.sample rng (min k n) n

(* Mean time of [Table.in_tree] on a fresh table, in ms: every SPF is
   a cache miss.  Destinations are the workload's own nodes. *)
let spf_ms rng g =
  let dests = some_nodes rng g 24 in
  let runs = ref 0 and busy = ref 0.0 in
  while !busy < 0.1 do
    let table = Table.compute g in
    List.iter
      (fun d ->
        Util.timing busy (fun () -> ignore (Table.in_tree table d));
        incr runs)
      dests
  done;
  !busy /. float_of_int !runs *. 1e3

(* A cached [Table.next_hop], in ns. *)
let next_hop_ns rng g =
  let table = Table.compute g in
  let dests = Array.of_list (some_nodes rng g 16) in
  Array.iter (fun d -> ignore (Table.in_tree table d)) dests;
  let n = G.node_count g and k = Array.length dests in
  let batch = 1000 in
  let i = ref 0 in
  let per =
    Util.per_call (fun () ->
        for _ = 1 to batch do
          incr i;
          ignore (Table.next_hop table (!i * 7919 mod n) ~dest:dests.(!i mod k))
        done)
  in
  per /. float_of_int batch *. 1e9

(* Seconds per data hop of [send] (which originates unit packets on
   [net]) drained through the engine; the hop count is read from the
   network's own accounting. *)
let per_hop net send =
  let engine = Net.engine net in
  let cycle () =
    send ();
    Engine.run engine
  in
  let before = (Net.counters net).Net.data_hops in
  cycle ();
  let hops = (Net.counters net).Net.data_hops - before in
  Util.per_call cycle /. float_of_int (max 1 hops)

(* A transparent unicast hop: host-to-host packets with no protocol
   handler, in ns. *)
let hop_ns rng g =
  let table = Table.compute g in
  let net : unit Net.t = Net.create (Engine.create ()) table in
  let hosts = Array.of_list (G.hosts g) in
  let h = Array.length hosts in
  let pairs =
    List.init 32 (fun _ ->
        (hosts.(Stats.Rng.int rng h), hosts.(Stats.Rng.int rng h)))
    |> List.filter (fun (s, d) -> s <> d)
  in
  per_hop net (fun () ->
      List.iter
        (fun (src, dst) ->
          Net.originate net ~src ~dst ~kind:Netsim.Packet.Data ())
        pairs)
  *. 1e9

let hub g =
  List.fold_left
    (fun best r -> if G.degree g r > G.degree g best then r else best)
    (List.hd (G.routers g)) (G.routers g)

(* The same hop, leaving the highest-degree router: one packet to each
   neighbor whose route from the hub is the direct link. *)
let hub_hop_ns g =
  let table = Table.compute g in
  let net : unit Net.t = Net.create (Engine.create ()) table in
  let hub = hub g in
  let direct =
    List.filter
      (fun v -> Table.next_hop table hub ~dest:v = Some v)
      (G.neighbors g hub)
  in
  per_hop net (fun () ->
      List.iter
        (fun dst -> Net.originate net ~src:hub ~dst ~kind:Netsim.Packet.Data ())
        direct)
  *. 1e9

(* An HBH data hop on a mux carrying [channels] sessions (only channel
   0 has receivers), in ns. *)
let mux_hop_ns rng g ~channels ~source ~candidates =
  let table = Table.compute g in
  let net = Net.create (Engine.create ()) table in
  let mx = Hbh.Protocol.mux net in
  let channel c =
    Mcast.Channel.make ~source
      ~group:(Mcast.Class_d.of_int32 (Int32.of_int (0xE8000000 + c + 1)))
  in
  let sessions =
    Array.init channels (fun c ->
        Hbh.Protocol.create_mux ~channel:(channel c) mx ~source)
  in
  let s0 = sessions.(0) in
  let cand = Array.of_list candidates in
  List.iter
    (fun i -> Hbh.Protocol.subscribe s0 cand.(i))
    (Stats.Rng.sample rng (min 8 (Array.length cand)) (Array.length cand));
  Hbh.Protocol.converge s0;
  let cycle () =
    for _ = 1 to 64 do
      Hbh.Protocol.send_data s0
    done;
    Hbh.Protocol.run_for s0 100.0
  in
  cycle ();
  let before = (Net.counters net).Net.data_hops in
  cycle ();
  let hops = (Net.counters net).Net.data_hops - before in
  Util.per_call cycle /. float_of_int (max 1 hops) *. 1e9

(* Schedule and fire on a bare engine, in ns per event. *)
let event_ns () =
  let e = Engine.create () in
  let batch = 1000 in
  let per =
    Util.per_call (fun () ->
        for i = 1 to batch do
          ignore (Engine.schedule e ~delay:(float_of_int (i mod 97)) ignore)
        done;
        Engine.run e)
  in
  per /. float_of_int batch *. 1e9

(* The graph-level costs every workload reports, on its own graph. *)
let measure_graph layer rng g ~channels ~source ~candidates =
  let set = Util.set layer in
  set "routing.spf_ms" "ms" (spf_ms rng g);
  set "routing.next_hop_ns" "ns" (next_hop_ns rng g);
  set "netsim.hop_ns" "ns" (hop_ns rng g);
  set "netsim.hub_hop_ns" "ns" (hub_hop_ns g);
  set "proto.mux_hop_ns" "ns" (mux_hop_ns rng g ~channels ~source ~candidates);
  set "eventsim.event_ns" "ns" (event_ns ())

(* ---- The program's own counters ------------------------------------------ *)

(* Benchmark metric <- registry counter. *)
let counter_map =
  [
    ("routing.spf_runs", "routing.spf_runs");
    ("routing.cache_hits", "routing.cache_hits");
    ("eventsim.events", "engine.events_fired");
    ("netsim.ctl_hops", "net.ctl_hops");
    ("netsim.data_hops", "net.pkt_copies");
    ("netsim.deliveries", "net.deliveries");
    ("hbh.join_msgs", "proto.hbh.join_msgs");
    ("hbh.tree_msgs", "proto.hbh.tree_msgs");
    ("hbh.fusion_msgs", "proto.hbh.fusion_msgs");
    ("reunite.join_msgs", "proto.reunite.join_msgs");
    ("reunite.tree_msgs", "proto.reunite.tree_msgs");
    ("pim-ssm.join_msgs", "proto.pim_ssm.join_msgs");
    ("hpim-dm.hello_msgs", "proto.hpim-dm.hello_msgs");
    ("hpim-dm.neighbor_syncs", "proto.hpim-dm.neighbor_syncs");
    ("hpim-dm.retransmissions", "proto.hpim-dm.retransmissions");
    ("verif.dedup_hits", "verif.dedup_hits");
    ("verif.shrink_replays", "verif.shrink.replays");
  ]

let reset_counters () = Obs.Metrics.reset (Obs.Metrics.default ())

(* Add the registry's counters since the last reset into [layer], then
   reset.  [proto.state_entries] sums the protocols' state-entry
   gauges as the registry holds them. *)
let harvest layer =
  let snap = Obs.Metrics.snapshot (Obs.Metrics.default ()) in
  List.iter
    (fun (name, key) ->
      let v = Option.value ~default:0 (Obs.Metrics.find_counter snap key) in
      Util.add layer name "count" (float_of_int v))
    counter_map;
  List.iter
    (fun p ->
      match
        Obs.Metrics.find_gauge snap (Printf.sprintf "proto.%s.state_entries" p)
      with
      | Some v when Float.is_finite v -> Util.add layer "proto.state_entries" "count" v
      | _ -> ())
    [ "hbh"; "reunite"; "pim_ssm"; "hpim-dm" ];
  reset_counters ()
