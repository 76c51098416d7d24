(* Kernels replayed on state drawn from the live overlay at the end of
   the traced run, next to the synthetic micro-benchmarks of bench/main.ml:
   routing state and ids of the live nodes, the live oracle, the run's
   own (src, dst) send stream and its pending-event high-water mark. Each
   figure is the median over [reps] timed passes. *)

module Sim = Harness.Sim
module Node = Mspastry.Node
module Rng = Repro_util.Rng
module P = Pastry

let now_ns = Session.now_ns
let reps = 5

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* median nanoseconds per operation of [pass], which performs [ops] *)
let ns_per_op ~ops pass =
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         pass ();
         float_of_int (now_ns () - t0) /. float_of_int ops))

let ms_of f =
  median
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         f ();
         float_of_int (now_ns () - t0) /. 1e6))

type state = {
  leafset : P.Leafset.t;
  table : P.Routing_table.t;
  peers : (P.Peer.t * float) array;  (** leaf set and table entries, with RTTs *)
}

let states live =
  let net = Sim.Live.net live in
  Array.of_list
    (List.map
       (fun node ->
         let leafset = Node.leafset node and table = Node.table node in
         let me = (Node.me node).P.Peer.addr in
         let from_table =
           List.map
             (fun e -> (e.P.Routing_table.peer, e.P.Routing_table.rtt))
             (P.Routing_table.entries table)
         in
         let from_leafset =
           List.map
             (fun p -> (p, Netsim.Net.rtt net me p.P.Peer.addr))
             (P.Leafset.members leafset)
         in
         { leafset; table; peers = Array.of_list (from_leafset @ from_table) })
       (Sim.Live.active_nodes live))

let pastry ~rng live =
  let st = states live in
  let n = Array.length st in
  let keys = Array.init 4096 (fun _ -> P.Nodeid.random rng) in
  let ids = Array.map (fun s -> (P.Leafset.me s.leafset).P.Peer.id) st in
  let ops = 20_000 in
  let next_hop =
    ns_per_op ~ops (fun () ->
        for i = 0 to ops - 1 do
          let s = st.(i mod n) in
          ignore
            (P.Route.next_hop ~leafset:s.leafset ~table:s.table
               ~key:keys.(i land 4095) ())
        done)
  in
  let members =
    ns_per_op ~ops (fun () ->
        for i = 0 to ops - 1 do
          ignore (P.Leafset.members st.(i mod n).leafset)
        done)
  in
  let n_peers = Array.fold_left (fun acc s -> acc + Array.length s.peers) 0 st in
  let add =
    ns_per_op ~ops:n_peers (fun () ->
        Array.iter
          (fun s ->
            let ls =
              P.Leafset.create ~l:(P.Leafset.l s.leafset) ~me:(P.Leafset.me s.leafset)
            in
            Array.iter (fun (p, _) -> ignore (P.Leafset.add ls p)) s.peers)
          st)
  in
  let consider =
    ns_per_op ~ops:n_peers (fun () ->
        Array.iter
          (fun s ->
            let t =
              P.Routing_table.create ~b:(P.Routing_table.b s.table)
                ~me:(P.Routing_table.me s.table)
            in
            Array.iter (fun (p, rtt) -> ignore (P.Routing_table.consider t p ~rtt)) s.peers)
          st)
  in
  let ops = 100_000 in
  let ring_dist =
    ns_per_op ~ops (fun () ->
        for i = 0 to ops - 1 do
          ignore (P.Nodeid.ring_dist ids.(i mod n) keys.(i land 4095))
        done)
  in
  let b = (Node.config (List.hd (Sim.Live.active_nodes live))).Mspastry.Config.b in
  let digits = P.Nodeid.num_digits ~b in
  let prefix_digit =
    ns_per_op ~ops (fun () ->
        for i = 0 to ops - 1 do
          let a = ids.(i mod n) and k = keys.(i land 4095) in
          let r = P.Nodeid.shared_prefix_length ~b a k in
          ignore (P.Nodeid.digit ~b k (min r (digits - 1)))
        done)
  in
  [
    ("pastry.next_hop_ns", next_hop, "ns");
    ("pastry.leafset_members_ns", members, "ns");
    ("pastry.leafset_add_ns", add, "ns");
    ("pastry.rt_consider_ns", consider, "ns");
    ("pastry.ring_dist_ns", ring_dist, "ns");
    ("pastry.prefix_digit_ns", prefix_digit, "ns");
  ]

let oracle_closest ~rng live =
  let o = Sim.Live.oracle live in
  let keys = Array.init 4096 (fun _ -> P.Nodeid.random rng) in
  let ops = 20_000 in
  ns_per_op ~ops (fun () ->
      for i = 0 to ops - 1 do
        ignore (Harness.Oracle.closest o keys.(i land 4095))
      done)

(* Schedule / cancel / pop against a queue held at [pending] live
   events, cancelling the workload's share of what it schedules. *)
let heap ~rng ~pending ~cancel_share =
  let ops = 100_000 in
  ns_per_op ~ops (fun () ->
      let e = Simkit.Engine.create () in
      let ring = Array.make 1024 None in
      for _ = 1 to max 1 pending do
        ignore (Simkit.Engine.schedule e ~delay:(Rng.float rng 60.0) ignore)
      done;
      let acc = ref 0.0 in
      for i = 0 to ops - 1 do
        let id = Simkit.Engine.schedule e ~delay:(Rng.float rng 60.0) ignore in
        ring.(i land 1023) <- Some id;
        acc := !acc +. cancel_share;
        if !acc >= 1.0 then begin
          acc := !acc -. 1.0;
          match ring.(Rng.int rng 1024) with
          | Some old -> Simkit.Engine.cancel e old
          | None -> ()
        end;
        ignore (Simkit.Engine.step e)
      done)

(* The traced run's (src, dst) stream through a fresh network on the
   session's topology and loss rate; one operation is a send plus its
   delivery (or drop). *)
let send ~seed ~loss_rate live (r : Traced.result) =
  let topology = Sim.Live.topology live in
  let n_endpoints = Topology.n_endpoints topology in
  let n = r.n_sends in
  let max_addr = ref 0 in
  for i = 0 to n - 1 do
    max_addr := max !max_addr (max r.sends_src.(i) r.sends_dst.(i))
  done;
  ns_per_op ~ops:(max 1 n) (fun () ->
      let engine = Simkit.Engine.create () in
      let net =
        Netsim.Net.create ~loss_rate
          ~endpoint_of:(fun a -> a mod n_endpoints)
          ~engine ~topology ~rng:(Rng.create seed) ()
      in
      for addr = 0 to !max_addr do
        Netsim.Net.register net ~addr (fun ~src:_ () -> ())
      done;
      let i = ref 0 in
      while !i < n do
        let stop = min n (!i + 1024) in
        for j = !i to stop - 1 do
          Netsim.Net.send net ~src:r.sends_src.(j) ~dst:r.sends_dst.(j) ()
        done;
        Simkit.Engine.run_all engine;
        i := stop
      done)

let topology ~seed ~n_endpoints =
  let build () =
    Sim.make_topology Sim.Gatech ~rng:(Rng.create seed) ~n_endpoints
  in
  let build_ms = ms_of (fun () -> ignore (build ())) in
  let topo = build () in
  (* mean, not median: endpoints that share a router find its
     shortest-path tree already built *)
  let cold_ns = ref 0 in
  for src = 0 to n_endpoints - 1 do
    let t0 = now_ns () in
    ignore (Topology.delay topo src ((src + 1) mod n_endpoints));
    cold_ns := !cold_ns + (now_ns () - t0)
  done;
  let cold = float_of_int !cold_ns /. 1e3 /. float_of_int n_endpoints in
  let rng = Rng.create seed in
  let pairs = Array.init 4096 (fun _ -> (Rng.int rng n_endpoints, Rng.int rng n_endpoints)) in
  let ops = 100_000 in
  let warm =
    ns_per_op ~ops (fun () ->
        for i = 0 to ops - 1 do
          let a, b = pairs.(i land 4095) in
          ignore (Topology.delay topo a b)
        done)
  in
  [
    ("topology.build_ms", build_ms, "ms");
    ("topology.delay_cold_us", cold, "us");
    ("topology.delay_warm_ns", warm, "ns");
  ]
