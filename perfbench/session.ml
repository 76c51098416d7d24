(* Set-up and untraced run of one session, and what the benchmark reads
   from it afterwards. *)

module Sim = Harness.Sim
module Collector = Overlay_metrics.Collector

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type setup = {
  live : Sim.Live.t;
  setup_ns : int;  (** trace generation plus [Sim.live_of_trace] *)
}

let setup (s : Workload.session) =
  let t0 = now_ns () in
  let live = Sim.live_of_trace s.config ~trace:(s.make_trace ()) in
  { live; setup_ns = now_ns () - t0 }

(* How the ring audit of a session ended. *)
type settle =
  | Not_audited
  | Settled of float
      (** seconds past the horizon until agreement was 1.0; 0 when it
          already was at the horizon *)
  | Unsettled  (** still below 1.0 at the cap *)

type outcome = {
  session : Workload.session;
  summary : Collector.summary;
  net : Netsim.Net.stats;
  engine : Simkit.Engine.stats;
  ring : Harness.Oracle.ring_audit;  (** at the horizon *)
  settle : settle;
  delays : float array;
      (** first-delivery delays (s) of the lookups issued in the measured
          window, exact rather than bucketed so that nearby seeds do not
          report the same histogram bucket *)
}

(* Ring agreement is an invariant of a quiescent overlay. A node that
   was suspected repeatedly stays quarantined for up to
   [suspicion_backoff_max] (600 s by default), so a neighbour can be
   missing for that long after the last churn event: one churn session
   in about a hundred still read 0.9974 at its horizon and reached 1.0
   between 300 and 600 s later. Past the horizon, outside every timed
   region, the session is therefore run on in leaf-set heartbeat periods
   until agreement is 1.0, for at most the quarantine plus four
   heartbeats. *)
let settle_ring (s : Workload.session) live =
  let p = s.config.pastry in
  let cap = s.horizon +. p.suspicion_backoff_max +. (4.0 *. p.t_ls) in
  let rec go t =
    if (Sim.Live.ring_audit live).agreement = 1.0 then Settled (t -. s.horizon)
    else if t >= cap then Unsettled
    else begin
      let t = Float.min cap (t +. p.t_ls) in
      Sim.Live.run_until live t;
      go t
    end
  in
  go s.horizon

(* Everything except [settle] is read at the horizon; [~settle:true]
   then runs the ring audit on past it (see [settle_ring]). *)
let outcome ~settle (s : Workload.session) live =
  let collector = Sim.Live.collector live in
  let summary = Collector.summary ~since:s.since ~until:s.until collector in
  let net = Netsim.Net.stats (Sim.Live.net live) in
  let engine = Simkit.Engine.stats (Sim.Live.engine live) in
  let ring = Sim.Live.ring_audit live in
  let delays = Collector.lookup_delays ~since:s.since ~until:s.until collector in
  let settle =
    if settle && s.audit_ring then settle_ring s live else Not_audited
  in
  { session = s; summary; net; engine; ring; settle; delays }

(* The untraced run is timed in slices of [slice] simulated seconds, so
   that two runs of one session can be compared slice by slice. *)
let slice = 60.0

(* Run to the horizon with tracing off; returns the wall nanoseconds of
   each slice. Stopping the engine at slice boundaries changes nothing
   it does, since nothing is scheduled from outside between them. *)
let run (s : Workload.session) live =
  let n = int_of_float (Float.ceil (s.horizon /. slice)) in
  Array.init n (fun i ->
      let t0 = now_ns () in
      Sim.Live.run_until live (Float.min s.horizon (float_of_int (i + 1) *. slice));
      now_ns () - t0)

(* A fingerprint of the session's behaviour: the collector summary and
   the network counters, floats in exact hexadecimal. Equal digests on
   two builds mean the change kept the simulation bit-identical. *)
let digest o =
  let s = o.summary and n = o.net in
  let b = Buffer.create 512 in
  let i x = Buffer.add_string b (string_of_int x ^ ";") in
  let f x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  List.iter i
    [
      s.lookups_sent; s.lookups_delivered; s.lookups_lost; s.incorrect_deliveries;
      s.joins; s.suspicions; s.false_suspicions;
    ];
  List.iter f
    [
      s.rdp_mean; s.delay_mean; s.hops_mean; s.control_msgs; s.lookup_msgs;
      s.mean_population; s.success_rate;
    ];
  List.iter i
    [
      n.sent; n.delivered; n.dropped_loss; n.dropped_dead; n.dropped_fault;
      n.dropped_node; n.dropped_congestion;
    ];
  List.iter
    (fun (cls, k) -> Buffer.add_string b (Printf.sprintf "%s=%d;" cls k))
    n.sent_by_class;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Lookups of the summary's judged set that a key's root delivered.
   [success_rate] is exactly that count over [lookups_sent]. *)
let succeeded o =
  int_of_float (Float.round (o.summary.success_rate *. float_of_int o.summary.lookups_sent))

(* Every message sent is delivered, dropped for a named cause, or still
   in flight at the horizon. *)
let conserved o =
  let n = o.net in
  n.sent
  >= n.delivered + n.dropped_loss + n.dropped_dead + n.dropped_fault
     + n.dropped_node + n.dropped_congestion

let ring_ok o = o.settle <> Unsettled
