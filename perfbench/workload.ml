(* The benchmark's named workloads.

   A workload is a list of sessions; a session is one simulated overlay
   (a churn trace replayed against the GATech topology with
   [Mspastry.Config.default]) driven to a fixed simulated horizon. All
   inputs derive from the run seed: session [i] of seed [s] uses config
   seed [s + i * 1_000_003] and builds its churn trace from that seed
   plus 1000, as lib/experiments does, so session 0 of seed 42 is the
   overlay the notes describe.

   Runs of different seeds differ in trace, topology, node ids and
   lookup keys. Leaf-set maintenance makes a single overlay's cost vary
   a lot between seeds (see NOTES.md), so a run averages over several
   sessions; the session count follows from [--seconds]. *)

module Sim = Harness.Sim

type size = Regular | Smoke

type session = {
  index : int;
  seed : int;
  config : Sim.config;
  make_trace : unit -> Churn.Trace.t;
  horizon : float;  (** the session is simulated to this time *)
  since : float;  (** measured window for the collector summary *)
  until : float;
  reference : float;
      (** the mass crash of [faults]; the same point of the session on
          the other workloads, where nothing is injected *)
  audit_ring : bool;  (** ring agreement must be 1.0 at the horizon *)
}

type t = {
  name : string;
  session_s : float;
      (** nominal untraced wall seconds of one run of a session on a
          2-core x86-64 container; a run of [--seconds] holds
          [--seconds] / ([session_s] * passes) sessions *)
  make : size -> seed:int -> int -> session;
}

let session_seed ~seed i = seed + (i * 1_000_003)

(* Collector averaging window. Sessions are short, so the measured
   windows [since, until] are whole multiples of a minute rather than
   of the paper's ten. *)
let window = 60.0

(* Churn and lookups end [drain] seconds after their trace, six leaf-set
   heartbeat periods of [Mspastry.Config.default], so that in-flight
   lookups finish and nearly every overlay is quiescent at the horizon
   ([Session.settle_ring] covers the rest). *)
let drain = 180.0

(* Gnutella-like churn, the regime behind the paper's figures, at the
   default lookup rate. The trace approaches its population target with
   an 1800 s time constant, so a 30-minute session is all join ramp
   (mean 121-153 nodes over the window); it is still maintenance-bound,
   leaf-set handling taking about half the wall time (NOTES.md). *)
let churn =
  let make size ~seed index =
    let scale, duration, since =
      match size with
      | Regular -> (0.15, 1800.0, 600.0)
      | Smoke -> (0.03, 600.0, 180.0)
    in
    let seed = session_seed ~seed index in
    {
      index;
      seed;
      config = { Sim.default_config with seed; warmup = since; window };
      make_trace =
        (fun () ->
          Churn.Trace.gnutella ~scale ~duration
            (Repro_util.Rng.create (seed + 1000)));
      horizon = duration +. drain;
      since;
      until = duration;
      reference = duration *. 2.0 /. 3.0;
      audit_ring = true;
    }
  in
  {
    name = "churn";
    session_s = 3.0;
    make;
  }

(* Routing-bound: a stable population issuing 100x the default lookup
   rate, so application traffic suppresses leaf-set probing. *)
let lookups =
  let make size ~seed index =
    let n_avg, duration, since =
      match size with
      | Regular -> (150, 360.0, 120.0)
      | Smoke -> (20, 180.0, 60.0)
    in
    let seed = session_seed ~seed index in
    {
      index;
      seed;
      config =
        { Sim.default_config with seed; lookup_rate = 1.0; warmup = since; window };
      make_trace =
        (fun () ->
          Churn.Trace.poisson
            (Repro_util.Rng.create (seed + 1000))
            ~n_avg ~session_mean:28_800.0 ~duration);
      horizon = duration +. drain;
      since;
      until = duration;
      reference = duration *. 2.0 /. 3.0;
      audit_ring = true;
    }
  in
  {
    name = "lookups";
    session_s = 5.5;
    make;
  }

(* Failure-bound: 5% loss and a 30% mass crash once the overlay is warm.
   One session only; at seed 42 it enters the leaf-set probe storm
   recorded in NOTES.md, so it is not listed in BENCHMARK.json. *)
let faults =
  let make size ~seed index =
    let scale, crash, after =
      match size with
      | Regular -> (0.1, 3600.0, 60.0)
      | Smoke -> (0.03, 600.0, 60.0)
    in
    let seed = session_seed ~seed index in
    let duration = crash +. after in
    {
      index;
      seed;
      config =
        {
          Sim.default_config with
          seed;
          loss_rate = 0.05;
          warmup = crash /. 2.0;
          window;
          fault_schedule = [ Sim.Schedule.crash_fraction ~time:crash 0.3 ];
        };
      make_trace =
        (fun () ->
          Churn.Trace.gnutella ~scale ~duration
            (Repro_util.Rng.create (seed + 1000)));
      horizon = duration;
      since = crash /. 2.0;
      until = duration;
      reference = crash;
      audit_ring = false;
    }
  in
  {
    name = "faults";
    session_s = infinity;
    make;
  }

let all = [ churn; lookups; faults ]
let find name = List.find_opt (fun w -> w.name = name) all

let sessions w size ~seed ~seconds ~passes =
  let n =
    if Float.is_finite w.session_s then
      max 1 (int_of_float (Float.round (seconds /. (w.session_s *. float_of_int passes))))
    else 1
  in
  let n = match size with Regular -> n | Smoke -> min n 2 in
  List.init n (w.make size ~seed)
