(* The simulator's benchmark.

   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--size regular|smoke]

   With --trace 0 it runs the workload's sessions untraced, twice each,
   times a host-speed probe beside them and prints the end-to-end
   metrics; with --trace 1 it runs session 0 untraced and
   then traced, checks that both did the same work, and prints the
   per-layer metrics. Either way it prints the correctness checks and
   ends with one JSON line: {"correct", "attempted", "failed",
   "metrics"}. An operation is one simulated lookup issued in a
   session's measured window; it failed when no node that is the key's
   root delivered it, so it was lost or delivered only by non-roots.
   NOTES.md says which metric each layer figure should move. *)

module Sim = Harness.Sim
module M = Mspastry.Message

let mib_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.0

let median = Replay.median

(* ---- output ---- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let print_metrics metrics =
  List.iter
    (fun (name, value, unit) -> Printf.printf "metric %-36s %14.6f %s\n" name value unit)
    metrics

let check name ok detail =
  Printf.printf "check %-18s %s  %s\n" name (if ok then "ok" else "FAIL") detail;
  ok

let print_session (o : Session.outcome) ~wall_ns =
  let s = o.summary in
  Printf.printf
    "session %d seed=%d wall_s=%.3f events=%d nodes=%.0f lookups=%d lost=%d \
     incorrect=%d rdp=%.4f ring=%.4f digest=%s\n"
    o.session.index o.session.seed
    (float_of_int wall_ns /. 1e9)
    o.engine.fired s.mean_population s.lookups_sent s.lookups_lost
    s.incorrect_deliveries s.rdp_mean o.ring.agreement (Session.digest o)

let session_checks outcomes =
  let all f = List.for_all f outcomes in
  let ring =
    check "ring_agreement"
      (all Session.ring_ok)
      (String.concat " "
         (List.map
            (fun (o : Session.outcome) ->
              match o.settle with
              | Session.Not_audited -> "-"
              | Settled 0.0 -> "1.0000"
              | Settled extra ->
                  Printf.sprintf "%.4f(1.0 at +%.0fs)" o.ring.agreement extra
              | Unsettled -> Printf.sprintf "%.4f(unsettled)" o.ring.agreement)
            outcomes))
  in
  let conserved =
    check "conservation" (all Session.conserved) "sent >= delivered + drops"
  in
  ring && conserved

(* Attempted and failed are counted per lookup over the same set: the
   lookups a session's summary judged, those issued in its measured
   window up to the collector's drain. Incorrect deliveries are printed
   beside them; one lookup can have several. *)
let ops outcomes =
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let attempted = sum (fun (o : Session.outcome) -> o.summary.lookups_sent) in
  let failed = attempted - sum Session.succeeded in
  let lost = sum (fun (o : Session.outcome) -> o.summary.lookups_lost) in
  let incorrect = sum (fun (o : Session.outcome) -> o.summary.incorrect_deliveries) in
  Printf.printf
    "ops attempted=%d failed=%d (lost=%d, delivered only by non-roots=%d; incorrect \
     deliveries=%d) ops_failed_share=%.6f\n"
    attempted failed lost (failed - lost) incorrect
    (if attempted > 0 then float_of_int failed /. float_of_int attempted else 0.0);
  (max 1 attempted, failed)

(* ---- untraced: end-to-end metrics ---- *)

(* set-up rounds timed before each timed run *)
let setup_rounds = 3

(* sessions of the seed whose set-up is timed, the run's own first *)
let setup_sessions = 32

(* Every session is run [passes] times, one pass over all sessions after
   the other. *)
let passes = 2

let end_to_end ~seconds ~setup_set sessions =
  let deadline = Session.now_ns () + int_of_float (seconds *. 1e9) in
  (* Set-up time. A session sets up in well under a millisecond, so
     a slow spell of the host would move a figure taken in one burst.
     Before each timed run, on a compacted heap, every session of
     [setup_set] is set up [setup_rounds] times, so each one's samples
     spread over the whole run; one untimed round warms up first. The
     figure is a sum over [setup_set] of each session's median. A
     session's set-up time varies twofold with its trace, so the sum
     runs over more sessions than the run has time to simulate. *)
  let setups = Array.of_list setup_set in
  let samples = Array.make (Array.length setups) [] in
  let set_up_all ~record =
    Array.iteri
      (fun i s ->
        let ns = float_of_int (Session.setup s).setup_ns in
        if record then samples.(i) <- ns :: samples.(i))
      setups
  in
  let all = Array.of_list sessions in
  let probes = ref [] in
  set_up_all ~record:false;
  (* One timed run of a session. Each starts from a compacted heap, so
     one session's garbage does not slow the next one's collections. The
     host probe is timed twice before each. *)
  let timed s =
    Gc.compact ();
    for _ = 1 to setup_rounds do
      set_up_all ~record:true
    done;
    Gc.compact ();
    for _ = 1 to 2 do
      probes := float_of_int (Host.probe ()) :: !probes
    done;
    Gc.compact ();
    let st = Session.setup s in
    let slices = Session.run s st.live in
    (slices, st.live)
  in
  (* Wall time. The host's speed drifts by tens of per cent over spells
     of seconds to minutes (NOTES.md), so one timing of a slice says
     little. Each session is run once per pass, a pass apart, and every
     slice counts with the faster of its timings: a slow spell shorter
     than a pass then moves no slice. Longer spells are what the host
     probe's scaling below takes out. The passes are deterministic
     replays of the same inputs; their behaviour digests must be equal.
     A slow host must not stretch the run far past [seconds]: the
     sessions whose repeat would start after it keep their first
     timings. *)
  let first =
    Array.map
      (fun s ->
        let slices, live = timed s in
        (slices, Session.outcome ~settle:true s live))
      all
  in
  let best = Array.map fst first and outcomes = Array.map snd first in
  let repeatable = ref true and repeats = ref 0 in
  for _ = 2 to passes do
    Array.iteri
      (fun i s ->
        if Session.now_ns () < deadline then begin
          let slices, live = timed s in
          let o = Session.outcome ~settle:false s live in
          if Session.digest o <> Session.digest outcomes.(i) then repeatable := false;
          best.(i) <- Array.map2 min best.(i) slices;
          incr repeats
        end)
      all
  done;
  Printf.printf "timed runs: %d sessions, then %d of %d repeats\n" (Array.length all)
    !repeats ((passes - 1) * Array.length all);
  let wall_ns = Array.map (Array.fold_left ( + ) 0) best in
  Array.iteri (fun i o -> print_session o ~wall_ns:wall_ns.(i)) outcomes;
  let per_session = Array.map (fun l -> median (Array.of_list l)) samples in
  Printf.printf "setup ms per session: %s\n"
    (String.concat " "
       (Array.to_list (Array.map (fun ns -> Printf.sprintf "%.3f" (ns /. 1e6)) per_session)));
  (* Both timings are reported at the probe's reference speed: scaled by
     the reference over the median of the run's probes. *)
  let probe_ns = median (Array.of_list !probes) in
  let speed = Host.reference_ns /. probe_ns in
  let setup_timed = Array.fold_left ( +. ) 0.0 per_session /. 1e9 in
  let wall_timed = float_of_int (Array.fold_left ( + ) 0 wall_ns) /. 1e9 in
  Printf.printf
    "host probe median %.3f ms over %d probes, reference %.1f ms: timings x %.4f \
     (wall %.3f s, set-up %.6f s as timed)\n"
    (probe_ns /. 1e6) (List.length !probes) (Host.reference_ns /. 1e6) speed wall_timed
    setup_timed;
  let setup_s = setup_timed *. speed and wall_s = wall_timed *. speed in
  let outcomes = Array.to_list outcomes in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let fsum f = List.fold_left (fun acc o -> acc +. f o) 0.0 outcomes in
  let sent = fsum (fun o -> float_of_int o.summary.lookups_sent) in
  let success = fsum (fun o -> float_of_int (Session.succeeded o)) /. sent in
  (* median over sessions: one session's mean RDP can sit far out (3.6
     against 2.0 for its neighbours) on a topology with a few very short
     direct paths *)
  let rdp =
    median (Array.of_list (List.map (fun (o : Session.outcome) -> o.summary.rdp_mean) outcomes))
  in
  let node_s =
    fsum (fun o ->
        if o.summary.control_per_node_per_s > 0.0 then
          o.summary.control_msgs /. o.summary.control_per_node_per_s
        else 0.0)
  in
  let control = fsum (fun o -> o.summary.control_msgs) /. node_s in
  let delays = Array.concat (List.map (fun (o : Session.outcome) -> o.delays) outcomes) in
  Array.sort compare delays;
  let n = Array.length delays in
  let quantile q = if n = 0 then nan else delays.(min (n - 1) (int_of_float (q *. float_of_int n))) in
  Printf.printf "lookup delay samples=%d (p50, p99 below)\n" n;
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("wall_s", wall_s, "s");
      ("peak_heap_mb", mib_of_words top_heap, "MB");
      ("lookup_success", success, "ratio");
      ("lookup_p50_ms", 1000.0 *. quantile 0.5, "ms");
      ("lookup_p99_ms", 1000.0 *. quantile 0.99, "ms");
      ("rdp", rdp, "ratio");
      ("control_msgs_per_node_s", control, "msg/node/s");
    ]
  in
  (metrics, outcomes, !repeatable)

(* ---- traced: per-layer metrics ---- *)

let per_layer ~name (s : Workload.session) =
  Gc.compact ();
  let st = Session.setup s in
  let wall_u = Array.fold_left ( + ) 0 (Session.run s st.live) in
  let untraced = Session.outcome ~settle:true s st.live in
  print_session untraced ~wall_ns:wall_u;
  let pre = max s.since (s.reference -. 600.0) in
  let marks =
    [| min pre (s.reference -. 60.0); s.reference -. 60.0; s.reference; min (s.reference +. 60.0) s.horizon |]
  in
  Gc.compact ();
  let r = Traced.run s ~marks in
  let traced = r.outcome in
  print_session traced ~wall_ns:r.wall_ns;
  let eu = untraced.engine and et = traced.engine in
  let equivalent =
    check "equivalence"
      (et.scheduled - 1 = eu.scheduled
      && et.fired - 1 = eu.fired
      && et.cancelled = eu.cancelled
      && traced.net = untraced.net
      && Session.digest traced = Session.digest untraced)
      (Printf.sprintf "traced fired=%d scheduled=%d cancelled=%d, untraced %d/%d/%d"
         et.fired et.scheduled et.cancelled eu.fired eu.scheduled eu.cancelled)
  in
  if not equivalent then
    print_endline
      "warning: the traced run did other work than the untraced one; the per-layer \
       numbers below do not describe the measured program";
  let p = Traced.profile r in
  let f = float_of_int in
  let us ns n = if n > 0 then f ns /. 1e3 /. f n else 0.0 in
  let events = eu.fired in
  let simkit =
    [
      ("simkit.events", f events, "count");
      ("simkit.events_per_s", f events /. (f wall_u /. 1e9), "1/s");
      ("simkit.fired_ratio", f eu.fired /. f eu.scheduled, "ratio");
      ("simkit.pending_hwm", f eu.live_hwm, "count");
      ("simkit.heap_hwm", f eu.heap_hwm, "count");
      ( "simkit.timer_step_us",
        us (p.timer_ns + p.spawn_ns) (p.timer_steps + p.spawn_steps),
        "us" );
      ("simkit.delivery_overhead_us", us p.delivery_self_ns p.delivery_steps, "us");
    ]
  in
  let mspastry =
    List.concat
      (List.mapi
         (fun i c ->
           let k = "mspastry." ^ Traced.class_key c in
           let calls = p.calls.(i) in
           [
             (k ^ ".calls", f calls, "count");
             (k ^ ".us", us p.handle_ns.(i) calls, "us");
             ( k ^ ".fanout",
               (if calls > 0 then f r.fanout.(i) /. f calls else 0.0),
               "msg" );
           ])
         M.all_classes)
    @ [ ("mspastry.handle_s", f (Array.fold_left ( + ) 0 p.handle_ns) /. 1e9, "s") ]
  in
  let snap i = Option.get r.snaps.(i) in
  let rate a b =
    let a = snap a and b = snap b in
    f (b.Traced.sent - a.Traced.sent) /. (b.Traced.node_s -. a.Traced.node_s)
  in
  let crashed = s.config.fault_schedule <> [] in
  Printf.printf "sends by class, 60 s before and after t=%.0f (%s):\n" s.reference
    (if crashed then "the mass crash" else "nothing injected");
  List.iteri
    (fun i c ->
      let before = (snap 2).by_class.(i) - (snap 1).by_class.(i) in
      let after = (snap 3).by_class.(i) - (snap 2).by_class.(i) in
      Printf.printf "  %-18s %8d -> %8d\n" (M.class_name c) before after)
    M.all_classes;
  let n = untraced.net in
  let rng = Repro_util.Rng.create s.seed in
  let live = r.setup.live in
  let netsim =
    [
      ("netsim.sent", f n.sent, "count");
      ("netsim.delivery_ratio", f n.delivered /. f n.sent, "ratio");
      ("netsim.dropped_loss", f n.dropped_loss, "count");
      ("netsim.dropped_dead", f n.dropped_dead, "count");
      ("netsim.send_ns", Replay.send ~seed:s.seed ~loss_rate:s.config.loss_rate live r, "ns");
    ]
    (* only a crash makes the ratio mean something; elsewhere it would
       be the background swing around an arbitrary time *)
    @ if crashed then [ ("netsim.post_crash_amplification", rate 2 3 /. rate 0 2, "ratio") ]
      else []
  in
  let pastry = Replay.pastry ~rng live in
  let ring_ms = Replay.ms_of (fun () -> ignore (Sim.Live.ring_audit live)) in
  let summary_ms =
    Replay.ms_of (fun () ->
        ignore
          (Overlay_metrics.Collector.summary ~since:s.since ~until:s.until
             (Sim.Live.collector live)))
  in
  let harness =
    [
      ("harness.oracle_closest_ns", Replay.oracle_closest ~rng live, "ns");
      ("harness.spawn_us", us p.spawn_ns p.spawn_steps, "us");
      ("harness.ring_audit_ms", ring_ms, "ms");
      ("metrics.summary_ms", summary_ms, "ms");
    ]
  in
  let cancel_share = f eu.cancelled /. f eu.scheduled in
  let heap_ns = Replay.heap ~rng ~pending:eu.live_hwm ~cancel_share in
  let trace_ms =
    Replay.ms_of (fun () -> ignore (s.make_trace ()))
  in
  let topo =
    Replay.topology ~seed:s.seed
      ~n_endpoints:(Topology.n_endpoints (Sim.Live.topology live))
  in
  let metrics =
    simkit
    @ [ ("simkit.heap_ns", heap_ns, "ns") ]
    @ mspastry @ netsim @ pastry @ harness @ topo
    @ [
        ("churn.trace_ms", trace_ms, "ms");
        ("bench.trace_overhead", f r.wall_ns /. f wall_u, "ratio");
        ("bench.equivalent", (if equivalent then 1.0 else 0.0), "bool");
      ]
  in
  let out_dir = ".bench_out" in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.tsv" name s.seed) in
  Traced.Spans.write r.spans ~path ~origin:r.origin;
  Printf.printf "spans %d written to %s\n" r.spans.n path;
  (metrics, [ untraced ], [ untraced; traced ], equivalent)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref nan in
  let trace = ref 0 and size = ref Workload.Regular in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  churn | lookups | faults");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time; sets the session count (required)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ( "--size",
        Arg.Symbol
          ( [ "regular"; "smoke" ],
            fun v -> size := if v = "smoke" then Workload.Smoke else Workload.Regular ),
        "  smoke: tiny sessions for the benchmark's own test" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  if not (!seconds > 0.0) then begin
    prerr_endline "perfbench: --seconds takes a positive number";
    exit 2
  end;
  let sessions =
    Workload.sessions w !size ~seed:!seed ~seconds:!seconds ~passes
  in
  Printf.printf "perfbench workload=%s seed=%d sessions=%d trace=%d\n%!" w.name !seed
    (List.length sessions) !trace;
  match
    if !trace = 0 then begin
      let setup_set =
        List.init (max (List.length sessions) setup_sessions) (w.make !size ~seed:!seed)
      in
      let metrics, outcomes, repeatable =
        end_to_end ~seconds:!seconds ~setup_set sessions
      in
      let repeatable =
        check "repeatable" repeatable "every pass had the same behaviour digest"
      in
      (metrics, outcomes, outcomes, repeatable)
    end
    else per_layer ~name:w.name (List.hd sessions)
  with
  | metrics, measured, checked, equivalent ->
      let attempted, failed = ops measured in
      let ok = session_checks checked in
      ignore (check "no_exception" true "");
      print_metrics metrics;
      print_result ~correct:(ok && equivalent) ~attempted ~failed metrics
  | exception e ->
      ignore (check "no_exception" false (Printexc.to_string e));
      exit 1
