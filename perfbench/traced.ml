(* The traced run of one session.

   It times calls into the layers from outside lib/: the clock is driven
   with [Simkit.Engine.step] up to the horizon through one stop event of
   the benchmark's own, each step is a span, and every node's network
   handler is swapped, after the step that created it, for a wrapper
   that times [Mspastry.Node.handle] per traffic class as a child span.
   The harness registers exactly [fun ~src msg -> Node.handle node ~src
   msg], so the swap does not change behaviour; [Perfbench] checks that
   by comparing engine and network counters with an untraced run. *)

module Sim = Harness.Sim
module Node = Mspastry.Node
module M = Mspastry.Message
module Net = Netsim.Net
module Engine = Simkit.Engine

let now_ns = Session.now_ns
let classes = Array.of_list M.all_classes
let n_classes = Array.length classes

let class_index c =
  let rec go i = if classes.(i) = c then i else go (i + 1) in
  go 0

(* metric-name spelling of each traffic class *)
let class_key = function
  | M.C_lookup -> "lookup"
  | M.C_lookup_ack -> "lookup_acks"
  | M.C_distance_probe -> "distance_probes"
  | M.C_leafset -> "leafset"
  | M.C_rt_probe -> "rt_probes"
  | M.C_ack_retransmit -> "acks"
  | M.C_join -> "join"
  | M.C_maintenance -> "maintenance"

(* Span kinds: engine steps are split by what they did; a handler span's
   kind is [k_handle + class index]. *)
let k_timer = 0
let k_delivery = 1
let k_spawn = 2
let k_handle = 3

let kind_name k =
  if k = k_timer then "engine.step.timer"
  else if k = k_delivery then "engine.step.delivery"
  else if k = k_spawn then "engine.step.spawn"
  else "node.handle." ^ class_key classes.(k - k_handle)

(* Spans in memory: parallel int arrays grown by doubling. [parent] is
   the index of the enclosing step span, or -1. *)
module Spans = struct
  type t = {
    mutable start : int array;
    mutable dur : int array;
    mutable kind : int array;
    mutable parent : int array;
    mutable n : int;
  }

  let create () =
    let a () = Array.make 65536 0 in
    { start = a (); dur = a (); kind = a (); parent = a (); n = 0 }

  let reserve t =
    if t.n = Array.length t.start then begin
      let grow a =
        let b = Array.make (2 * t.n) 0 in
        Array.blit a 0 b 0 t.n;
        b
      in
      t.start <- grow t.start;
      t.dur <- grow t.dur;
      t.kind <- grow t.kind;
      t.parent <- grow t.parent
    end;
    let i = t.n in
    t.n <- i + 1;
    i

  let set t i ~start ~dur ~kind ~parent =
    t.start.(i) <- start;
    t.dur.(i) <- dur;
    t.kind.(i) <- kind;
    t.parent.(i) <- parent

  let write t ~path ~origin =
    let oc = open_out path in
    output_string oc "start_ns\tdur_ns\tname\tparent\n";
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "%d\t%d\t%s\t%d\n" (t.start.(i) - origin) t.dur.(i)
        (kind_name t.kind.(i)) t.parent.(i)
    done;
    close_out oc
end

(* Counters snapshotted when the clock first passes a mark. *)
type snapshot = { sent : int; node_s : float; by_class : int array }

type result = {
  setup : Session.setup;
  outcome : Session.outcome;
  spans : Spans.t;
  origin : int;  (** clock reading at the first step *)
  wall_ns : int;  (** the stepping loop, spans included *)
  fanout : int array;  (** per class: [Net.n_sent] growth inside handlers *)
  sends_src : int array;  (** the first sends of the run, for replay *)
  sends_dst : int array;
  n_sends : int;
  snaps : snapshot option array;  (** one per mark *)
}

let max_recorded_sends = 200_000

(* [marks] must be increasing. *)
let run (s : Workload.session) ~marks =
  let setup = Session.setup s in
  let live = setup.live in
  let engine = Sim.Live.engine live and net = Sim.Live.net live in
  let spans = Spans.create () in
  let fanout = Array.make n_classes 0 in
  let cur_step = ref (-1) and handled = ref false in
  let sends_src = Array.make max_recorded_sends 0 in
  let sends_dst = Array.make max_recorded_sends 0 in
  let n_sends = ref 0 in
  Net.on_send net (fun ~time:_ ~src ~dst _ ->
      if !n_sends < max_recorded_sends then begin
        sends_src.(!n_sends) <- src;
        sends_dst.(!n_sends) <- dst;
        incr n_sends
      end);
  let wrap node ~src msg =
    let c = class_index (M.classify msg) in
    let sent0 = Net.n_sent net in
    let i = Spans.reserve spans in
    let t0 = now_ns () in
    Node.handle node ~src msg;
    let t1 = now_ns () in
    Spans.set spans i ~start:t0 ~dur:(t1 - t0) ~kind:(k_handle + c)
      ~parent:!cur_step;
    fanout.(c) <- fanout.(c) + (Net.n_sent net - sent0);
    handled := true
  in
  let snaps = Array.make (Array.length marks) None in
  let next_mark = ref 0 in
  let node_s = ref 0.0 and last_t = ref (Engine.now engine) in
  let last_count = ref (Sim.Live.node_count live) in
  let stopped = ref false in
  ignore (Engine.schedule_at engine ~time:s.horizon (fun () -> stopped := true));
  let origin = now_ns () in
  while not !stopped do
    let i = Spans.reserve spans in
    cur_step := i;
    handled := false;
    let created0 = Sim.Live.nodes_created live in
    let t0 = now_ns () in
    let more = Engine.step engine in
    let t1 = now_ns () in
    let created1 = Sim.Live.nodes_created live in
    let kind =
      if created1 > created0 then k_spawn
      else if !handled then k_delivery
      else k_timer
    in
    Spans.set spans i ~start:t0 ~dur:(t1 - t0) ~kind ~parent:(-1);
    for addr = created0 to created1 - 1 do
      match Sim.Live.find_node live ~addr with
      | Some node when Net.is_registered net ~addr -> Net.register net ~addr (wrap node)
      | Some _ | None -> ()
    done;
    let t = Engine.now engine in
    node_s := !node_s +. (float_of_int !last_count *. (t -. !last_t));
    last_t := t;
    last_count := Sim.Live.node_count live;
    while !next_mark < Array.length marks && t >= marks.(!next_mark) do
      snaps.(!next_mark) <-
        Some
          {
            sent = Net.n_sent net;
            node_s = !node_s;
            by_class =
              Array.map (fun c -> Net.sent_in_class net (M.class_name c)) classes;
          };
      incr next_mark
    done;
    if not more then stopped := true
  done;
  let wall_ns = now_ns () - origin in
  {
    setup;
    outcome = Session.outcome ~settle:false s live;
    spans;
    origin;
    wall_ns;
    fanout;
    sends_src;
    sends_dst;
    n_sends = !n_sends;
    snaps;
  }

(* Aggregates over the spans. *)
type profile = {
  calls : int array;  (** handler spans per class *)
  handle_ns : int array;
  timer_steps : int;
  timer_ns : int;
  spawn_steps : int;
  spawn_ns : int;
  delivery_steps : int;
  delivery_self_ns : int;  (** delivery step time outside its handler spans *)
}

let profile r =
  let sp = r.spans in
  let calls = Array.make n_classes 0 and handle_ns = Array.make n_classes 0 in
  let child_ns = Array.make sp.n 0 in
  for i = 0 to sp.n - 1 do
    let k = sp.kind.(i) in
    if k >= k_handle then begin
      calls.(k - k_handle) <- calls.(k - k_handle) + 1;
      handle_ns.(k - k_handle) <- handle_ns.(k - k_handle) + sp.dur.(i);
      let p = sp.parent.(i) in
      if p >= 0 then child_ns.(p) <- child_ns.(p) + sp.dur.(i)
    end
  done;
  let timer_steps = ref 0 and timer_ns = ref 0 in
  let spawn_steps = ref 0 and spawn_ns = ref 0 in
  let delivery_steps = ref 0 and delivery_self_ns = ref 0 in
  for i = 0 to sp.n - 1 do
    let k = sp.kind.(i) and d = sp.dur.(i) in
    if k = k_timer then begin
      incr timer_steps;
      timer_ns := !timer_ns + d
    end
    else if k = k_spawn then begin
      incr spawn_steps;
      spawn_ns := !spawn_ns + d
    end
    else if k = k_delivery then begin
      incr delivery_steps;
      delivery_self_ns := !delivery_self_ns + d - child_ns.(i)
    end
  done;
  {
    calls;
    handle_ns;
    timer_steps = !timer_steps;
    timer_ns = !timer_ns;
    spawn_steps = !spawn_steps;
    spawn_ns = !spawn_ns;
    delivery_steps = !delivery_steps;
    delivery_self_ns = !delivery_self_ns;
  }
