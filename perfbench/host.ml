(* A probe of the host's speed.

   The benchmark shares a host whose speed drifts by tens of per cent
   over minutes (NOTES.md), which no estimator within one run can undo.
   The untraced run therefore times this probe next to its sessions and
   reports its timings scaled to the probe's [reference_ns]. The probe is
   a fixed stand-in for the simulator's work, written here and calling
   none of the program's code, so a change to the program does not move
   it: an event loop over a binary heap of small records, each event
   following a random link and reading four words at random from a
   16 MB table. The tables live outside the OCaml heap, so that the
   probe does not move [peak_heap_mb]. *)

module A = Bigarray.Array1

type msg = { dst : int; at : float; hops : int }

let nodes = 4096
let fanout = 64
let table_words = 1 lsl 21
let events = 60_000

(* The probe's median on the 2-core x86-64 container the benchmark was
   sized on, during a quiet spell of its host. *)
let reference_ns = 45e6

let ints n f =
  let a = A.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A.unsafe_set a i (f ())
  done;
  a

let state =
  lazy
    (let rng = Random.State.make [| 2024 |] in
     let links = ints (nodes * fanout) (fun () -> Random.State.int rng nodes) in
     let table = ints table_words (fun () -> Random.State.int rng table_words) in
     (links, table))

let work ((links : (int, Bigarray.int_elt, Bigarray.c_layout) A.t), table) =
  let rng = Random.State.make [| 7 |] in
  let heap = Array.make (events + 2048) { dst = 0; at = 0.0; hops = 0 } in
  let size = ref 0 in
  let push m =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).at > m.at do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- m
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1).at < heap.(l).at then l + 1 else l in
        if heap.(c).at < last.at then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  for i = 0 to 1023 do
    push { dst = i * 4; at = Random.State.float rng 1.0; hops = 0 }
  done;
  let acc = ref 0 in
  for _ = 1 to events do
    let m = pop () in
    let next = A.get links ((m.dst * fanout) + Random.State.int rng fanout) in
    let j = ref ((m.dst * 7919) + next) in
    for _ = 1 to 4 do
      j := A.get table (!j land (table_words - 1));
      acc := !acc + !j
    done;
    push { dst = next; at = m.at +. Random.State.float rng 1.0; hops = m.hops + 1 }
  done;
  !acc

(* wall nanoseconds of one run of the probe *)
let probe () =
  let st = Lazy.force state in
  let t0 = Session.now_ns () in
  ignore (Sys.opaque_identity (work st));
  Session.now_ns () - t0
