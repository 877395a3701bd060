(* Real-time latency under reconfiguration.

   The paper's motivation is real-time streams ("the combination of
   high-bandwidth communications and real-time constraints implies that the
   communication pattern ... must be carefully mapped").  This example uses
   the token-level discrete-event simulator to measure what a fault does to
   end-to-end latency: the spike height under (a) local splice repair and
   (b) full reconfiguration, on the same network, same workload, same fault.

   Run with:  dune exec examples/realtime_latency.exe *)

open Gdpn_core
open Gdpn_faultsim

let stages = Stage.fir_bank 12
let tokens = 120

let config =
  { Des.default_config with arrival_period = 5000; splice_latency = 100;
    remap_latency = 5000 }

let percentile latencies p =
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  sorted.(min (Array.length sorted - 1) (p * Array.length sorted / 100))

let run ~label ~local_repair inst faults =
  let machine = Machine.create ~local_repair inst in
  let o = Des.simulate ~machine ~stages ~config ~faults ~tokens () in
  Format.printf "%-24s %a (p50=%d local-repairs=%d)@." label Des.pp_outcome o
    (percentile o.Des.latencies 50)
    (Machine.local_repair_count machine);
  o

let () =
  let inst = Family.build ~n:13 ~k:3 in
  Format.printf "network: %a@." Instance.pp inst;
  Format.printf "workload: %d-stage filter bank, token every %d work units@.@."
    (List.length stages) config.Des.arrival_period;

  let baseline = run ~label:"no faults:" ~local_repair:true inst [] in

  (* One fault in the middle of the stream: pick a processor whose failure
     the splice rules can absorb (probe with Repair first). *)
  let order = Instance.order inst in
  let pipeline =
    match Reconfig.solve_list inst ~faults:[] with
    | Reconfig.Pipeline p -> Pipeline.normalise inst p
    | _ -> assert false
  in
  let spliceable =
    List.find
      (fun v ->
        let faults = Gdpn_graph.Bitset.of_list order [ v ] in
        Repair.patch inst ~current:pipeline ~faults ~failed:v <> None)
      (Instance.processors inst)
  in
  let fault_time = 60 * config.Des.arrival_period / 10 in
  let faults = [ (fault_time, spliceable) ] in
  Format.printf "@.fault: processor %d at t=%d (spliceable)@." spliceable
    fault_time;

  let local = run ~label:"with local repair:" ~local_repair:true inst faults in
  let full = run ~label:"full remap only:" ~local_repair:false inst faults in

  Format.printf "@.latency spike over baseline:@.";
  Format.printf "  local splice: +%d work units@."
    (local.Des.max_latency - baseline.Des.max_latency);
  Format.printf "  full remap:   +%d work units (%.1fx the splice spike)@."
    (full.Des.max_latency - baseline.Des.max_latency)
    (float_of_int (full.Des.max_latency - baseline.Des.max_latency)
    /. float_of_int (max 1 (local.Des.max_latency - baseline.Des.max_latency)));
  assert (local.Des.max_latency <= full.Des.max_latency);
  Format.printf
    "@.both runs deliver every token and keep every healthy processor in \
     service; the difference is purely how long the stream stalls while the \
     new embedding is computed.@.";

  Format.printf "@.latency distribution, full-remap run (work units):@.%s"
    (Stats.histogram ~bins:8 ~width:50
       (Array.map float_of_int full.Des.latencies));
  Format.printf "summary: %a@." Stats.pp_summary
    (Stats.of_ints full.Des.latencies)
