(* Bring your own graph: define a candidate solution graph in the textual
   format, verify it, measure its real tolerance, and emit a witness
   certificate a third party can check without trusting any solver.

   The candidate here is G(1,2) with one extra (useless) edge re-routed —
   a realistic "I designed my own network, is it actually 2-gracefully-
   degradable?" workflow.

   Run with:  dune exec examples/custom_instance.exe *)

open Gdpn_core

let my_network = {|
# A hand-written candidate: 3 processors (clique), 3 inputs, 3 outputs.
gdpn 1
n 1
k 2
name my-custom-network
kinds PPPIIIOOO
edge 0 1
edge 0 2
edge 1 2
edge 0 3
edge 1 4
edge 2 5
edge 0 6
edge 1 7
edge 2 8
|}

let broken_network = {|
# Same, but the designer forgot the 1-2 processor link.
gdpn 1
n 1
k 2
name my-broken-network
kinds PPPIIIOOO
edge 0 1
edge 0 2
edge 0 3
edge 1 4
edge 2 5
edge 0 6
edge 1 7
edge 2 8
|}

let inspect text =
  match Serial.of_string text with
  | Error e -> Format.printf "parse error: %s@." e
  | Ok inst ->
    Format.printf "%a@." Instance.pp inst;
    Format.printf "  standard: %b, node-optimal: %b@."
      (Instance.is_standard inst)
      (Instance.is_node_optimal inst);
    let report = Verify.exhaustive inst in
    Format.printf "  verification: %a@." Verify.pp_report report;
    (* One search answers both: the tolerance is one less than the
       smallest breaking set's size. *)
    let breaking = Verify.breaking_fault_set inst in
    Format.printf "  measured tolerance: %d (designed %d)@."
      (match breaking with
      | Some w -> List.length w - 1
      | None -> inst.Instance.k + 1)
      inst.Instance.k;
    (match breaking with
    | Some w ->
      Format.printf "  smallest breaking fault set: {%s}@."
        (String.concat "," (List.map string_of_int w))
    | None -> ());
    if Verify.is_k_gd report then begin
      (* One witness per orbit of the network's symmetry group, written
         to a file a third party re-checks with the validator alone. *)
      let path = Filename.temp_file "custom_instance" ".cert" in
      Out_channel.with_open_bin path
        (Certify.write ~symmetry:(Instance.symmetry inst)
           (Fault_model.node inst));
      (match In_channel.with_open_bin path (Certify.check inst) with
      | Ok n ->
        Format.printf
          "  certificate: %d bytes covering %d fault sets, re-checked \
           without the solver@."
          (In_channel.with_open_bin path In_channel.length |> Int64.to_int)
          n
      | Error e -> Format.printf "  certificate check failed: %s@." e);
      Sys.remove path
    end;
    Format.printf "@."

let () =
  Format.printf "=== a correct hand-written network ===@.";
  inspect my_network;
  Format.printf "=== the same network with a missing processor link ===@.";
  inspect broken_network;
  Format.printf
    "the broken variant fails verification and its measured tolerance drops \
     below the claimed k — exactly what `gdp check` reports for user \
     files.@."
