(** Verifiable certificates of k-graceful-degradability.

    [Verify.exhaustive] proves the property by running the solver over the
    whole fault space — trusting the solver's completeness on the negative
    side.  A {e certificate} removes that trust for the positive claim: it
    records explicit pipeline witnesses, and a third party can check the
    claim by validating them against the paper's pipeline definition
    alone (no search, no solver).

    {b Layout.}  One format, written and read as a stream:

    {v
    gdpn-cert 5\n                      the header line
    string  digest                      Certify.digest of the instance
    string  model                       node | mixed | colored | neighbor
    varint  g, then g generators        each [order] varints: the images
                                        of nodes 0..order-1
    records, one per orbit representative of the group the generators
    induce on the model's universe, in Auto.iter_fault_orbits order:
      varint len, len gaps              the representative, delta-encoded
                                        (first element, then each next
                                        element minus its predecessor
                                        minus one)
      varint m, m node ids              the witness pipeline
    v}

    Strings are a varint length then the bytes; varints are unsigned
    LEB128 in their shortest form.  With no generators the group is
    trivial, every fault set is its own representative, and the
    certificate is flat: one record per set, in
    {!Gdpn_graph.Combinat.iter_subsets_up_to} order.

    {b Why the checker is sound.}  {!check} trusts nothing it reads:

    - the digest must be this instance's, and the model name must be one
      {!Fault_model.of_name} builds over it;
    - each generator must be a graph automorphism that keeps every
      node's kind or swaps inputs and outputs wholesale, so every element
      of the group they generate maps pipelines to pipelines;
    - the checker rebuilds that group ({!Gdpn_graph.Auto.of_generators},
      then {!Fault_model.induced_symmetry}) and enumerates the orbit
      representatives itself, reading one record per representative in
      lockstep: a record for any other set, a missing, extra, duplicated
      or reordered record, and any trailing byte are errors;
    - each witness is carried by every group element onto the orbit
      member that element maps the representative to, and validated
      there ({!Fault_model.validate}), so every member has a valid
      pipeline checked by the definition alone;
    - the orbit sizes the checker computed must sum to
      {!Gdpn_graph.Combinat.count_up_to} of the universe and k, so the
      orbits cover every fault set.

    Neither side holds more than one record: the writer streams each as
    it is solved, the checker reads each as its walk reaches the
    representative. *)

val write :
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  ?symmetry:Gdpn_graph.Auto.group ->
  Fault_model.t ->
  out_channel ->
  unit
(** [write model oc] solves one fault set per orbit representative and
    writes the certificate to [oc], record by record, then flushes.
    [symmetry] is a group of solvability-preserving node permutations
    (typically [Instance.symmetry]); its generators go in the header and
    its action on the model's universe picks the representatives.
    Without it the certificate is flat.  By default one reusable search
    context serves the whole enumeration; [solve] overrides the solver
    over universe masks — the engine's plan-cached [solve_model] splices
    most witnesses from their one-fault-smaller predecessors.  Each record
    bumps [certify.records_streamed].  Raises [Failure] if a
    representative has no pipeline (the instance does not tolerate the
    model, so no certificate exists), after writing the records before
    it; raises [Invalid_argument] if [symmetry]'s degree is not the
    instance order. *)

val check : Instance.t -> in_channel -> (int, string) result
(** Read a certificate from the channel and check it against the
    instance, as argued above.  Returns the number of fault sets it
    covers, or an error naming the first problem found.  Every malformed,
    truncated or forged input, and every older format (named by its
    version in the error), gives [Error]; only a failing read of the
    channel itself raises ([Sys_error]). *)

val digest : Instance.t -> string
(** Hex digest of the instance's canonical serialization. *)
