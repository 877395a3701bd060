(** Verifiable certificates of k-graceful-degradability.

    [Verify.exhaustive] proves the property by running the solver over the
    whole fault space — trusting the solver's completeness on the negative
    side.  A {e certificate} removes that trust for the positive claim: it
    records explicit pipeline witnesses, and a third party can check the
    claim by validating them against the paper's pipeline definition
    alone (no search, no solver).

    {b Layout.}  One format, written and read as a stream:

    {v
    gdpn-cert 6\n                      the header line
    string  digest                      Certify.digest of the instance
    string  model                       node | mixed | colored | neighbor
    varint  g, then g generators        each [order] varints: the images
                                        of nodes 0..order-1
    records, one per orbit of the group the generators induce on the
    model's universe, in any order:
      varint len, len gaps              the orbit's least member,
                                        delta-encoded (first element,
                                        then each next element minus its
                                        predecessor minus one)
      varint m, m node ids              the witness pipeline
    v}

    Strings are a varint length then the bytes; varints are unsigned
    LEB128 in their shortest form.  With no generators the group is
    trivial, every fault set is its own orbit, and the certificate is
    flat: one record per set.  The writer emits the records in the
    order {!Verify.Task} checks them; nothing in the format depends on
    it, so the writer's order may change without a new version.

    {b Why the checker is sound.}  {!check} trusts nothing it reads:

    - the digest must be this instance's, and the model name must be one
      {!Fault_model.of_name} builds over it;
    - each generator must be a graph automorphism that keeps every
      node's kind or swaps inputs and outputs wholesale, so every element
      of the group they generate maps pipelines to pipelines;
    - the checker rebuilds that group ({!Gdpn_graph.Auto.of_generators},
      then {!Fault_model.induced_symmetry}); each record's set must be
      the least member of its orbit ({!Gdpn_graph.Auto.canonical_set}),
      and no set may appear twice (a bitmap over
      {!Gdpn_graph.Combinat.rank_of_subset}), so distinct records stand
      for distinct orbits;
    - each witness is carried by every group element onto the orbit
      member that element maps the set to, and validated there
      ({!Fault_model.validate}), so every member has a valid pipeline
      checked by the definition alone; the elements that fix the set
      give its orbit size;
    - the orbit sizes must sum to {!Gdpn_graph.Combinat.count_up_to} of
      the universe and k: disjoint orbits that add up to the whole
      space cover every fault set.

    Neither side holds more than one record: the writer streams each as
    the task checks its set, the checker reads each in turn. *)

val write :
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  ?symmetry:Gdpn_graph.Auto.group ->
  Fault_model.t ->
  out_channel ->
  unit
(** [write model oc] drains {!Verify.Task.exhaustive_model} of the model
    under [symmetry], splicing, on the calling domain, and writes the
    certificate to [oc] as its witness sink receives each checked set,
    then flushes: memory is the task and its chain of at most k + 1
    plans, whatever the instance.  [symmetry] is a group of
    solvability-preserving node permutations (typically
    [Instance.symmetry]); its generators go in the header and its action
    on the model's universe picks the representatives.  Without it the
    certificate is flat.  [solve] overrides the full solver over universe
    masks (witnesses are revalidated either way).  Each record bumps
    [certify.records_streamed].  Raises [Failure] if a set has no
    pipeline (the instance does not tolerate the model, so no
    certificate exists), after writing the records before it; raises
    [Invalid_argument] if [symmetry]'s degree is not the instance
    order. *)

val check : Instance.t -> in_channel -> (int, string) result
(** Read a certificate from the channel and check it against the
    instance, as argued above.  Returns the number of fault sets it
    covers, or an error naming the first problem found.  Every malformed,
    truncated or forged input, and every older format (named by its
    version in the error), gives [Error]; only a failing read of the
    channel itself raises ([Sys_error]). *)

val digest : Instance.t -> string
(** Hex digest of the instance's canonical serialization. *)
