(** A solution-graph instance: a node-labeled graph together with the
    parameters [(n, k)] it was built for and the reconfiguration strategy its
    construction supports.

    Terminology follows the paper's Section 3: an instance is {e standard}
    when it is node-optimal (exactly [k+1] input terminals, [k+1] output
    terminals, [n+k] processors) and every terminal has degree 1.  For
    standard instances, [I] denotes the processors adjacent to input
    terminals and [O] the processors adjacent to output terminals. *)

type t = private {
  graph : Gdpn_graph.Graph.t;
  kind : Label.t array;  (** node kinds, indexed by node id *)
  n : int;  (** minimum pipeline length the instance guarantees *)
  k : int;  (** fault tolerance *)
  name : string;  (** human-readable family name, e.g. ["G(3,2)"] *)
  strategy : strategy;
  input_mask : Gdpn_graph.Bitset.t;
      (** nodes labelled Input, built once by {!make}; shared — read
          through {!input_mask} and never mutated *)
  output_mask : Gdpn_graph.Bitset.t;
  processor_mask : Gdpn_graph.Bitset.t;
}

and strategy =
  | Generic
      (** No structural shortcut: reconfigure by spanning-path search. *)
  | Processor_clique
      (** The processors form a clique (G(1,k), G(2,k)): reconfigure by the
          endpoint scan of the Lemma 3.7 / 3.9 proofs. *)
  | Extension of t
      (** Built from the inner instance by the Lemma 3.6 operator; node ids
          of the inner instance are preserved.  Reconfigure recursively. *)
  | Circulant_layout of { m : int }
      (** The §3.4 construction with circulant part of [m] nodes (ids
          [0..m-1], S at labels [0..k+1]), then I, O, Ti, To blocks.
          Reconfigure by the region decomposition: clique runs through I and
          O bridged by a spanning sweep of the ring band. *)

val make :
  graph:Gdpn_graph.Graph.t ->
  kind:Label.t array ->
  n:int ->
  k:int ->
  name:string ->
  strategy:strategy ->
  t
(** Smart constructor; checks basic sanity (array length matches graph
    order, [n >= 1], [k >= 1], terminal sets disjoint by construction of the
    kind array). *)

val order : t -> int

val inputs : t -> int list
(** Input terminal ids, increasing. *)

val outputs : t -> int list
val processors : t -> int list

val processor_set : t -> Gdpn_graph.Bitset.t
(** Fresh bitset of processors (callers may mutate their copy). *)

val input_mask : t -> Gdpn_graph.Bitset.t
(** The input-terminal set built once at {!make}.  Physically shared with
    the instance: callers must not mutate it.  The solver's word-parallel
    endpoint-candidate pass reads these masks directly; copy one
    ([Bitset.copy]) when a mutable set is needed. *)

val output_mask : t -> Gdpn_graph.Bitset.t
val processor_mask : t -> Gdpn_graph.Bitset.t

val kind_of : t -> int -> Label.t

val is_standard : t -> bool
(** Node-optimal and all terminals have degree 1 (Definition, §3). *)

val is_node_optimal : t -> bool
(** Exactly [k+1] inputs, [k+1] outputs, [n+k] processors. *)

val attached_processor : t -> int -> int
(** [attached_processor t terminal] is the unique processor neighbour of a
    degree-1 terminal.  Raises [Invalid_argument] if the node is not a
    degree-1 terminal. *)

val entry_processors : t -> int list
(** The set [I]: processors adjacent to at least one input terminal. *)

val exit_processors : t -> int list
(** The set [O]: processors adjacent to at least one output terminal. *)

val max_processor_degree : t -> int
(** Maximum degree over processor nodes (the quantity the paper's
    degree-optimality results bound). *)

val symmetry : ?reversal:bool -> t -> Gdpn_graph.Auto.group
(** The group of solvability-preserving symmetries of the instance: all
    graph automorphisms preserving node kinds, plus (unless
    [~reversal:false]) one input/output reversal — an automorphism swapping
    the input and output terminal classes — when one exists.  A reversal
    maps every pipeline to a reversed pipeline, which the paper's
    definition also admits, so fault sets in the same orbit under this
    group have identical reconfigurability.  Worst-case exponential in the
    instance order (isomorphism backtracking); fine at verification
    scale. *)

val relabel : t -> perm:int array -> t
(** [relabel t ~perm] renames node [v] to [perm.(v)] ([perm] must be a
    permutation of [0..order-1]).  The result uses the [Generic]
    reconfiguration strategy: the structural shortcuts encode fixed id
    layouts.  Solver outcomes are preserved up to the renaming — the
    metamorphic property the test suite checks. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?faults:int list -> ?pipeline:int list -> t -> string
(** DOT rendering: inputs as boxes, outputs as diamonds, processors as
    circles; faulty nodes greyed; pipeline edges highlighted. *)
