(** The [gdpd] daemon core: a fleet of preloaded engines served over a
    socket by K worker domains sharing each instance's sharded plan
    cache ({!Gdpn_engine.Engine.reader}).

    The calling domain runs the accept loop; accepted connections drain
    through a bounded queue (a full queue blocks the acceptor — that,
    the listen backlog and the read-one-frame/write-one-frame connection
    loop are the protocol's backpressure).  Each connection's frames are
    processed strictly in order by a single worker, so per-connection
    responses are deterministic — the serve-smoke crosscheck compares
    them byte-for-byte against direct [Engine.solve].

    Metrics: [server.connections], [server.requests], [server.batches],
    [server.errors], [server.batch_size], [server.request_ns] and the
    [server.queue_depth] gauge, all in the process registry that the
    protocol's [Metrics_dump] request snapshots. *)

type listen = Unix_sock of string | Tcp of int  (** loopback only *)

type config = {
  instances : (int * int) list;  (** fleet: [(n, k)] per slot, in id order *)
  listen : listen;
  workers : int;  (** worker domains (default 2) *)
  max_queue : int;  (** accepted-connection queue bound (default 64) *)
  warm : int;  (** pre-solve every fault set of size <= this (default 0) *)
  budget : int option;  (** per-engine solver budget override *)
  cache_limit : int option;  (** per-engine plan-cache bound override *)
  allow_shutdown : bool;  (** honour the protocol's [Shutdown] request *)
  store : string list;
      (** precompiled plan stores ({!Gdpn_engine.Plan_store}); each path
          is mmap'd and attached as the L2 tier of the fleet engine
          whose instance digest it was compiled for (at most one store
          per engine — the last matching path wins) *)
}

val default_config : config
(** Empty fleet ([run] rejects it), Unix socket ["gdpd.sock"], 2
    workers, queue bound 64, no warmup, engine defaults, shutdown
    allowed, no plan stores. *)

val run : ?ready:(unit -> unit) -> config -> unit
(** Build the fleet, warm it, bind, then serve until a [Shutdown]
    request arrives; workers drain their in-flight connections before
    [run] returns (the Unix socket path is unlinked on the way out).
    [ready] fires once the socket is listening — the daemon prints its
    ready line from it, tests use it to connect without polling.
    [run] ignores SIGPIPE for the whole process, so a peer that hangs up
    before reading its answer ends only its own connection.
    [Invalid_argument] on an empty fleet or on a plan store no fleet
    engine accepts; [Unix.Unix_error] if the socket cannot be bound. *)
