(** Blocking client for the [gdpd] protocol: one connection, lockstep
    request/response.  Throughput comes from batching
    ({!solve_batch}), not overlapping frames.  Used by
    [gdp bench-client] and the server tests. *)

type t

exception Server_error of { code : int; message : string }
(** The server answered with a protocol [Error] (codes in
    {!Protocol}). *)

exception Protocol_error of string
(** The server answered with the wrong message kind, or closed the
    connection mid-request. *)

val connect : ?attempts:int -> ?retry_delay:float -> Server.listen -> t
(** Connect to a daemon.  [attempts] > 1 retries refused/absent sockets
    every [retry_delay] seconds (default 50ms) — for racing a daemon
    that is still binding. *)

val close : t -> unit

val request : t -> Protocol.request -> Protocol.response
(** One raw round trip.  The typed helpers below are [request] plus
    unwrapping. *)

val hello : t -> Protocol.instance_info list
val solve : t -> inst:int -> int list -> Protocol.outcome
val solve_batch : t -> inst:int -> int list list -> Protocol.outcome list
val metrics : t -> string
(** The server's lib/obs metrics snapshot as JSON. *)

val shutdown : t -> unit
