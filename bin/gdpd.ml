(* gdpd — the standalone plan-serving daemon.  One command, the same
   options as [gdp serve] (both front Serve_cli). *)

open Cmdliner

let () =
  let info =
    Cmd.info "gdpd" ~version:"1.0.0"
      ~doc:"Plan-serving daemon for gracefully degradable pipeline networks."
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Preloads a fleet of solution-graph instances and serves \
             reconfiguration plans over a length-prefixed binary protocol \
             (see PROTOCOL.md) from a domain-safe sharded plan cache.  Use \
             $(b,gdp bench-client) to query, crosscheck or stop it.";
        ]
  in
  exit (Cmd.eval' (Cmd.v info Serve_cli.serve_term))
