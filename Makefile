.PHONY: all build test check resume-smoke chaos-smoke serve-smoke \
  store-smoke cert-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate plus a multicore engine smoke: exhaustively verify
# G(8,2) (137 fault sets) through Engine.Parallel on two domains (splice
# on and off — reports must agree).  --crosscheck then re-enumerates the
# same fault space other ways and exits 3 on any disagreement: splice-first
# against from-scratch solving and the work-stealing shards (reports must
# be identical), the word-parallel kernel against the reference
# backtracker (reports and expansion counts), and with --symmetry the
# orbit-reduced run against full enumeration (verdict, counts and
# orbit-expanded failure sets) — on G(8,2)'s order-2 group and on the
# order-1,440 and order-240 groups of G(1,5) and G(2,5).  A traced run's
# JSONL output must end with the metrics snapshot.  The fault-model lines
# run the same crosschecks over the mixed node+link universe: it exits 1
# (the constructions are not link-GD — that is the honest verdict) but
# must not exit 3 (crosscheck divergence); mixed G(6,2) and G(3,4) and the
# colored and neighborhood universes of G(3,2) are crosschecked with
# --symmetry too; --faults checks one explicit mixed node+link set end to
# end.  --merged restricts the universe to the processors and is
# crosschecked the same way.  An (n, k) with no construction is an input
# error: exit 2, not a crash — and so is a certificate file that cannot be
# read or written.  Last, the E1-E17 reproduction matrix
# (bin/experiments.exe) exits 1 on any failing row.
check: build test
	GDPN_DOMAINS=2 dune exec bin/gdp.exe -- verify -n 8 -k 2
	GDPN_DOMAINS=2 dune exec bin/gdp.exe -- verify -n 8 -k 2 --no-splice
	GDPN_DOMAINS=2 dune exec bin/gdp.exe -- verify -n 8 -k 2 --crosscheck
	GDPN_DOMAINS=2 dune exec bin/gdp.exe -- verify -n 8 -k 2 --merged --crosscheck
	GDPN_DOMAINS=2 dune exec bin/gdp.exe -- verify -n 8 -k 2 --symmetry --crosscheck
	dune exec bin/gdp.exe -- verify -n 1 -k 5 --symmetry --crosscheck
	dune exec bin/gdp.exe -- verify -n 2 -k 5 --symmetry --crosscheck
	GDPN_DOMAINS=2 dune exec bin/gdp.exe -- verify -n 5 -k 2 --model mixed --crosscheck; test $$? -ne 3
	dune exec bin/gdp.exe -- verify -n 6 -k 2 --model mixed --symmetry --crosscheck; test $$? -ne 3
	dune exec bin/gdp.exe -- verify -n 3 -k 4 --model mixed --symmetry --crosscheck; test $$? -ne 3
	dune exec bin/gdp.exe -- verify -n 3 -k 2 --model colored --symmetry --crosscheck; test $$? -ne 3
	dune exec bin/gdp.exe -- verify -n 3 -k 2 --model neighbor --symmetry --crosscheck; test $$? -ne 3
	GDPN_DOMAINS=2 dune exec bin/gdp.exe -- verify -n 5 -k 2 --faults "3,7,2-5"; test $$? -ne 2
	GDPN_DOMAINS=2 dune exec bin/gdp.exe -- verify -n 8 -k 2 --symmetry --trace-out /tmp/gdpn-check-trace.jsonl
	tail -1 /tmp/gdpn-check-trace.jsonl | grep -q '"snapshot"'
	dune exec bin/gdp.exe -- verify -n 8 -k 2 --procs 2 --crosscheck
	dune exec bin/gdp.exe -- verify -n 3 -k 5 --procs 2 --symmetry --crosscheck
	dune exec bin/gdp.exe -- verify -n 4 -k 4; test $$? -eq 2
	dune exec bin/gdp.exe -- build -n 0 -k 2; test $$? -eq 2
	dune exec bin/gdp.exe -- check-cert -n 6 -k 2 /nonexistent; test $$? -eq 2
	dune exec bin/gdp.exe -- check-cert -n 6 -k 2 /tmp; test $$? -eq 2
	dune exec bin/gdp.exe -- certify -n 6 -k 2 /tmp; test $$? -eq 2
	$(MAKE) cert-smoke
	$(MAKE) resume-smoke
	$(MAKE) chaos-smoke
	$(MAKE) serve-smoke
	$(MAKE) store-smoke
	dune exec bin/experiments.exe

# Certificate round-trip: certify and re-check G(6,2) (group order 2),
# G(1,5) (order 1,440) and G(3,2) (trivial group, so a flat
# certificate); a truncated copy must be refused with exit 1.
cert-smoke: build
	dune exec bin/gdp.exe -- certify -n 6 -k 2 /tmp/gdpn-g62.cert
	dune exec bin/gdp.exe -- check-cert -n 6 -k 2 /tmp/gdpn-g62.cert
	dune exec bin/gdp.exe -- certify -n 1 -k 5 /tmp/gdpn-g15.cert
	dune exec bin/gdp.exe -- check-cert -n 1 -k 5 /tmp/gdpn-g15.cert
	dune exec bin/gdp.exe -- certify -n 3 -k 2 /tmp/gdpn-g32.cert
	dune exec bin/gdp.exe -- check-cert -n 3 -k 2 /tmp/gdpn-g32.cert
	head -c 500 /tmp/gdpn-g62.cert > /tmp/gdpn-g62-cut.cert
	dune exec bin/gdp.exe -- check-cert -n 6 -k 2 /tmp/gdpn-g62-cut.cert; \
	  test $$? -eq 1

# Deterministic chaos smoke: seeded multi-year fault storms on G(9,2)
# through all three rate profiles.  Exit 1 = invariant violation (the
# failing run prints its seed and minimal event prefix; replay with
# `gdp chaos --profile P --seed N`); exit 4 = a run failed to exercise
# the required fault kinds beyond plain node death.
chaos-smoke: build
	dune exec bin/gdp.exe -- chaos -n 9 -k 2 --profile chaos --seed 1 \
	  --count 3 --require-kinds node,link,colored,neighbor
	dune exec bin/gdp.exe -- chaos -n 9 -k 2 --profile aggressive --seed 7
	dune exec bin/gdp.exe -- chaos -n 9 -k 2 --profile mild --seed 7

# Kill-and-resume smoke: SIGKILL a checkpointed G(30,4) verification
# (149,986 fault sets, ~4 s) mid-run, resume it, and require the final
# report to be identical to an uninterrupted run's (exit 3 on
# divergence).
resume-smoke: build
	sh scripts/resume_smoke.sh 30 4 1.5

# Daemon smoke: gdpd on a temp Unix socket, a bench-client burst with
# --check (every response compared against a direct Engine.solve replay
# of the same seeded pool; exit 3 on divergence), metrics snapshot
# sanity, protocol shutdown, clean daemon exit.
serve-smoke: build
	sh scripts/serve_smoke.sh 9:2,6:2 2048 128

# Plan-warehouse smoke: compile a G(30,4) store, SIGKILL the compiler
# mid-run and resume from its journal (the resumed store must be
# byte-identical to an uninterrupted compile), then cold-start gdpd
# with a G(9,2) --store and crosscheck a bench-client burst against a
# store-backed local replay (exit 3 on divergence), requiring the cold
# lap to show engine.store_hits in the metrics snapshot.
store-smoke: build
	sh scripts/store_smoke.sh 30 4 3 0.5

clean:
	dune clean
