.PHONY: all check test bench bench-e2e bench-server chaos loc clean

all:
	dune build

check:
	sh bin/check.sh

test:
	dune runtest

# Deterministic chaos sweep: seeds × adversarial fault profiles, asserting
# the transport invariants (see bin/chaos.ml). The default is a fast smoke;
# CHAOS_SEEDS=n runs the full sweep (e.g. CHAOS_SEEDS=100 make chaos).
CHAOS_SEEDS ?= 25
chaos:
	dune exec bin/chaos.exe -- sweep --seeds $(CHAOS_SEEDS)

# Runs the Bechamel suite and refreshes BENCH_vm.json (machine-readable
# ns/op and insns/sec, tracked across PRs).
bench:
	dune exec bench/main.exe

# End-to-end goodput benchmark over the simulated network: refreshes
# BENCH_e2e.json (goodput MB/s, ns/packet, minor words/packet for 1 MB and
# 50 MB transfers, single-path and multipath+FEC). E2E_QUICK=1 skips the
# 50 MB scenarios.
bench-e2e:
	dune exec bench/e2e.exe -- $(if $(E2E_QUICK),--quick,)

# Massive-concurrency server-engine benchmark: refreshes BENCH_server.json
# (accepts/sec, dispatch + receive ns/datagram, bytes/idle connection and
# plugin-cache hit rate over 10k/100k/1M concurrent connections, plus
# timer-wheel arm/cancel/fire micro-costs). `-- --smoke` runs a 1k-conn
# sweep without touching the JSON.
bench-server:
	dune exec bench/server.exe

# Source size: .ml + .mli lines per lib/ library, then the lib/ total.
loc:
	@for d in lib/*/; do \
	  printf '%-12s %6d\n' "$$(basename $$d)" "$$(cat $$d*.ml $$d*.mli 2>/dev/null | wc -l)"; \
	done
	@printf '%-12s %6d\n' total "$$(cat lib/*/*.ml lib/*/*.mli | wc -l)"

clean:
	dune clean
