#!/bin/sh
# Repo check: formatting (when an ocamlformat setup exists), full build of
# every target — libraries, tests, benches and examples, so bench/example
# code cannot rot outside the default build — then the full test suite.
# Exits non-zero on the first failure.
set -e
cd "$(dirname "$0")/.."

if [ -f .ocamlformat ] && command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (no .ocamlformat or ocamlformat binary)"
fi

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== chaos smoke (seed-sweep invariants)"
dune exec bin/chaos.exe -- sweep --seeds 10

echo "== scenario-matrix smoke (migration through nat+tracker)"
dune exec bin/chaos.exe -- matrix --seeds 3 \
  --cells bursty/nat+tracker/plain,bursty/nat+tracker/mpfec

# Byte-identical behaviour contract: the scenario-matrix fingerprints and
# the fig9/fig10 output must match the files committed under test/golden/.
# A change that alters protocol behaviour on purpose regenerates them with
# these same commands.
echo "== golden outputs (matrix fingerprints, fig9, fig10)"
golden=$(mktemp -d)
dune exec bin/chaos.exe -- fingerprints --seeds 2 > "$golden/fingerprints.txt"
dune exec bin/experiments.exe -- fig9 --points 6 > "$golden/fig9.txt"
dune exec bin/experiments.exe -- fig10 --points 3 > "$golden/fig10.txt"
for f in fingerprints fig9 fig10; do
  if ! diff -u "test/golden/$f.txt" "$golden/$f.txt"; then
    echo "$f output differs from test/golden/$f.txt"; rm -rf "$golden"; exit 1
  fi
done
rm -rf "$golden"

echo "== cross-host demo (same plugin bytecode on PQUIC and tcpsim)"
dune exec examples/cross_host.exe >/dev/null

echo "== server-engine smoke (1k concurrent connections, no JSON refresh)"
dune exec bench/server.exe -- --smoke >/dev/null

# Dependency-direction lint for the pluginop layering: the transport-
# neutral host library must not depend on any transport (quic, tcpsim,
# netsim, or the hosts built on it), and the PQUIC core must not reach
# into tcpsim. Checked both at the dune library graph (dune describe) and
# at the source level (module-path references).
echo "== dependency-direction lint (pluginop layering)"
desc=$(mktemp)
dune describe workspace > "$desc"
deps_of() {
  awk -v lib="$1" '
    /\(name / { line=$0; gsub(/[()]/, "", line); split(line, a, " "); name=a[2] }
    /\(uid /  { line=$0; gsub(/[()]/, "", line); split(line, a, " "); byuid[a[2]]=name }
    /\(requires/ { if (name != "") collecting=name }
    collecting != "" {
      line=$0; gsub(/[()]/, " ", line)
      n=split(line, w, " ")
      for (i=1; i<=n; i++)
        if (w[i] ~ /^[0-9a-f]+$/ && length(w[i]) == 32)
          req[collecting] = req[collecting] " " w[i]
      if ($0 ~ /\)\)/) collecting=""
    }
    END {
      n=split(req[lib], r, " ")
      for (i=1; i<=n; i++) if (byuid[r[i]] != "") print byuid[r[i]]
    }
  ' "$desc"
}
bad=$(deps_of pluginop | grep -Ex 'quic|tcpsim|netsim|pquic|plugins' || true)
if [ -n "$bad" ]; then
  echo "pluginop depends on transport libraries: $bad"; rm -f "$desc"; exit 1
fi
bad=$(deps_of pquic | grep -Ex 'tcpsim' || true)
if [ -n "$bad" ]; then
  echo "pquic (lib/core) depends on tcpsim"; rm -f "$desc"; exit 1
fi
rm -f "$desc"
if grep -rn 'Quic\.\|Tcpsim\.\|Netsim\.\|Pquic\.' lib/pluginop \
     --include='*.ml' --include='*.mli' | grep -v '(\*'; then
  echo "lib/pluginop references a transport module"; exit 1
fi
if grep -rn 'Tcpsim\.' lib/core --include='*.ml' --include='*.mli' \
     | grep -v '(\*'; then
  echo "lib/core references tcpsim"; exit 1
fi

# Committed benchmark artifacts must stay well-formed: right schema tag,
# non-empty results, strictly positive measurements. Catches hand edits
# and half-written files; jq is optional so the check degrades gracefully.
if command -v jq >/dev/null 2>&1; then
  echo "== bench JSON sanity (jq)"
  jq -e '
    .schema == "pquic-bench-vm/1"
    and (.results | length > 0)
    and ([.results[] | .ns_per_op > 0] | all)
    and (.results | has("transfer_1MB_e2e"))
  ' BENCH_vm.json >/dev/null || { echo "BENCH_vm.json failed sanity check"; exit 1; }
  # The jit tier (the bytecode benches without a suffix) must never be
  # slower than the linked interpreter it replaced: 3.93x over the
  # reference interpreter is the linked tier's last committed speedup.
  jq -e '
    (.results | has("pre_rtt_update_interp"))
    and (.results | has("bytecode_direct_load_interp"))
    and (.ratios.jit_speedup_pre_rtt_update >= 3.93)
    and (.ratios.jit_speedup_bytecode_direct_load >= 3.93)
  ' BENCH_vm.json >/dev/null || { echo "BENCH_vm.json jit tier gates failed"; exit 1; }
  jq -e '
    .schema == "pquic-bench-e2e/1"
    and (.results | length > 0)
    and ([.results[] | .cpu_ms > 0 and .goodput_mb_s > 0
          and .packets > 0 and .ns_per_packet > 0] | all)
    and (.results | has("transfer_1MB_e2e"))
  ' BENCH_e2e.json >/dev/null || { echo "BENCH_e2e.json failed sanity check"; exit 1; }
  # Receive-side gates: the rx profile must be measured for every
  # scenario, and the zero-copy receive path bounds the mp+FEC tax — the
  # heaviest pluginized scenario must stay within 1.6x of the single-path
  # baseline per packet (was 1.67x before the view parser; ratcheting
  # toward the 1.3x target as the pluglet exec path gets cheaper), and
  # its per-packet allocations under 3438 minor words (a 40% cut from the
  # copying parser's 5730).
  jq -e '
    ([.results[] | .rx_ns_per_packet > 0 and .rx_minor_words_per_packet > 0]
     | all)
    and (.results.transfer_50MB_mp_fec.ns_per_packet
         <= 1.6 * .results.transfer_50MB_e2e.ns_per_packet)
    and (.results.transfer_50MB_mp_fec.minor_words_per_packet <= 3438)
  ' BENCH_e2e.json >/dev/null || { echo "BENCH_e2e.json receive-side gates failed"; exit 1; }
  jq -e '
    .schema == "pquic-bench-server/1"
    and (.cells | length > 0)
    and ([.cells[] | .dispatch_ns > 0 and .receive_ns > 0
          and .accept_per_sec > 0 and .bytes_per_conn > 0] | all)
    and ([.cells[] | .conns] | index(10000) != null)
    and (.timer.arm_ns > 0 and .timer.fire_ns > 0)
  ' BENCH_server.json >/dev/null || { echo "BENCH_server.json failed sanity check"; exit 1; }
  # Engine acceptance gates: at the 10k-connection cell the per-datagram
  # dispatch must stay under 1 us and the global plugin cache must serve
  # a same-plugin population at >= 99% hit rate.
  jq -e '
    [.cells[] | select(.conns == 10000)] | length > 0
    and (.[0].dispatch_ns <= 1000)
    and (.[0].plugin_cache.hit_rate >= 0.99)
  ' BENCH_server.json >/dev/null || { echo "BENCH_server.json engine gates failed"; exit 1; }
else
  echo "== skipping bench JSON sanity (no jq)"
fi

# Zero-copy lint for the frame codec: the only String.sub sites allowed
# in frame.ml are the reference parser and of_view, fenced by the
# REFERENCE-PARSER markers — a String.sub creeping back into the view
# parse path would silently re-introduce the per-frame payload copies.
echo "== zero-copy lint (frame.ml parse paths)"
bad=$(awk '/REFERENCE-PARSER-BEGIN/{ref=1} /REFERENCE-PARSER-END/{ref=0; next}
           !ref && /String\.sub/ {print FILENAME ":" FNR ": " $0}' \
      lib/quic/frame.ml)
if [ -n "$bad" ]; then
  echo "String.sub outside the reference-parser block in frame.ml:"
  echo "$bad"; exit 1
fi

# List-free ACK lint: the core encodes ACK frames straight from the flat
# range set (Frame.write_ack) and processes them from the V_ack view, so
# it never builds the allocating Frame.Ack shape — that stays the
# reference form for the codec tests and benches. Only a wildcard match
# arm (`Ack _`) may name the constructor.
echo "== list-free ACK lint (lib/core)"
bad=$(grep -rnE '(F|Frame)\.Ack\b' lib/core --include='*.ml' --include='*.mli' \
      | grep -vE '\.Ack _' || true)
if [ -n "$bad" ]; then
  echo "lib/core constructs an allocating ACK frame:"
  echo "$bad"; exit 1
fi

# Library size on every check log, so each change's effect on lib/ is on
# record (.ml + .mli lines per library).
echo "== library size (make loc)"
make -s loc

echo "== OK"
