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

# Byte-identical behaviour contract: the scenario-matrix fingerprints, the
# fig9/fig10 output and Table 2 must match the files committed under
# test/golden/. A change that alters protocol behaviour (or, for Table 2,
# the plugin bytecode) on purpose regenerates them with these same commands.
echo "== golden outputs (matrix fingerprints, fig9, fig10, table2)"
golden=$(mktemp -d)
dune exec bin/chaos.exe -- fingerprints --seeds 2 > "$golden/fingerprints.txt"
dune exec bin/experiments.exe -- fig9 --points 6 > "$golden/fig9.txt"
dune exec bin/experiments.exe -- fig10 --points 3 > "$golden/fig10.txt"
dune exec bin/experiments.exe -- table2 > "$golden/table2.txt"
for f in fingerprints fig9 fig10 table2; do
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
# netsim, or the hosts built on it), the PQUIC core must not reach into
# tcpsim, and the QUIC wire library depends on none of netsim, pluginop
# or pquic. Checked both at the dune library graph (dune describe) and
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
bad=$(deps_of quic | grep -Ex 'netsim|pluginop|pquic' || true)
if [ -n "$bad" ]; then
  echo "quic depends on $bad"; rm -f "$desc"; exit 1
fi
# Plugin manifests and the helper id space live in pluginop: the trust
# library names them there and never links the QUIC engine.
bad=$(deps_of trust | grep -Ex 'pquic' || true)
if [ -n "$bad" ]; then
  echo "trust depends on pquic"; rm -f "$desc"; exit 1
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

# Re-export lint: a module has one public path. A file whose only code
# line is `include <Module>` gives an existing module a second name, so
# callers drift between the two; callers name the module where it lives.
echo "== re-export lint (lib/)"
bad=$(find lib -name '*.ml' | sort | xargs perl -0777 -ne '
  1 while s/\(\*(?:(?!\(\*|\*\)).)*\*\)//s;
  my @code = grep { /\S/ } split /\n/;
  print "$ARGV\n" if @code == 1 && $code[0] =~ /^\s*include\s+[A-Z][\w.]*\s*$/')
if [ -n "$bad" ]; then
  echo "include-only re-export modules in lib/:"
  echo "$bad"; exit 1
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

# Zero-copy lint for the frame codec: frame.ml holds only the production
# encoder and the view parser, so no String.sub may appear anywhere in
# it — one creeping back into the parse path would silently re-introduce
# the per-frame payload copies. The allocating reference codec lives in
# test/frame_ref.ml.
echo "== zero-copy lint (frame.ml)"
if grep -n 'String\.sub' lib/quic/frame.ml; then
  echo "String.sub in lib/quic/frame.ml"; exit 1
fi

# One-compile lint: a plugin is compiled and keyed once, when its
# template is prepared (Pre.admit), so building an instance for another
# connection compiles and hashes nothing. Outside the template builder
# only Plugin.serialize/stats (inside plugin.ml) and the trust
# validator, which compiles a plugin once to vouch for it and builds no
# instance, may call Plugin.compiled or Plugin.code_key. Tests and
# benches are not scanned.
echo "== one-compile lint (Plugin.compiled, Plugin.code_key)"
bad=$(grep -rnE 'Plugin\.(compiled|code_key)\b' lib bin examples \
        --include='*.ml' --include='*.mli' \
      | grep -vE '^lib/pluginop/pre\.ml:|^lib/trust/validator\.ml:' || true)
if [ -n "$bad" ]; then
  echo "Plugin.compiled or Plugin.code_key called outside the template builder:"
  echo "$bad"; exit 1
fi

# Mutable-global lint: a top-level ref, table, queue, array, byte buffer
# or lazy value in lib/ is process-wide state that hides a dependency and
# blocks per-domain engines. Each one left is listed below with the
# reason it stays; any other fails, and so does an entry that no longer
# matches, so the list can only shrink.
echo "== mutable-global lint (lib/)"
allowed='
lib/quic/writer.ml:free_list          Writer pool; perfbench reads its counters
lib/quic/writer.ml:created_count      Writer pool counter, read by perfbench
lib/quic/writer.ml:outstanding_count  Writer pool counter, read by perfbench
lib/quic/writer.ml:reuse_count        Writer pool counter, read by perfbench
lib/quic/reader.ml:free_list          Reader pool; perfbench reads its counters
lib/quic/reader.ml:created_count      Reader pool counter, read by perfbench
lib/quic/reader.ml:outstanding_count  Reader pool counter, read by perfbench
lib/quic/reader.ml:reuse_count        Reader pool counter, read by perfbench
lib/pluginop/pre.ml:program_cache     Pre program cache; perfbench reads its counters
lib/pluginop/pre.ml:admission_order   Pre program cache eviction order
lib/pluginop/pre.ml:cache_hits        Pre program cache counter, read by perfbench
lib/pluginop/pre.ml:cache_misses      Pre program cache counter, read by perfbench
lib/pluginop/pre.ml:cache_evictions   Pre program cache counter, read by perfbench
lib/core/conn_types.ml:rx_profile     rx profile for bench/e2e.ml, until its retirement (ROADMAP 1c)
lib/core/conn_types.ml:rx_clock       rx profile clock, until ROADMAP 1c
lib/core/conn_types.ml:rx_seconds     rx profile accumulator, until ROADMAP 1c
lib/core/conn_types.ml:rx_minor_words rx profile accumulator, until ROADMAP 1c
lib/core/conn_types.ml:rx_packets     rx profile accumulator, until ROADMAP 1c
'
found=$(grep -rnE "^let [a-z_0-9']+( *:[^=]*)? *= *(ref\b|Hashtbl\.create|Queue\.create|Array\.make|Bytes\.create|Bytes\.make|lazy\b)" \
          lib --include='*.ml' \
        | sed -E "s/^([^:]+):[0-9]+:let ([a-z_0-9']+).*/\1:\2/")
names=$(echo "$allowed" | awk 'NF {print $1}')
bad=$(for g in $found; do echo "$names" | grep -qxF "$g" || echo "$g"; done)
if [ -n "$bad" ]; then
  echo "top-level mutable globals in lib/ outside the allow-list:"
  echo "$bad"; exit 1
fi
stale=$(for g in $names; do echo "$found" | grep -qxF "$g" || echo "$g"; done)
if [ -n "$stale" ]; then
  echo "allow-listed globals no longer in lib/ (drop them from bin/check.sh):"
  echo "$stale"; exit 1
fi

# Write-only-field lint: a mutable record field in lib/ that no code in
# the repo reads (as `x.f`) is state that only costs memory, and on a
# path a peer drives it is state the peer can grow. A read on the right
# of the field's own assignment (`t.f <- t.f + 1`) does not count. Each
# field left is listed below with the reason it stays; any other fails,
# and so does an entry that no longer matches.
echo "== write-only-field lint (lib/)"
allowed='
lib/netsim/link.ml:bytes_delivered  test/link_ref.ml differential compares it with the whole record
'
found=$(perl -e '
  my (%src, @decl, %read);
  for my $f (@ARGV) {
    local $/; open my $h, "<", $f or die "$f: $!"; my $s = <$h>; close $h;
    1 while $s =~ s/\(\*(?:(?!\(\*|\*\)).)*\*\)/ /s;
    $s =~ s/"(?:[^"\\]|\\.)*"/""/g;
    $src{$f} = $s;
    if ($f =~ m{^lib/}) {
      push @decl, "$f:$1" while $s =~ /\bmutable\s+([a-z_][\w\x27]*)\s*:/g;
    }
  }
  for my $s (values %src) {
    # Blank the field name inside the right-hand side of its own
    # assignment, which ends at a ; or | at bracket depth 0, at an
    # unmatched closer, or at a keyword that ends the expression.
    my @cut;
    while ($s =~ /\.([a-z_][\w\x27]*)\s*<-/g) {
      my ($name, $i, $d) = ($1, pos($s), 0);
      my $start = $i;
      for (; $i < length $s; $i++) {
        my $rest = substr($s, $i, 6);
        my $word = substr($s, $i - 1, 1) !~ /[\w.\x27]/;
        if ($rest =~ /^[(\[{]/) { $d++ }
        elsif ($rest =~ /^[)\]}]/) { last if $d == 0; $d-- }
        elsif ($word && $rest =~ /^begin\b/) { $d++ }
        elsif ($word && $rest =~ /^(end|done|in|then|else|with|and|let)\b/) {
          last if $d == 0;
          $d-- if $1 eq "end";
        }
        elsif ($rest =~ /^[;|]/) { last if $d == 0 }
      }
      push @cut, [$start, $i, $name];
    }
    for (@cut) {
      my ($a, $b, $name) = @$_;
      my $seg = substr($s, $a, $b - $a);
      $seg =~ s/\.\Q$name\E\b/"." . ("\x00" x length $name)/ge;
      substr($s, $a, $b - $a) = $seg;
    }
    $read{$1} = 1 while $s =~ /\.([a-z_][\w\x27]*)\b(?!\s*<-)/g;
  }
  for (@decl) { my ($n) = /:(.*)$/; print "$_\n" unless $read{$n} }
' $(find lib bin bench examples perfbench test -name '*.ml' | sort))
names=$(echo "$allowed" | awk 'NF {print $1}')
bad=$(for g in $found; do echo "$names" | grep -qxF "$g" || echo "$g"; done)
if [ -n "$bad" ]; then
  echo "mutable fields in lib/ that nothing reads:"
  echo "$bad"; exit 1
fi
stale=$(for g in $names; do echo "$found" | grep -qxF "$g" || echo "$g"; done)
if [ -n "$stale" ]; then
  echo "allow-listed write-only fields now read or gone (drop them from bin/check.sh):"
  echo "$stale"; exit 1
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
