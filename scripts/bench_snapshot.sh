#!/bin/sh
# bench_snapshot.sh — run the hot-path microbenchmarks and write the
# results as BENCH_sim.json at the repo root. The snapshot is the
# reference point for performance regressions: re-run after touching
# internal/sim or the integration path in internal/core and compare.
#
# Usage:
#   scripts/bench_snapshot.sh [benchtime]            # refresh BENCH_sim.json
#   scripts/bench_snapshot.sh -compare [benchtime]   # perf-regression gate
#
# Every benchmark runs -count times (default 3, override with
# BENCH_COUNT) and the snapshot records the per-metric median, so one
# noisy sample — a CI neighbour stealing the core mid-run — cannot move
# the reference or trip the gate.
#
# Compare mode diffs a fresh (median-of-count) run against the
# committed snapshot instead of overwriting it: ns/op must stay within
# the tolerance (default +/-25%, override with BENCH_TOL=0.40 etc.),
# allocs/op must match exactly for lean benchmarks (reference < 32
# allocs/op — the hot paths whose contract is an exact, usually zero,
# count), batch benchmarks above that get +/-5% (amortized slice growth
# divided by b.N rounds differently between runs), and every benchmark
# in the snapshot must still exist. Exits nonzero on any regression —
# `make ci` runs this as its perf gate.
set -eu
cd "$(dirname "$0")/.."

mode=snapshot
if [ "${1:-}" = "-compare" ]; then
	mode=compare
	shift
fi
benchtime="${1:-200ms}"
count="${BENCH_COUNT:-3}"
tol="${BENCH_TOL:-0.25}"
ref="BENCH_sim.json"
out="$ref"
tmp="$(mktemp)"
fresh=""
cleanup() { rm -f "$tmp" ${fresh:+"$fresh"}; }
trap cleanup EXIT

if [ "$mode" = "compare" ]; then
	[ -f "$ref" ] || { echo "bench compare: no $ref snapshot to compare against" >&2; exit 1; }
	fresh="$(mktemp)"
	out="$fresh"
fi

go test -run=NONE -bench=. -benchmem -benchtime="$benchtime" -count="$count" \
	./internal/sim ./internal/cache ./internal/core ./internal/fleet | tee "$tmp"

awk -v benchtime="$benchtime" -v count="$count" '
function median(arr, k, c,   i, j, t, v) {
	for (i = 1; i <= c; i++) v[i] = arr[k, i]
	for (i = 2; i <= c; i++) {
		t = v[i]
		for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
		v[j + 1] = t
	}
	if (c % 2) return v[(c + 1) / 2]
	return (v[c / 2] + v[c / 2 + 1]) / 2
}
/^pkg:/ { pkg = $2 }
/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($(i) == "ns/op")     ns = $(i - 1)
		if ($(i) == "B/op")      bytes = $(i - 1)
		if ($(i) == "allocs/op") allocs = $(i - 1)
	}
	if (ns == "") next
	k = pkg SUBSEP name
	if (!(k in cnt)) { order[++n] = k; pkgof[k] = pkg; nameof[k] = name }
	c = ++cnt[k]
	nsv[k, c] = ns + 0; byv[k, c] = bytes + 0; alv[k, c] = allocs + 0
}
END {
	for (i = 1; i <= n; i++) {
		k = order[i]
		row = sprintf("    {\"pkg\": \"%s\", \"name\": \"%s\", \"ns_per_op\": %.10g, \"bytes_per_op\": %.10g, \"allocs_per_op\": %.10g}",
			pkgof[k], nameof[k],
			median(nsv, k, cnt[k]), median(byv, k, cnt[k]), median(alv, k, cnt[k]))
		rows = rows (rows == "" ? "" : ",\n") row
	}
	printf "{\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"count\": %d,\n", count
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"benchmarks\": [\n%s\n  ]\n", rows
	printf "}\n"
}
' "$tmp" > "$out"

if [ "$mode" = "snapshot" ]; then
	echo "wrote $out (median of $count runs)"
	exit 0
fi

echo ""
echo "comparing median-of-$count against $ref (ns/op tolerance +/-$tol, allocs/op exact below 32, else +/-5%)"
awk -v tol="$tol" '
function field(line, key,   re, s) {
	re = "\"" key "\": \"?[^,}\"]*"
	if (match(line, re)) {
		s = substr(line, RSTART, RLENGTH)
		sub(/^[^:]*: "?/, "", s)
		return s
	}
	return ""
}
/"name":/ {
	k = field($0, "pkg") "/" field($0, "name")
	if (NR == FNR) {
		refns[k] = field($0, "ns_per_op") + 0
		refal[k] = field($0, "allocs_per_op") + 0
		next
	}
	seen[k] = 1
	ns = field($0, "ns_per_op") + 0
	al = field($0, "allocs_per_op") + 0
	if (!(k in refns)) {
		printf "  new      %-55s %10.1f ns/op %3d allocs/op (no reference)\n", k, ns, al
		next
	}
	ratio = refns[k] > 0 ? ns / refns[k] : 1
	# Lean benchmarks pin an exact alloc count; batch benchmarks
	# (>= 32 allocs/op reference) amortize slice growth over b.N and
	# legitimately round +/-1-2 between runs, so they get 5% slack.
	albad = (al != refal[k])
	if (albad && refal[k] >= 32 && al <= refal[k] * 1.05 && al >= refal[k] * 0.95)
		albad = 0
	status = "ok"
	if (albad) {
		status = "FAIL"; why = sprintf("allocs %d != %d", al, refal[k]); fail++
	} else if (ratio > 1 + tol) {
		status = "FAIL"; why = sprintf("%.0f%% slower", (ratio - 1) * 100); fail++
	} else if (ratio < 1 - tol) {
		status = "note"; why = sprintf("%.0f%% faster than snapshot (refresh it?)", (1 - ratio) * 100)
	} else {
		why = sprintf("%+.0f%% ns/op", (ratio - 1) * 100)
	}
	printf "  %-8s %-55s %10.1f vs %10.1f ns/op  %s\n", status, k, ns, refns[k], why
}
END {
	if (NR == FNR) exit 0
	for (k in refns) if (!(k in seen)) {
		printf "  FAIL     %-55s missing from fresh run\n", k
		fail++
	}
	if (fail > 0) {
		printf "bench compare: %d regression(s) against the committed snapshot\n", fail
		exit 1
	}
	print "bench compare: ok"
}
' "$ref" "$fresh"
