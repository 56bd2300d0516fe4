#!/bin/sh
# CI gate: formatting, vet, build, full test suite, and a race-detector
# pass over every package.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files are not gofmt-formatted:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== obs gate (vet + staticcheck + fresh tests) =="
# The observability layer is the measurement foundation every perf PR
# builds on, so it gets its own uncached gate: vet, staticcheck when the
# tool is installed, and -count=1 tests.
go vet ./internal/obs/
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./internal/obs/
else
	echo "staticcheck not installed; skipping (go vet still gates internal/obs)"
fi
go test -count=1 ./internal/obs/

echo "== trace gate (vet + fresh tests) =="
# The trace/v1 on-disk format and the Perfetto rendering are what every
# capture, replay, and explanation depends on, so the trace packages get
# the same uncached gate.
go vet ./internal/trace/ ./internal/trace/export/
go test -count=1 ./internal/trace/ ./internal/trace/export/

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (all packages) =="
go test -race ./...

echo "== ledger gate (multi-process verdict equality, fresh) =="
# The distributed work ledger must merge to the exact single-process
# verdict — same execution count, same lex-least counterexample — with
# participants joining, exporting, dying mid-lease, and being reclaimed.
# Package tests cover the protocol (fencing, reclaim, lineage supersession);
# the CLI tests drive real OS processes, SIGKILL one, and compare the
# finalized verdict against an uninterrupted reference run. Uncached.
go test -count=1 ./internal/ledger/
go test -count=1 -run 'TestEngineLedger' ./internal/explore/
go test -count=1 -run 'TestCLILedger' .

echo "== fleet gate (cross-worker observability, fresh) =="
# Fleet observability is how a distributed run is watched: per-worker
# snapshots merge into one view whose totals must agree with the finalize
# merge, and a frozen worker must surface as stale with its reaped claim
# traceable across the survivors' event logs. Package tests exercise every
# anomaly rule on synthetic inputs; the CLI test SIGSTOPs a real worker
# and follows the reclaim chain. Uncached.
go test -count=1 ./internal/obs/fleet/
go test -count=1 -run 'TestEngineFleet' ./internal/explore/
go test -count=1 -run 'TestCLIFleet' .

echo "== exec-form equivalence gate (compiled form vs goroutine reference, covering sweeps) =="
# The compiled Stepper machines every driver runs must enumerate the SAME
# execution tree as the paper-shaped Decide on the goroutine-gated reference
# simulator, leaf for leaf: every protocol is swept (n=2, f=1, unbounded
# faults) through both and any divergence in verdicts, schedules,
# decisions, step counts, or trace logs fails the gate. Uncached, so the
# gate re-runs every time.
go test -count=1 -run TestCompiledMatchesInterpreted ./internal/explore/

echo "== reduction-equivalence gate (reduced vs full exploration, resumed vs from-root replay, fresh, race) =="
# Partial-order reduction must not change what the checker reports: every
# differential case (clean and violating sweeps of every protocol family)
# is re-explored with reduce=on and any divergence in verdict, completeness,
# counterexample schedule, decisions, or trace log fails the gate. The
# reducer's sleep/symmetry bookkeeping is shared mutable state on the branch
# path, so this gate runs under the race detector, uncached. The same gate
# holds incremental replay to the replay-from-root oracle: every protocol
# family, fault kind, dedup and reduction setting, sequential and one-worker
# engine, must produce the identical leaf sequence and outcome whether each
# replay resumes from a saved frame or starts at the root.
go test -count=1 -race -run 'TestReduceMatchesFull|TestResumeMatchesFromRoot' ./internal/explore/

echo "== scaling gate (workers=8 vs workers=1 smoke sweep) =="
# Negative-scaling regression gate: the same 4096-execution covering-sweep
# slab must not get slower when workers are added. The per-benchmark MINIMUM
# of SCALE_COUNT runs is compared (single samples on a loaded box misread by
# 50%). On a multicore machine eight workers must be at least as fast as
# one (budget 1.05). On a single core eight workers time-slice one P, so
# the budget is the measured cost of interleaving eight replay chains
# through the Go scheduler (~1.4x on this class of box) plus noise headroom:
# 1.6x. Before the lease rework the single-core ratio was not the problem —
# the shared-counter hot path made workers=8 slower than workers=1 even
# with idle cores to spare.
NCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$NCPU" -ge 2 ]; then BUDGET=1.05; else BUDGET=1.6; fi
SCALE_COUNT="${SCALE_COUNT:-5}"
RAW_SCALE="$(mktemp)"
RAW_REDUCE="$(mktemp)"
trap 'rm -f "$RAW_SCALE" "$RAW_REDUCE"' EXIT
go test -run '^$' -bench 'BenchmarkEngineCoveringSweep/workers=(1|8)$' \
	-benchtime 1x -count "$SCALE_COUNT" ./internal/explore/ | tee "$RAW_SCALE"
awk -v budget="$BUDGET" '
$1 ~ /\/workers=1(-[0-9]+)?$/ { if (!w1 || $3 + 0 < w1) w1 = $3 + 0 }
$1 ~ /\/workers=8(-[0-9]+)?$/ { if (!w8 || $3 + 0 < w8) w8 = $3 + 0 }
END {
	if (!w1 || !w8) { print "scaling gate: missing benchmark output" > "/dev/stderr"; exit 1 }
	ratio = w8 / w1
	printf "scaling gate: workers=1 min %.0f ns/op, workers=8 min %.0f ns/op, ratio %.2f (budget %.2f)\n", w1, w8, ratio, budget
	if (ratio > budget) {
		printf "FAIL: workers=8 is %.2fx slower than workers=1 — negative worker scaling\n", ratio > "/dev/stderr"
		exit 1
	}
}
' "$RAW_SCALE"

echo "== POR executions-reduction gate (reduce=on vs dedup-only, min of $SCALE_COUNT) =="
# The reducer's reason to exist is fewer replays for the same verdict: on
# the figure2 f=1, n=4 covering sweep (unbounded faults on the first
# object) the reduce=on row must finish the complete verification in at
# least 3x fewer executions than the dedup-only baseline. Both counts are
# exactly reproducible (single worker, complete sweep) — the min of
# SCALE_COUNT runs only defends against a benchmark harness mishap, not
# noise. The equivalence gate above already proved the verdicts and
# counterexamples identical; this gate pins the measured win.
go test -run '^$' -bench 'BenchmarkEngineReduceSweep' \
	-benchtime 1x -count "$SCALE_COUNT" ./internal/explore/ | tee "$RAW_REDUCE"
awk '
$1 ~ /\/reduce=off(-[0-9]+)?$/ { for (i = 3; i < NF; i++) if ($(i + 1) == "executions") { v = $i + 0; if (!off || v < off) off = v } }
$1 ~ /\/reduce=on(-[0-9]+)?$/  { for (i = 3; i < NF; i++) if ($(i + 1) == "executions") { v = $i + 0; if (!on  || v < on)  on  = v } }
END {
	if (!off || !on) { print "POR gate: missing benchmark output" > "/dev/stderr"; exit 1 }
	factor = off / on
	printf "POR gate: dedup-only %.0f executions, reduce=on %.0f executions, reduction %.2fx (floor 3.00x)\n", off, on, factor
	if (factor < 3) {
		printf "FAIL: reduction only cuts executions %.2fx over dedup alone (floor 3x)\n", factor > "/dev/stderr"
		exit 1
	}
}
' "$RAW_REDUCE"

echo "== POR wall-clock gate (reduce=on no slower than dedup-only, min of $SCALE_COUNT) =="
# Fewer executions are not a result until the wall clock agrees: pruned
# replays are work too. On the same benchmark rows as the executions gate,
# the reduce=on minimum ns/op must not exceed the dedup-only minimum.
awk '
$1 ~ /\/reduce=off(-[0-9]+)?$/ { v = $3 + 0; if (!off || v < off) off = v }
$1 ~ /\/reduce=on(-[0-9]+)?$/  { v = $3 + 0; if (!on  || v < on)  on  = v }
END {
	if (!off || !on) { print "POR wall-clock gate: missing benchmark output" > "/dev/stderr"; exit 1 }
	printf "POR wall-clock gate: dedup-only min %.0f ns/op, reduce=on min %.0f ns/op\n", off, on
	if (on > off) {
		printf "FAIL: reduce=on (%.0f ns/op) is slower than dedup alone (%.0f ns/op)\n", on, off > "/dev/stderr"
		exit 1
	}
}
' "$RAW_REDUCE"

echo "OK"
