#!/bin/sh
# check.sh runs the full correctness gate: formatting, go vet, build,
# race-enabled tests, a fuzz smoke of the batch evaluator, the benchmark
# module, the committed size numbers, the chaos-test naming and
# benchmark-consumer checks (test files, scripts, workflows and docs,
# which the analyzers do not load), and the project's static analyzers
# (cmd/smartlint). Every rule over Go source is one of those analyzers:
# `go run ./cmd/smartlint -list` names them. CI runs exactly this
# script; run it locally before sending a change.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race -short -shuffle=on =="
# -short skips the multi-process integration tests and the chaos
# end-to-end tests; CI runs those in a dedicated job with a pinned
# CHAOS_SEED (and they remain part of plain `go test ./...`).
# -shuffle=on randomises test order within each package so hidden
# order dependencies surface here, not in a midnight CI run; the
# shuffle seed is printed at the top of each package's output, and
# `-shuffle=<seed>` replays a failing order exactly.
go test -race -short -shuffle=on ./...

echo "== fuzz smoke: FuzzBatchEval, 10s =="
# The batch evaluator against the map reference, lane by lane, on
# whatever source text and lane bindings the fuzzer finds.
go test -run='^$' -fuzz='^FuzzBatchEval$' -fuzztime=10s ./internal/reqlang/

echo "== benchmark module: go vet, go test =="
# benchmark/ is a module of its own that imports smartsock/internal/...
# through a replace directive, so `./...` above never compiles it: an
# internal API change that breaks it must fail here, not in the perf
# pipeline.
(cd benchmark && go vet . && go test .)

echo "== size: BENCH_size.json is current =="
# Non-test Go lines per package and flags per daemon are committed
# numbers (ROADMAP aim 2); a change that moves them commits the new
# file, so the move is in the diff.
size=$(mktemp)
trap 'rm -f "$size"' EXIT
sh scripts/size.sh "$size" >/dev/null
if ! diff -u BENCH_size.json "$size"; then
	echo "BENCH_size.json is stale: run scripts/size.sh and commit it" >&2
	exit 1
fi
python3 scripts/bench_schema.py BENCH_size.json

echo "== chaos test naming =="
# CI's chaos job selects with `go test -run Chaos`; -run matches by
# unanchored substring, so a chaos test named TestFooBar is silently
# never run there. Every test in internal/chaos must carry the
# TestChaos prefix.
misnamed=$(grep -Hn '^func Test' internal/chaos/*_test.go | grep -v ':func TestChaos' || true)
if [ -n "$misnamed" ]; then
	echo "chaos tests missing the TestChaos prefix (CI's -run Chaos would skip them):" >&2
	echo "$misnamed" >&2
	exit 1
fi

echo "== every benchmark has a consumer =="
# A Benchmark function nothing runs and no document cites is a second
# producer waiting to disagree with the first (EXPERIMENTS.md "Number →
# command"). Outside benchmark/, each one is either a one-line
# benchExperiment wrapper of a thesis table, named in a -bench pattern
# of scripts/bench.sh or a workflow, or cited by DESIGN.md.
orphans=$(find . -name '*_test.go' ! -path './benchmark/*' -exec grep -hE '^func Benchmark' {} + |
	grep -vE '\{ benchExperiment\(b, "[^"]+"\) \}$' |
	sed -E 's/^func Benchmark([A-Za-z0-9_]+)\(.*/\1/' |
	while read -r name; do
		grep -qw "$name" scripts/bench.sh .github/workflows/*.yml ||
			grep -qw "Benchmark$name" DESIGN.md ||
			echo "Benchmark$name"
	done)
if [ -n "$orphans" ]; then
	echo "benchmarks that no script runs and DESIGN.md does not cite (delete them, or give them a consumer):" >&2
	echo "$orphans" >&2
	exit 1
fi

echo "== smartlint =="
# -stats prints per-analyzer finding counts. There is no baseline: any
# finding fails.
go run ./cmd/smartlint -stats ./...

echo "All checks passed."
