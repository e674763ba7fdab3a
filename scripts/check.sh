#!/bin/sh
# check.sh runs the full correctness gate: formatting, go vet, build,
# race-enabled tests, a fuzz smoke of the batch evaluator, the committed
# size numbers, the naming, one-evaluator, one-applier, columns-not-rows,
# pages-by-ID, page-level-merges-by-tree, one-wizard-socket,
# the-wizard-holds-no-mutex, report-float, resolved-host-lists,
# selections-pin-their-snapshot, the-index-catches-up-only-through-its-
# cost-rule, one-operator-table, one-comparison-type,
# the-thesis-preset-is-the-wire-and-admission and benchmark-consumer
# guards, and the project's own
# static analyzers (cmd/smartlint). CI runs exactly this script; run it locally before
# sending a change.
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

echo "== constructor pairs =="
# A registry-taking constructor accepts a nil registry, so a NewX beside
# a NewXObs is a second name for one job. reqlang.NewCache is the one
# pair allowed: benchmark/ compiles against both names.
pairs=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec grep -HoE '^func New[A-Za-z0-9]*Obs\(' {} + |
	while IFS=: read -r file fn; do
		name=${fn#func }
		name=${name%Obs\(}
		grep -HnE "^func $name\(" "$(dirname "$file")"/*.go | grep -v '_test\.go:' || true
	done | grep -v '^\./internal/reqlang/cache\.go:.*func NewCache(' || true)
if [ -n "$pairs" ]; then
	echo "constructors that duplicate a registry-taking New...Obs (delete them; pass a nil registry):" >&2
	echo "$pairs" >&2
	exit 1
fi

echo "== one evaluator =="
# The requirement is compiled to flat code at Parse and one interpreter
# runs it; a function from an AST node to (a value, error) is the
# recursive walker coming back beside it (mapeval_test.go keeps the
# reference one, in a test file).
walker=$(grep -nE '^func .*\([a-z]+ node\) \([A-Za-z0-9]+, error\)' internal/reqlang/*.go | grep -v '_test\.go:' || true)
if [ -n "$walker" ]; then
	echo "internal/reqlang evaluates over the AST again (compile it; Run is the evaluator):" >&2
	echo "$walker" >&2
	exit 1
fi

echo "== one applier =="
# An epoch — pushed or pulled — reaches the mirror through applyEpoch
# (applyDeltas under it), and the thesis pull's union through PullFrom;
# a write to the mirror anywhere else in the transport is a second
# admit/apply policy coming back beside the first.
appliers=$(awk '
	/^func / { fn = $0 }
	/r\.db\.(Load|Merge|Apply[A-Za-z]*Delta)\(/ && fn !~ /^func \(r \*Receiver\) (applyEpoch|applyDeltas|PullFrom)\(/ { print FILENAME ":" FNR ": " $0 }
' $(ls internal/transport/*.go | grep -v '_test\.go$'))
if [ -n "$appliers" ]; then
	echo "internal/transport writes the mirror outside applyEpoch, applyDeltas and PullFrom:" >&2
	echo "$appliers" >&2
	exit 1
fi

echo "== columns, not rows =="
# Selection binds and filters a snapshot page's columns (SysPage.Column);
# a VarAt call in the selector is the per-record row read coming back
# beside them.
rowreads=$(grep -n 'VarAt(' $(ls internal/core/*.go | grep -v '_test\.go$') || true)
if [ -n "$rowreads" ]; then
	echo "internal/core reads status variables record by record (gather the page's column):" >&2
	echo "$rowreads" >&2
	exit 1
fi

echo "== pages by ID, not by pointer =="
# The selection memo remembers a snapshot page by the ID the page table
# holds for it (SysSnapshot.Page); a *store.SysPage field in a core
# struct is a memo pinning stale snapshots for as long as nobody asks
# its question again.
pinned=$(awk '
	/^type [A-Za-z0-9_]+ struct/ { body = 1 }
	body && /\*store\.SysPage([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }
	body && (/^}/ || /^type .*}$/) { body = 0 }
' $(ls internal/core/*.go | grep -v '_test\.go$'))
if [ -n "$pinned" ]; then
	echo "internal/core holds snapshot pages in a struct (remember the page's ID instead):" >&2
	echo "$pinned" >&2
	exit 1
fi

echo "== the page level merges by tree =="
# A repeat merges the pages its question's page level holds through the
# tree's nodes (memoEntry.remerge), so its cost follows the pages that
# changed. A stored leaf list ranged over inside evaluate is the linear
# merge of every page's list coming back.
linear=$(awk '
	/^func / { fn = $0 }
	/range[[:space:]]+memo\.pages\[[^]]*\]\.top/ && fn ~ /^func \(s \*Selector\) evaluate\(/ { print FILENAME ":" FNR ": " $0 }
' $(ls internal/core/*.go | grep -v '_test\.go$'))
if [ -n "$linear" ]; then
	echo "internal/core evaluate offers stored page lists to the reply (merge them through the tree):" >&2
	echo "$linear" >&2
	exit 1
fi

echo "== one wizard socket per Client =="
# A Client keeps its wizard socket between exchanges: take hands out the
# kept one or dials, keep puts it back. A c.dial("udp", ...) anywhere
# else is the per-request socket coming back beside the kept one.
udpdials=$(awk '
	/^func / { fn = $0 }
	/c\.dial\("udp"/ && fn !~ /^func \(c \*Client\) take\(/ { print FILENAME ":" FNR ": " $0 }
' smartsock.go)
if [ -n "$udpdials" ]; then
	echo "smartsock.go dials the wizard outside take (take the kept socket instead):" >&2
	echo "$udpdials" >&2
	exit 1
fi

echo "== the wizard holds no mutex =="
# Every answered request runs through the Wizard's methods on whichever
# drain loop popped it; a mutex field in the Wizard is a lock each answer
# may take, serialising the drain loops across Ps. Per-request state
# lives in the loop's scratch, counters in the obs registry.
wizmu=$(awk '
	/^type Wizard struct/ { body = 1 }
	body && /sync\.(RW)?Mutex([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }
	body && /^}/ { body = 0 }
' internal/wizard/wizard.go)
if [ -n "$wizmu" ]; then
	echo "internal/wizard/wizard.go gives the Wizard a mutex (keep per-request state off shared locks):" >&2
	echo "$wizmu" >&2
	exit 1
fi

echo "== report floats through one path =="
# A probe report's numbers are written by appendReportFloat and read by
# reportScanner.float, each falling back to strconv for what its exact
# short-decimal path declines. A strconv.AppendFloat or ParseFloat
# anywhere else in status.go is a second report-number path whose bytes
# nothing holds to the first.
floatpaths=$(awk '
	/^func / { fn = $0 }
	/^[ \t]*\/\// { next }
	/strconv\.(AppendFloat|ParseFloat)\(/ && fn !~ /^func (appendReportFloat\(|\(sc \*reportScanner\) float\()/ { print FILENAME ":" FNR ": " $0 }
' internal/status/status.go)
if [ -n "$floatpaths" ]; then
	echo "internal/status/status.go converts report floats outside appendReportFloat and reportScanner.float:" >&2
	echo "$floatpaths" >&2
	exit 1
fi

echo "== host lists are resolved, not matched per lane =="
# A selection resolves the user's denied and preferred lists to snapshot
# positions once, in internal/core/hosts.go, so a lane's list test is a
# lookup of its position. A matchHost or Env.Hosts call in the package,
# or a splitHost call outside hosts.go, is the per-lane string matcher
# coming back beside the resolved sets.
hostmatch=$(awk '
	/^[ \t]*\/\// { next }
	/matchHost\(|\.Hosts\(/ || (/splitHost\(/ && FILENAME !~ /\/hosts\.go$/) { print FILENAME ":" FNR ": " $0 }
' $(ls internal/core/*.go | grep -v '_test\.go$'))
if [ -n "$hostmatch" ]; then
	echo "internal/core matches host names outside the resolver (resolve the lists in hosts.go, test positions):" >&2
	echo "$hostmatch" >&2
	exit 1
fi

echo "== selections pin their snapshot =="
# A selection pins the snapshot it reads (store.DB.PinSys) and releases
# it with a deferred Unpin, so the rebuild after the next write may write
# that snapshot in place. A SysView call in the package lends a snapshot
# for good, and a pin with no deferred Unpin in its function is never
# released: either silently switches the reuse off, and every write
# copies a page again.
pins=$(awk '
	function flush() { if (pin != "" && !unpinned) print pin " (no deferred Unpin in its function)"; pin = ""; unpinned = 0 }
	FNR == 1 || /^func / { flush() }
	/^[ \t]*\/\// { next }
	/SysView\(/ { print FILENAME ":" FNR ": " $0 }
	/PinSys\(/ { pin = FILENAME ":" FNR ": " $0 }
	/defer[ \t]+[A-Za-z0-9_.]+\.Unpin\(\)/ { unpinned = 1 }
	END { flush() }
' $(ls internal/core/*.go | grep -v '_test\.go$'))
if [ -n "$pins" ]; then
	echo "internal/core reads a snapshot it does not pin and release (PinSys, then defer Unpin):" >&2
	echo "$pins" >&2
	exit 1
fi

echo "== the index catches up only through its cost rule =="
# A selection brings the index in step (index.Set.SyncFor) and reads it
# (Positions) only where the catch-up rule (Outrun) has let it. Either
# call in a function that does not ask the rule is a catch-up paid
# whatever the writes since the last one cost.
catchups=$(awk '
	function flush() { if (call != "" && !ruled) print call " (no Outrun in its function)"; call = ""; ruled = 0 }
	FNR == 1 || /^func / { flush() }
	/^[ \t]*\/\// { next }
	/(SyncFor|Positions)\(/ && call == "" { call = FILENAME ":" FNR ": " $0 }
	/\.Outrun\(/ { ruled = 1 }
	END { flush() }
' $(ls internal/core/*.go | grep -v '_test\.go$'))
if [ -n "$catchups" ]; then
	echo "internal/core catches the index up outside its cost rule (ask index.Set.Outrun first):" >&2
	echo "$catchups" >&2
	exit 1
fi

echo "== one operator table =="
# The requirement language spells and ranks its operators in one table
# (internal/reqlang/lexer.go: operators), which the scanner, the
# precedence climb, isLogical and the token names read. A map keyed by
# token kind is a second copy of that table, and a strings.Builder in
# the scanner is token text copied instead of sliced from the source.
optable=$( (grep -Hn 'map\[tokenKind\]' $(ls internal/reqlang/*.go | grep -v '_test\.go$') || true
	grep -Hn 'strings\.Builder' internal/reqlang/lexer.go || true) | grep -vE ':[0-9]+:[[:space:]]*//' || true)
if [ -n "$optable" ]; then
	echo "internal/reqlang keeps operators outside the operators table, or copies token text:" >&2
	echo "$optable" >&2
	exit 1
fi

echo "== one comparison type =="
# An extracted constraint is a reqlang.Constraint from the planner to
# the index: the index answers it and the column filter applies it as
# it is. An Op or Constraint type in internal/index, or a core function
# taking a reqlang.CmpOp, is the second enumeration and its converter
# coming back.
cmptypes=$( (grep -HnE '^type (Op|Constraint) ' $(ls internal/index/*.go | grep -v '_test\.go$') || true
	grep -HnE '^func .*reqlang\.CmpOp[,)]' $(ls internal/core/*.go | grep -v '_test\.go$') || true) )
if [ -n "$cmptypes" ]; then
	echo "a second comparison type or a converter to one (use reqlang.Constraint and reqlang.CmpOp):" >&2
	echo "$cmptypes" >&2
	exit 1
fi

echo "== the thesis preset is the wire and admission =="
# A -compat preset fixes what a thesis peer can observe and nothing else:
# the status wire (recv.Compat, tx.Compat) and, in wizardd, pass-through
# admission. Any other statement in wizardd's if *compat { block, or an
# if *compat block in sysmond, is a serving setting no peer can see
# coming back into the preset.
preset=$( (awk '
	/^[ \t]*if \*compat \{/ { body = 1; next }
	body && /^[ \t]*\}/ { body = 0; next }
	body && (/^[ \t]*\/\// || /^[ \t]*$/) { next }
	body {
		ok = 0
		if ($0 ~ /^[^=:!<>]+=[^=]/) {
			lhs = $0; sub(/=.*/, "", lhs); gsub(/[ \t]/, "", lhs)
			n = split(lhs, v, ","); ok = 1
			for (i = 1; i <= n; i++) if (v[i] != "*maxQueue" && v[i] != "*rateLimit") ok = 0
		}
		if (!ok) print FILENAME ":" FNR ": " $0
	}
' cmd/wizardd/main.go
	grep -Hn 'if \*compat' cmd/sysmond/main.go || true) )
if [ -n "$preset" ]; then
	echo "a -compat preset sets more than the thesis wire and admission (serving settings are invisible to a peer):" >&2
	echo "$preset" >&2
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
