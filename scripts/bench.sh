#!/bin/sh
# bench.sh runs the benchmarks whose numbers nothing else produces and
# writes them to BENCH_*.json at the repository root: req/s for the UDP
# storm in each serving preset and the sharded-vs-sequential ratio
# (BENCH_wizard.json), the status-epoch wire bytes and allocations of
# full snapshots versus deltas and the probe-report codec's ns per float
# against strconv's (BENCH_transport.json), selection and
# snapshot-rebuild cost at 10k to 1M hosts (BENCH_select.json), and the
# overload plane's goodput and tail sojourn under a 4x storm
# (BENCH_overload.json). Per-component costs on the 11-host rig are
# benchmark/'s per-layer probes; EXPERIMENTS.md "Number → command"
# names the one producer of every quoted figure. bench_schema.py guards
# these files' shape and acceptance bounds.
#
# Usage: scripts/bench.sh [benchtime]   (default 2s; use 1x for smoke)
set -eu

cd "$(dirname "$0")/.."

benchtime="${1:-2s}"
out=$(mktemp)
trap 'rm -f "$out"' EXIT

echo "== go test -bench WizardStorm (benchtime=$benchtime, count=3) =="
# count=3 with best-of-three selection: the UDP storm rows ride the
# scheduler of a shared runner, and the speedup gate below compares
# two of them, so a single noisy run must not trip the schema bound.
go test -run=NONE -bench='WizardStorm' \
	-benchtime="$benchtime" -count=3 ./internal/wizard/ | tee "$out"

python3 - "$out" <<'EOF'
import json, re, sys

rows = {}
for line in open(sys.argv[1]):
    m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$', line)
    if not m:
        continue
    name, _, ns, rest = m.groups()
    row = {"ns_per_op": float(ns)}
    for val in re.findall(r'([\d.]+)\s+req/s', rest):
        row["qps"] = float(val)
    name = name.removeprefix("Benchmark")
    # Best of the -count repeats: fastest ns/op wins the row.
    if name not in rows or row["ns_per_op"] < rows[name]["ns_per_op"]:
        rows[name] = row

def storm_qps(row):
    return rows.get(f"WizardStorm/{row}", {}).get("qps")

seq, sharded = storm_qps("seq-cached"), storm_qps("shards8-batched")
doc = {
    "benchmarks": rows,
    "speedup": {
        # The datagram-plane gate: windowed clients over 8 SO_REUSEPORT
        # shards with batched syscalls must beat the sequential cached
        # preset with margin. bench_schema.py enforces the bound.
        "storm_sharded_vs_seq": round(sharded / seq, 2) if seq and sharded else None,
    },
}

with open("BENCH_wizard.json", "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print("wrote BENCH_wizard.json")
EOF

echo "== go test -bench TransportEpoch (benchtime=$benchtime) =="
go test -run=NONE -bench='TransportEpoch' \
	-benchtime="$benchtime" ./internal/transport/ | tee "$out"

python3 - "$out" <<'EOF'
import json, re, sys

rows = {}
for line in open(sys.argv[1]):
    m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$', line)
    if not m:
        continue
    name, _, ns, rest = m.groups()
    row = {"ns_per_op": float(ns)}
    for val, unit in re.findall(r'([\d.]+)\s+(B/op|allocs/op|bytes/epoch)', rest):
        key = {"B/op": "bytes_per_op", "allocs/op": "allocs_per_op",
               "bytes/epoch": "bytes_per_epoch"}[unit]
        row[key] = float(val)
    rows[name.removeprefix("Benchmark")] = row

def ratio(full, lean, field):
    f = rows.get(f"TransportEpoch/{full}", {}).get(field)
    l = rows.get(f"TransportEpoch/{lean}", {}).get(field)
    if f is None or l is None:
        return None
    # An idle delta stream rounds to zero once the periodic resync is
    # amortised away; clamp so the ratio stays finite.
    return round(f / max(l, 1.0), 1)

doc = {
    "benchmarks": rows,
    # One centralized status epoch for a 1000-host fleet, end to end
    # (encode, wire, receiver apply). full = thesis protocol; idle =
    # no probe reports between epochs; refresh = every probe
    # re-reports identical content. The idle/refresh reductions are
    # the PR's acceptance numbers: both must stay >= 10x.
    "reduction": {
        "bytes_idle_vs_full": ratio("full-1000h", "delta-idle-1000h", "bytes_per_epoch"),
        "bytes_refresh_vs_full": ratio("full-1000h", "delta-refresh-1000h", "bytes_per_epoch"),
        "allocs_idle_vs_full": ratio("full-1000h", "delta-idle-1000h", "allocs_per_op"),
        "allocs_refresh_vs_full": ratio("full-1000h", "delta-refresh-1000h", "allocs_per_op"),
    },
}

with open("BENCH_transport.json", "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print("wrote BENCH_transport.json")
EOF

echo "== go test -bench ReportCodec (benchtime=$benchtime, count=3, cpu=1) =="
# The probe-report codec (status.AppendReport, DecodeReportInto) in ns per
# float. Each row also times strconv alone on the same reports, a pass
# at a time right after the codec's (strconv-ns/float), so both sides of
# a run's ratio see one host speed; the ratio kept is the median of the
# three runs, the rows are best-of-three like the wizard block. Adds a
# codec section to BENCH_transport.json, the status-wire file: run it
# after the TransportEpoch block, which rewrites that file.
go test -run=NONE -bench='ReportCodec' \
	-benchtime="$benchtime" -count=3 -cpu=1 ./internal/status/ | tee "$out"

python3 - "$out" <<'EOF'
import json, re, statistics, sys

rows, ratios = {}, {}
for line in open(sys.argv[1]):
    m = re.match(r'^BenchmarkReportCodec/(\w+)/(\w+)(?:-\d+)?\s.*?([\d.]+) ns/float.*?([\d.]+) strconv-ns/float', line)
    if not m:
        continue
    way, shape, ours, base = m.group(1), m.group(2), float(m.group(3)), float(m.group(4))
    for name, ns in ((f"{way}/{shape}", ours), (f"strconv-{way}/{shape}", base)):
        rows[name] = min(ns, rows.get(name, ns))
    ratios.setdefault(f"{way}_{shape}", []).append(ours / base)

with open("BENCH_transport.json") as f:
    doc = json.load(f)
doc["codec"] = {
    "ns_per_float": rows,
    # The codec's time over strconv's (AppendFloat/AppendUint into a
    # reused buffer; IndexByte plus ParseFloat/ParseUint): bench_schema.py
    # gates the short shapes (4dp, fleet) and holds the /proc shapes,
    # strconv's fallback rows, to strconv's cost.
    "vs_strconv": {k: round(statistics.median(v), 3) for k, v in ratios.items()},
}
with open("BENCH_transport.json", "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print("added the codec section to BENCH_transport.json")
EOF

echo "== go test -bench SelectScale, SysViewRebuild (benchtime=$benchtime, count=3) =="
# count=3 with best-of-three, like the wizard block: the gated ratios
# compare two rows of ~3ms at 100k, and a single noisy run can move
# either by tens of percent on a shared runner.
go test -run=NONE -bench='SelectScale|SysViewRebuild' \
	-benchtime="$benchtime" -count=3 -timeout=45m ./internal/core/ ./internal/store/ | tee "$out"

python3 - "$out" <<'EOF'
import json, re, sys

rows = {}
for line in open(sys.argv[1]):
    m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$', line)
    if not m:
        continue
    name, _, ns, rest = m.groups()
    row = {"ns_per_op": float(ns)}
    for val, unit in re.findall(r'([\d.]+)\s+(B/op|allocs/op|evals/op)', rest):
        key = {"B/op": "bytes_per_op", "allocs/op": "allocs_per_op",
               "evals/op": "evals_per_op"}[unit]
        row[key] = float(val)
    name = name.removeprefix("Benchmark")
    if name not in rows or row["ns_per_op"] < rows[name]["ns_per_op"]:
        rows[name] = row

def ratio(num, den, field, digits=1):
    n = rows.get(f"SelectScale/{num}", {}).get(field)
    d = rows.get(f"SelectScale/{den}", {}).get(field)
    if n is None or d is None:
        return None
    return round(n / max(d, 1e-9), digits)

# The 100k rows of the parent commit (AST walker, one record per
# evaluation), best of three, taken from its test binary in the same
# session as this file's rows: the host's speed drifts by tens of
# percent within an hour, so an older "before" would gate the drift.
before_batched_eval = {
    "SelectScale/100k/selective/scan": {"ns_per_op": 9408013.0, "evals_per_op": 100000.0, "bytes_per_op": 320.0, "allocs_per_op": 9.0},
    "SelectScale/100k/selective/plan": {"ns_per_op": 69956.0, "evals_per_op": 522.0, "bytes_per_op": 13888.0, "allocs_per_op": 10.0},
    "SelectScale/100k/broad/scan": {"ns_per_op": 7716598.0, "evals_per_op": 100000.0, "bytes_per_op": 320.0, "allocs_per_op": 9.0},
    "SelectScale/100k/broad/plan": {"ns_per_op": 5447191.0, "evals_per_op": 80197.0, "bytes_per_op": 13888.0, "allocs_per_op": 10.0},
    "SelectScale/100k/unindexable/scan": {"ns_per_op": 7584125.0, "evals_per_op": 100000.0, "bytes_per_op": 320.0, "allocs_per_op": 9.0},
    "SelectScale/100k/unindexable/plan": {"ns_per_op": 7704152.0, "evals_per_op": 100000.0, "bytes_per_op": 320.0, "allocs_per_op": 9.0},
}

# The host-list rows of the parent commit (host lists matched as
# strings per qualifier), best of three, from its test binary run
# alternately with this file's on the same host. aliased is a fleet of
# "Fleet-0000007:9000"-style names with one join per selection: the
# case resolving lists to positions cannot speed up, so its ratio
# reports what resolution costs there.
before_resolved_hosts = {
    "SelectScale/100k/denied/plan": {"ns_per_op": 11670044.0, "evals_per_op": 80197.0, "bytes_per_op": 371.0, "allocs_per_op": 9.0},
    "SelectScale/100k/aliased/plan": {"ns_per_op": 44828519.0, "evals_per_op": 80232.0, "bytes_per_op": 23818492.0, "allocs_per_op": 2867.0},
}

def vs_before(name, before=before_batched_eval):
    now = rows.get(name, {}).get("ns_per_op")
    return round(before[name]["ns_per_op"] / now, 2) if now else None

doc = {
    "benchmarks": rows,
    # One Select against a host table loaded at fleet scale; scan =
    # planner disabled (thesis full-table behaviour), plan = indexed
    # selection planner; both feed the selector's one evaluation loop.
    # The selective-at-100k ratios are the planner's acceptance
    # numbers: record evaluations must fall >= 100x and ns/op >= 10x.
    # The unindexable overheads compare a code path with itself (the
    # planner declines, the walk serves it) and are recorded, not
    # gated. The broad rows are the planner's "no" and the bounded
    # top-n's: declining the index for the column filter, the planner
    # beats the walk at 100k (ratio <= 0.9) and may not lose to it at
    # 1M (<= 1.0), and a broad selection allocates for its n winners, not for its qualifiers (<= 200
    # allocs at 100k hosts). The denied ratio is what one
    # user_denied_host line costs a broad planned selection: gated at
    # <= 1.3, since the list is resolved to snapshot positions once per
    # selection. The *_vs_before rows are the batch
    # evaluator's: the walk of every record must cost at most two
    # thirds of what it did one record at a time (ratio >= 1.5). The
    # denied and aliased *_vs_before rows compare the list rows with
    # the string matcher's, recorded, not gated: a fixed "before"
    # would gate the host's drift.
    "reduction": {
        "evals_selective_100k_vs_scan": ratio("100k/selective/scan", "100k/selective/plan", "evals_per_op"),
        "ns_selective_100k_vs_scan": ratio("100k/selective/scan", "100k/selective/plan", "ns_per_op"),
        "unindexable_ns_overhead_100k": ratio("100k/unindexable/plan", "100k/unindexable/scan", "ns_per_op", digits=3),
        "unindexable_ns_overhead_10k": ratio("10k/unindexable/plan", "10k/unindexable/scan", "ns_per_op", digits=3),
        "ns_broad_100k_plan_vs_scan": ratio("100k/broad/plan", "100k/broad/scan", "ns_per_op", digits=3),
        "ns_broad_1m_plan_vs_scan": ratio("1m/broad/plan", "1m/broad/scan", "ns_per_op", digits=3),
        "ns_denied_100k_plan_vs_broad": ratio("100k/denied/plan", "100k/broad/plan", "ns_per_op", digits=3),
        "allocs_broad_100k_plan": rows.get("SelectScale/100k/broad/plan", {}).get("allocs_per_op"),
        "sysview_rebuild_bytes_100k_one_put": rows.get("SysViewRebuild/hosts=100000", {}).get("bytes_per_op"),
        "ns_broad_100k_scan_vs_before": vs_before("SelectScale/100k/broad/scan"),
        "ns_unindexable_100k_scan_vs_before": vs_before("SelectScale/100k/unindexable/scan"),
        "ns_denied_100k_plan_vs_before": vs_before("SelectScale/100k/denied/plan", before_resolved_hosts),
        "ns_aliased_100k_plan_vs_before": vs_before("SelectScale/100k/aliased/plan", before_resolved_hosts),
    },
    "before_batched_eval": before_batched_eval,
    "before_resolved_hosts": before_resolved_hosts,
    # SysViewRebuild is what a request pays for the report that landed
    # before it (one PutSys of a known host, then SysView): the paged
    # snapshot copies the host's page and the page table, so at 100k
    # hosts it must stay under 1 MB where the flat copy took 23 MB.
    "before_paged_snapshot": {
        # Measured at the parent commit (flat []SysRecord snapshot,
        # copied whole per rebuild) with this same benchmark.
        "SysViewRebuild/hosts=20000": {"ns_per_op": 2432428.0, "bytes_per_op": 4645070.0, "allocs_per_op": 6.0},
        "SysViewRebuild/hosts=100000": {"ns_per_op": 14145631.0, "bytes_per_op": 23208149.0, "allocs_per_op": 6.0},
    },
}

with open("BENCH_select.json", "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print("wrote BENCH_select.json")
EOF

echo "== go test -bench OverloadStorm (benchtime=$benchtime, count=3) =="
# count=3 with best-of-three: the storm rows are paced off a live
# capacity measurement on a shared runner; the protection gates below
# (goodput >= 70% of capacity, p99 sojourn <= 4x the CoDel target)
# must not trip on one noisy run. Best-of is the highest goodput (or
# req/s for the capacity row), not the lowest ns/op — ns/op for a
# paced open-loop row is just the injection schedule.
go test -run=NONE -bench='OverloadStorm' \
	-benchtime="$benchtime" -count=3 ./internal/wizard/ | tee "$out"

python3 - "$out" <<'EOF'
import json, re, sys

rows = {}
for line in open(sys.argv[1]):
    m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$', line)
    if not m:
        continue
    name, _, ns, rest = m.groups()
    row = {"ns_per_op": float(ns)}
    for val, unit in re.findall(r'([\d.]+)\s+(req/s|goodput/s|p99_ms|shed_frac)', rest):
        key = {"req/s": "qps", "goodput/s": "goodput_qps",
               "p99_ms": "p99_ms", "shed_frac": "shed_frac"}[unit]
        row[key] = float(val)
    name = name.removeprefix("Benchmark")
    score = row.get("goodput_qps", row.get("qps", -row["ns_per_op"]))
    prev = rows.get(name)
    if prev is None or score > prev.get("goodput_qps", prev.get("qps", -prev["ns_per_op"])):
        rows[name] = row

CODEL_TARGET_MS = 5.0  # overload.DefaultTarget

cap = rows.get("OverloadStorm/capacity", {}).get("qps")
shed = rows.get("OverloadStorm/shed-4x", {})
bare = rows.get("OverloadStorm/bare-4x", {})

def ratio(num, den, digits=2):
    if num is None or not den:
        return None
    return round(num / den, digits)

doc = {
    "benchmarks": rows,
    # The overload acceptance gates (bench_schema.py enforces the
    # bounds): under a 4x storm the protected plane must keep goodput
    # at >= 70% of closed-loop capacity with the p99 sojourn of served
    # requests within 4x the CoDel target; the bare ratio records the
    # collapse the plane is measured against.
    "protection": {
        "codel_target_ms": CODEL_TARGET_MS,
        "goodput_vs_capacity_4x": ratio(shed.get("goodput_qps"), cap),
        "p99_queue_delay_vs_target_4x": ratio(shed.get("p99_ms"), CODEL_TARGET_MS),
        "bare_goodput_vs_capacity_4x": ratio(bare.get("goodput_qps"), cap),
    },
}

with open("BENCH_overload.json", "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print("wrote BENCH_overload.json")
EOF

echo "== obs debug-endpoint smoke =="
python3 scripts/obs_smoke.py

python3 scripts/bench_schema.py BENCH_wizard.json BENCH_transport.json BENCH_select.json BENCH_overload.json BENCH_obs.json
