#!/usr/bin/env python3
"""Assert the committed BENCH_*.json files keep their schema.

bench.sh regenerates these files; CI and downstream docs
(EXPERIMENTS.md) read them by key. A bench rename or a parser
regression silently dropping a metric would otherwise go unnoticed
until someone quotes a number that no longer exists, so this script
fails loudly when a required key or metric is missing.

Usage: scripts/bench_schema.py [file ...]   (default: every BENCH file)
"""

import json
import sys

# file -> {benchmark key -> required metric fields}, plus required
# top-level sections.
SCHEMAS = {
    "BENCH_wizard.json": {
        "sections": ["benchmarks", "speedup"],
        "benchmarks": {
            "WizardStorm/seq-uncached": ["qps"],
            "WizardStorm/seq-cached": ["qps"],
            "WizardStorm/shards8-batched": ["qps"],
        },
        # Datagram-plane acceptance bound (best-of-three runs, see
        # bench.sh): the windowed batched/sharded storm must beat the
        # sequential cached preset with margin.
        "ratio_section": "speedup",
        "ratios": [
            "storm_sharded_vs_seq",
        ],
        "ratio_bounds": {
            "storm_sharded_vs_seq": (1.25, None),
        },
    },
    "BENCH_transport.json": {
        "sections": ["benchmarks", "reduction", "codec"],
        "benchmarks": {
            "TransportEpoch/full-1000h": ["ns_per_op", "bytes_per_epoch", "allocs_per_op"],
            "TransportEpoch/delta-idle-1000h": ["ns_per_op", "bytes_per_epoch", "allocs_per_op"],
            "TransportEpoch/delta-refresh-1000h": ["ns_per_op", "bytes_per_epoch", "allocs_per_op"],
            "TransportEpoch/delta-1pct-1000h": ["ns_per_op", "bytes_per_epoch", "allocs_per_op"],
        },
        "reduction": [
            "bytes_idle_vs_full",
            "bytes_refresh_vs_full",
            "allocs_idle_vs_full",
            "allocs_refresh_vs_full",
        ],
        # The probe-report codec (bench.sh's ReportCodec block): its ns
        # per float over strconv's on the same reports in the same run.
        # The short shapes, which the word-at-a-time digit paths take,
        # must cost at most 0.35 of strconv to encode and 0.5 to decode
        # (the digit-at-a-time codec read 0.41 and 0.59 on 4dp, 0.37 and
        # 0.64 on fleet); the /proc shapes, strconv's fallback, at most
        # 1.10 of it.
        "nested_bounds": {
            ("codec", "vs_strconv"): {
                "encode_4dp": (None, 0.35),
                "decode_4dp": (None, 0.5),
                "encode_fleet": (None, 0.35),
                "decode_fleet": (None, 0.5),
                "encode_procsrc": (None, 1.10),
                "decode_procsrc": (None, 1.10),
                "encode_proc": (None, 1.10),
                "decode_proc": (None, 1.10),
            },
        },
    },
    "BENCH_select.json": {
        "sections": ["benchmarks", "before_paged_snapshot", "before_batched_eval", "before_resolved_hosts", "reduction"],
        "benchmarks": {
            "SelectScale/100k/selective/scan": ["ns_per_op", "evals_per_op"],
            "SelectScale/100k/selective/plan": ["ns_per_op", "evals_per_op"],
            "SelectScale/100k/broad/scan": ["ns_per_op", "evals_per_op"],
            "SelectScale/100k/broad/plan": ["ns_per_op", "evals_per_op", "allocs_per_op"],
            "SelectScale/1m/broad/scan": ["ns_per_op", "evals_per_op"],
            "SelectScale/1m/broad/plan": ["ns_per_op", "evals_per_op"],
            "SelectScale/100k/unindexable/scan": ["ns_per_op"],
            "SelectScale/100k/unindexable/plan": ["ns_per_op"],
            "SelectScale/10k/unindexable/scan": ["ns_per_op"],
            "SelectScale/10k/unindexable/plan": ["ns_per_op"],
            "SelectScale/100k/denied/scan": ["ns_per_op", "evals_per_op"],
            "SelectScale/100k/denied/plan": ["ns_per_op", "evals_per_op"],
            "SelectScale/100k/aliased/scan": ["ns_per_op", "evals_per_op"],
            "SelectScale/100k/aliased/plan": ["ns_per_op", "evals_per_op"],
            "SysViewRebuild/hosts=20000": ["ns_per_op", "bytes_per_op", "allocs_per_op"],
            "SysViewRebuild/hosts=100000": ["ns_per_op", "bytes_per_op", "allocs_per_op"],
        },
        "reduction": [
            "sysview_rebuild_bytes_100k_one_put",
            "evals_selective_100k_vs_scan",
            "ns_selective_100k_vs_scan",
            "unindexable_ns_overhead_100k",
            "unindexable_ns_overhead_10k",
            "ns_broad_100k_plan_vs_scan",
            "ns_broad_1m_plan_vs_scan",
            "ns_denied_100k_plan_vs_broad",
            "allocs_broad_100k_plan",
            "ns_broad_100k_scan_vs_before",
            "ns_unindexable_100k_scan_vs_before",
            "ns_denied_100k_plan_vs_before",
            "ns_aliased_100k_plan_vs_before",
        ],
        # Acceptance bounds, not just shape: the planner must beat the
        # walk of every record by these margins at 100k hosts (the two
        # unindexable overheads are recorded rows, not gates: they
        # compare a code path with itself; so are the denied and aliased
        # rows against the parent's string matcher, since a fixed figure
        # would gate the host's drift); one user_denied_host line may
        # cost the broad plan at most 1.3x, because the list is resolved
        # to snapshot positions once per selection, not matched as
        # strings per qualifier (it cost 3.57x); on a broad
        # requirement the planner declines the index and filters the
        # snapshot's columns, so it beats the walk by 10% at 100k hosts
        # and may not lose to it at 1M (it tied at 100k, 0.981, and lost
        # at 1M, 67 vs 63 ms, before it could decline), and the selection
        # allocates for its n winners, not for its 80 000 qualifiers
        # (it made 80 263 allocations). A snapshot rebuilt after one
        # report copies that host's page and the page table, not the
        # table (the flat snapshot copied 23 MB at 100k hosts). The walk
        # itself, batched a page at a time, must take at most two thirds
        # of the time the one-record-at-a-time walker of the
        # before_batched_eval rows took, indexable requirement or not.
        "reduction_bounds": {
            "sysview_rebuild_bytes_100k_one_put": (None, 1 << 20),
            "evals_selective_100k_vs_scan": (100.0, None),
            "ns_selective_100k_vs_scan": (10.0, None),
            "ns_broad_100k_plan_vs_scan": (None, 0.9),
            "ns_broad_1m_plan_vs_scan": (None, 1.0),
            "allocs_broad_100k_plan": (None, 200),
            "ns_denied_100k_plan_vs_broad": (None, 1.3),
            "ns_broad_100k_scan_vs_before": (1.5, None),
            "ns_unindexable_100k_scan_vs_before": (1.5, None),
        },
    },
    "BENCH_overload.json": {
        "sections": ["benchmarks", "protection"],
        "benchmarks": {
            "OverloadStorm/capacity": ["qps"],
            "OverloadStorm/shed-4x": ["goodput_qps", "p99_ms", "shed_frac"],
            "OverloadStorm/bare-4x": ["goodput_qps", "p99_ms"],
        },
        # Overload acceptance bounds (best-of-three runs, see
        # bench.sh): under a 4x storm the admission plane must keep
        # goodput at >= 70% of closed-loop capacity and hold the p99
        # sojourn of the requests it serves within 4x the CoDel
        # target. bare_goodput_vs_capacity_4x is recorded unbounded —
        # it is the collapse curve the protection is measured against,
        # and a "good" bare number would mean the storm wasn't one.
        "ratio_section": "protection",
        "ratios": [
            "goodput_vs_capacity_4x",
            "p99_queue_delay_vs_target_4x",
            "bare_goodput_vs_capacity_4x",
        ],
        "ratio_bounds": {
            "goodput_vs_capacity_4x": (0.70, None),
            "p99_queue_delay_vs_target_4x": (None, 4.0),
        },
    },
}

# BENCH_obs.json is an obs.Registry snapshot captured by
# scripts/obs_smoke.py off a live wizardd -debug endpoint; its shape
# is the registry's JSON contract rather than a benchmark table.
OBS_SCHEMA = {
    "counters": [
        "wizard_requests",
        "wizard_rejected",
        "wizard_update_failures",
        "reqlang_cache_hits",
        "reqlang_cache_misses",
        "core_selections",
        "core_memo_hits",
        "core_page_hits",
        "core_stale_dropped",
        "core_record_evals",
        "index_plans",
        "index_fallbacks",
        "index_declines",
        "index_rows_pruned",
        "index_residual_evals",
        "index_resyncs",
        "transport_recv_frames",
        "transport_recv_torn",
        "transport_recv_resyncs",
        "transport_recv_unknown_frames",
        "wizard_reply_errors",
        "netbatch_rx_syscalls",
        "netbatch_tx_syscalls",
        "netbatch_fallback",
        "overload_shed",
        "overload_ratelimited",
        "overload_bypass",
    ],
    "gauges": [
        "store_wizard_ver",
        "store_wizard_sys_epoch",
        "store_wizard_sys_records",
        "store_wizard_net_records",
        "store_wizard_sec_records",
    ],
    "histograms": [
        "index_apply_delta",
        "transport_epoch_catchup",
        "wizard_latency_answered",
        "wizard_latency_partial",
        "wizard_latency_stale_dropped",
        "wizard_latency_parse_error",
        "wizard_latency_rejected",
        "wizard_recv_batch",
        "wizard_send_batch",
        "overload_queue_delay",
    ],
}


# BENCH_size.json is scripts/size.sh's output: non-test Go lines per
# package plus the total, and the flag count of each cmd/*/main.go.
# check.sh regenerates it and diffs it against the committed file, so
# the numbers are always current; this holds the shape and the budgets.
SIZE_SCHEMA = {
    "go_lines": ["total", "internal/wizard", "internal/overload", "internal/transport", "internal/reqlang", "internal/core", "internal/experiments", "internal/store", "internal/status"],
    "flags": ["cmd/wizardd", "cmd/sysmond"],
}

# Line budgets (ROADMAP item 9b): the committed sizes of PR 21, lowered
# to PR 23's where it shrank one (status, reqlang; lint and lint/flow
# are new there, at what the oracle audit left of them) and to PR 24's
# (total, transport; monitor is new here, at what its shutdown contract
# left it); core and index are new at PR 25's, which moved total and
# store up for the columnar page and lowered status; the page-level
# selection memo and the page IDs it keys on moved total, core and
# store up again; "." (the client library) is new at the size the kept
# wizard socket left it, and total moved with it; the report codec's
# exact short-decimal path moved status, monitor and total up (status by
# its +180 budget); one float column per register lowered reqlang, "."
# and total; deleting what only tests called (the selected-parameters
# loop, test-only accessors) lowered total, store, status, monitor and
# reqlang, and added probe and wizard at their new sizes; interning host
# names against the store and resolving host lists to snapshot positions
# moved core, store, monitor, status, reqlang, "." and total up (the five
# status and selection packages by +138, over their +90 budget);
# deleting the settings with one value in use lowered total, ".", core
# and wizard, and added overload, netmon and netbatch at their new sizes;
# the index's catch-up rule moved index and total up by its 39 lines
# (inside the +40 budget of ROADMAP item 19); one run loop and one
# accept loop (internal/loop) lowered total, transport, monitor, probe
# and netmon, and added loop at its new size; deleting six extensions
# no binary runs lowered total, wizard, reqlang, status and loop, added
# secmon, taskdiv, shaper, workload and bwest at their new sizes, and
# moved monitor up by the one line that lets a failed ingest loop close
# every shard; one supervisor (loop.Group) lowered total, monitor, wizard
# and bwest, moved loop up by the Group's 53 lines (the monitor, the
# wizard, both daemons and the testbed lost 73), and added testbed at
# its new size; one checker for the architecture rules moved lint and
# total up by 265 lines, the typed rule table that replaces the 283
# lines of awk and grep guards scripts/check.sh lost (shell is not
# counted here; every other ceiling holds); the report codec's
# word-at-a-time digit paths (two 8-digit words per float to write, an
# 8-byte scan per digit run to read) moved status up by 105 lines and
# total by 108 with the 3 of the overload queue's sub-100µs sojourn
# bounds in obs (which has no ceiling of its own); a request round trip
# that allocates only its answer lowered netbatch to 622 (the headers'
# fixed pointers are set once at Wrap, which pays for the two stored
# syscall callbacks) and "." to 708 (slices.Contains for containsAddr,
# which pays for the in-place reply decode), and moved total up by the
# 18 lines the in-place reply decoder and AppendRequest add to proto
# (which has no ceiling of its own) net of those.
# A PR that grows one of these past its ceiling deletes elsewhere in the
# same PR, or moves the ceiling here and says why in its CHANGES.md
# entry; a PR that shrinks one lowers the ceiling to the new size.
SIZE_CEILINGS = {
    "total": 19873,
    ".": 708,
    "internal/core": 1155,
    "internal/index": 611,
    "internal/store": 1162,
    "internal/status": 1349,
    "internal/transport": 1022,
    "internal/monitor": 256,
    "internal/probe": 217,
    "internal/reqlang": 1939,
    "internal/wizard": 632,
    "internal/lint": 1260,
    "internal/lint/flow": 439,
    "internal/overload": 493,
    "internal/netmon": 158,
    "internal/loop": 133,
    "internal/netbatch": 622,
    "internal/secmon": 137,
    "internal/taskdiv": 133,
    "internal/shaper": 193,
    "internal/workload": 81,
    "internal/bwest": 605,
    "internal/testbed": 553,
}

# Flag budgets (ROADMAP aim 2, fewer knobs): a daemon flag is a setting
# an operator may vary. A new one replaces an old one or moves its
# ceiling here, saying why.
FLAG_CEILINGS = {"cmd/wizardd": 12, "cmd/sysmond": 12}


def check_size(name, doc):
    errs = []
    for section, required in SIZE_SCHEMA.items():
        table = doc.get(section)
        if not isinstance(table, dict):
            errs.append(f"{name}: missing section {section!r}")
            continue
        for key in required:
            if key not in table:
                errs.append(f"{name}: {section} lacks {key!r}")
        for key, val in table.items():
            if not isinstance(val, int) or val < 0:
                errs.append(f"{name}: {section} {key} = {val!r}, want a count")
    lines = doc.get("go_lines", {})
    for key, ceiling in SIZE_CEILINGS.items():
        if isinstance(lines, dict) and isinstance(lines.get(key), int) and lines[key] > ceiling:
            errs.append(
                f"{name}: go_lines {key} = {lines[key]} is over its ceiling {ceiling}:"
                " delete elsewhere or move the ceiling in this file and say why")
    flags = doc.get("flags", {})
    for key, ceiling in FLAG_CEILINGS.items():
        if isinstance(flags, dict) and isinstance(flags.get(key), int) and flags[key] > ceiling:
            errs.append(
                f"{name}: flags {key} = {flags[key]} is over its ceiling {ceiling}:"
                " drop a flag or move the ceiling in this file and say why")
    if isinstance(lines, dict) and isinstance(lines.get("total"), int):
        packages = sum(v for k, v in lines.items() if k != "total" and isinstance(v, int))
        if packages != lines["total"]:
            errs.append(f"{name}: go_lines total {lines['total']} != sum of packages {packages}")
    return errs


def check_obs(name, doc):
    errs = []
    for section, required in OBS_SCHEMA.items():
        table = doc.get(section)
        if not isinstance(table, dict):
            errs.append(f"{name}: missing section {section!r}")
            continue
        for key in required:
            if key not in table:
                errs.append(f"{name}: {section} lacks {key!r}")
    for hname, h in doc.get("histograms", {}).items():
        for field in ("bounds", "counts", "sum", "count"):
            if field not in h:
                errs.append(f"{name}: histogram {hname} lacks {field!r}")
        bounds, counts = h.get("bounds"), h.get("counts")
        if (isinstance(bounds, list) and isinstance(counts, list)
                and len(counts) != len(bounds) + 1):
            errs.append(
                f"{name}: histogram {hname} has {len(counts)} counts for"
                f" {len(bounds)} bounds (want bounds+1, the overflow bucket)")
    return errs


def check(path):
    name = path.rsplit("/", 1)[-1]
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: {e}"]
    if name == "BENCH_obs.json":
        return check_obs(name, doc)
    if name == "BENCH_size.json":
        return check_size(name, doc)
    schema = SCHEMAS.get(name)
    if schema is None:
        return [f"{path}: no schema registered (add one to bench_schema.py)"]
    errs = []
    for section in schema["sections"]:
        if section not in doc:
            errs.append(f"{name}: missing section {section!r}")
    for bench, fields in schema["benchmarks"].items():
        row = doc.get("benchmarks", {}).get(bench)
        if row is None:
            errs.append(f"{name}: missing benchmark {bench!r}")
            continue
        for field in fields:
            if field not in row:
                errs.append(f"{name}: {bench} lacks {field!r}")
    # Ratio keys live in a per-schema section ("reduction" for the
    # transport/select files, "speedup" for the wizard file); bounds
    # are acceptance gates, not just shape.
    section = schema.get("ratio_section", "reduction")
    ratios = schema.get("ratios", schema.get("reduction", []))
    bounds = schema.get("ratio_bounds", schema.get("reduction_bounds", {}))
    for field in ratios:
        if field not in doc.get(section, {}):
            errs.append(f"{name}: {section} lacks {field!r}")
    for field, (lo, hi) in bounds.items():
        val = doc.get(section, {}).get(field)
        if not isinstance(val, (int, float)):
            continue  # absence is reported above
        if lo is not None and val < lo:
            errs.append(f"{name}: {section} {field} = {val} below bound {lo}")
        if hi is not None and val > hi:
            errs.append(f"{name}: {section} {field} = {val} above bound {hi}")
    # Bounded keys one level down (section, subsection): each must be
    # present and inside its bound.
    for (outer, inner), fields in schema.get("nested_bounds", {}).items():
        table = doc.get(outer, {}).get(inner, {}) if isinstance(doc.get(outer), dict) else {}
        for field, (lo, hi) in fields.items():
            val = table.get(field) if isinstance(table, dict) else None
            if not isinstance(val, (int, float)):
                errs.append(f"{name}: {outer}.{inner} lacks {field!r}")
            elif lo is not None and val < lo:
                errs.append(f"{name}: {outer}.{inner} {field} = {val} below bound {lo}")
            elif hi is not None and val > hi:
                errs.append(f"{name}: {outer}.{inner} {field} = {val} above bound {hi}")
    return errs


def main():
    files = sys.argv[1:] or list(SCHEMAS) + ["BENCH_obs.json", "BENCH_size.json"]
    errors = []
    for path in files:
        errors += check(path)
    for e in errors:
        print("bench_schema:", e, file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"bench_schema: {', '.join(f.rsplit('/', 1)[-1] for f in files)} ok")


if __name__ == "__main__":
    main()
