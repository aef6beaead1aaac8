#!/usr/bin/env python3
"""Validate lfbst bench --json output against the lfbst-bench-v1 schema.

Usage:
    tools/check_bench_json.py report.json [more.json ...]
    tools/check_bench_json.py --chrome-trace trace.json

Checks every document the benches' --json flag emits (see
src/obs/export.hpp for the contract):

  * top level is an object with "schema" == "lfbst-bench-v1",
    a non-empty string "bench", an object "config" of flat scalars,
    and a non-empty array "results";
  * every results row is an object of flat scalars (no nesting), and
    all rows of one document share a consistent key set — grouped by
    the "study" column when present (bench_ablation packs several
    studies with different measurement columns into one report).

With --chrome-trace the file is instead checked as Chrome trace_event
JSON (the bench_figure4 --trace output): an object with a "traceEvents"
array whose entries carry name/ph/ts/pid/tid, with matched B/E pairs
per tid. Exit status is 0 only if every file passes.
"""

import json
import sys

SCHEMA = "lfbst-bench-v1"
SCALARS = (str, int, float, bool, type(None))

# Studies whose rows must carry a known minimal column set, on top of the
# generic per-study key-consistency check. Extra columns are fine (the
# micro_ops scan rows add scan_restarts, the sharded rows add shards).
STUDY_REQUIRED = {
    "scan": {"study", "algorithm", "writers", "scans", "mkeys_per_sec",
             "keys_per_scan", "sorted", "stable_complete"},
    "server": {"study", "mix", "connections", "pipeline", "event_threads",
               "shards", "ops", "mops_per_sec", "p50_ns", "p99_ns",
               "p999_ns"},
    "skew": {"study", "workload", "shards", "threads", "mops_per_sec",
             "share_start", "share_end"},
    "kary_zipf": {"study", "algorithm", "threads", "theta", "mops_per_sec"},
    "seek_depth": {"study", "stream", "algorithm", "scramble", "n", "shards",
                   "mops", "depth_p50", "depth_p99", "depth_max"},
    "server_lifetime": {"study", "scramble", "shards", "keys", "ops",
                        "p50_ns", "p99_ns", "p999_ns", "seeks", "seek_p50",
                        "seek_p99", "seek_max"},
    "churn": {"study", "policy", "ops", "slab_kib", "pending_retire"},
    "handoff": {"study", "policy", "pairs", "live_keys", "slab_kib",
                "pending_retire"},
}


def fail(path, msg):
    print(f"{path}: FAIL: {msg}", file=sys.stderr)
    return False


def check_bench(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"cannot load: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level must be an object")
    if doc.get("schema") != SCHEMA:
        return fail(path, f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        return fail(path, "'bench' must be a non-empty string")
    config = doc.get("config")
    if not isinstance(config, dict):
        return fail(path, "'config' must be an object")
    for k, v in config.items():
        if not isinstance(v, SCALARS):
            return fail(path, f"config[{k!r}] is not a flat scalar")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return fail(path, "'results' must be a non-empty array")
    group_keys = {}  # study value -> (first row index, key set)
    for i, row in enumerate(results):
        if not isinstance(row, dict) or not row:
            return fail(path, f"results[{i}] must be a non-empty object")
        for k, v in row.items():
            if not isinstance(v, SCALARS):
                return fail(path, f"results[{i}][{k!r}] is not a flat scalar")
        group = row.get("study")
        required = STUDY_REQUIRED.get(group)
        if required and not required <= set(row):
            return fail(
                path,
                f"results[{i}] (study {group!r}) missing required "
                f"column(s) {sorted(required - set(row))}",
            )
        if group not in group_keys:
            group_keys[group] = (i, set(row))
        elif set(row) != group_keys[group][1]:
            first, keys = group_keys[group]
            return fail(
                path,
                f"results[{i}] keys {sorted(set(row))} differ from "
                f"results[{first}] keys {sorted(keys)}"
                + (f" (study {group!r})" if group is not None else ""),
            )
    print(f"{path}: OK ({doc['bench']}, {len(results)} rows)")
    return True


def check_chrome_trace(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"cannot load: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail(path, "'traceEvents' must be a non-empty array")
    depth = {}  # tid -> open B count
    seen_b = set()  # tids that have produced at least one B
    truncated = 0
    for i, ev in enumerate(events):
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in ev:
                return fail(path, f"traceEvents[{i}] missing {field!r}")
        ph = ev["ph"]
        if ph not in ("B", "E", "i", "X", "M"):
            return fail(path, f"traceEvents[{i}] has unknown phase {ph!r}")
        tid = ev["tid"]
        if ph == "B":
            depth[tid] = depth.get(tid, 0) + 1
            seen_b.add(tid)
        elif ph == "E":
            if depth.get(tid, 0) == 0:
                # A ring that overflowed may retain an E whose B was
                # overwritten — but only before the tid's first B.
                if tid in seen_b:
                    return fail(
                        path, f"traceEvents[{i}]: E without matching B "
                        f"on tid {tid}"
                    )
                truncated += 1
            else:
                depth[tid] -= 1
    too_deep = {t: d for t, d in depth.items() if d > 1}
    if too_deep:
        return fail(path, f"unbalanced B/E nesting per tid: {too_deep}")
    print(f"{path}: OK (chrome trace, {len(events)} events, "
          f"{truncated} leading truncated spans)")
    return True


def main():
    args = sys.argv[1:]
    chrome = "--chrome-trace" in args
    if chrome:
        args.remove("--chrome-trace")
    if not args:
        print(__doc__)
        return 2
    check = check_chrome_trace if chrome else check_bench
    ok = all([check(path) for path in args])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
