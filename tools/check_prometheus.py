#!/usr/bin/env python3
"""Validate two consecutive Prometheus scrapes of a loaded lfbst_serve.

Usage:
    tools/check_prometheus.py scrape1.txt scrape2.txt

The CI telemetry smoke curls /metrics twice while bench_server drives
the server, then hands both bodies here. Checks (the live-telemetry
acceptance contract, docs/TELEMETRY.md):

  * both scrapes parse as Prometheus 0.0.4 text: `name{labels} value`
    samples, `# HELP` / `# TYPE` comments, nothing else;
  * every required family is present in both scrapes;
  * every `*_total` sample is a counter: integral-looking, and
    monotone non-decreasing from scrape 1 to scrape 2 per labelset;
  * at least one tree point-op counter strictly increased between the
    scrapes (the server really was under load);
  * every gauge is finite and non-negative;
  * in the second scrape, if the latest window saw traffic
    (lfbst_window_ops > 0) the per-shard shares sum to ~1.

Exit status 0 only if every check passes.
"""

import math
import re
import sys

REQUIRED_FAMILIES = [
    "lfbst_ops_search_total",
    "lfbst_ops_insert_total",
    "lfbst_ops_erase_total",
    "lfbst_shard_ops_total",
    "lfbst_shard_pool_bytes",
    "lfbst_shard_reclaim_pending",
    "lfbst_windows_published_total",
    "lfbst_window_ops",
    "lfbst_window_ops_per_sec",
    "lfbst_shard_share",
    "lfbst_shard_share_max",
    "lfbst_latency_window_ns",
    "lfbst_seek_depth_window",
    "lfbst_heatmap_ops_total",
    "lfbst_server_frames_in_total",
    "lfbst_server_responses_out_total",
]

POINT_OP_COUNTERS = [
    "lfbst_ops_search_total",
    "lfbst_ops_insert_total",
    "lfbst_ops_erase_total",
]

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[0-9eE+.\-]+|NaN|[+-]?Inf)$"
)


def fail(msg):
    print(f"check_prometheus: FAIL: {msg}", file=sys.stderr)
    return False


def parse(path):
    """Returns ({(name, labels): float}, {family: type}) or None."""
    samples = {}
    types = {}
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: cannot read: {e}")
        return None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                fail(f"{path}:{lineno}: malformed TYPE comment")
                return None
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"{path}:{lineno}: unparseable sample: {line!r}")
            return None
        key = (m.group("name"), m.group("labels") or "")
        if key in samples:
            fail(f"{path}:{lineno}: duplicate sample {key}")
            return None
        samples[key] = float(m.group("value"))
    if not samples:
        fail(f"{path}: no samples at all")
        return None
    return samples, types


def family_values(samples, name):
    return {k: v for k, v in samples.items() if k[0] == name}


def check(path1, path2):
    first = parse(path1)
    second = parse(path2)
    if first is None or second is None:
        return False
    s1, _ = first
    s2, types2 = second
    ok = True

    names1 = {k[0] for k in s1}
    names2 = {k[0] for k in s2}
    for fam in REQUIRED_FAMILIES:
        if fam not in names1 or fam not in names2:
            ok = fail(f"required family {fam} missing from a scrape")

    # Counters: integral and monotone per labelset across the scrapes.
    for key, v2 in s2.items():
        name, labels = key
        if not name.endswith("_total"):
            continue
        if v2 != int(v2) or v2 < 0:
            ok = fail(f"counter {name}{labels} = {v2} is not a count")
        if key in s1 and v2 < s1[key]:
            ok = fail(
                f"counter {name}{labels} went backwards: "
                f"{s1[key]} -> {v2}"
            )
        declared = types2.get(name)
        if declared is not None and declared != "counter":
            ok = fail(f"{name} ends in _total but is TYPE {declared}")

    # Gauges: finite, non-negative.
    for (name, labels), v in s2.items():
        if name.endswith("_total"):
            continue
        if math.isnan(v) or math.isinf(v) or v < 0:
            ok = fail(f"gauge {name}{labels} = {v} is not finite >= 0")

    # The load check: some tree point-op counter strictly increased.
    moved = 0
    for fam in POINT_OP_COUNTERS:
        for key, v2 in family_values(s2, fam).items():
            if v2 > s1.get(key, 0):
                moved += 1
    if moved == 0:
        ok = fail("no point-op counter increased between scrapes; "
                  "was the server actually under load?")

    # Share algebra: under traffic the shard shares must sum to ~1.
    window_ops = s2.get(("lfbst_window_ops", ""), 0.0)
    if window_ops > 0:
        share_sum = sum(family_values(s2, "lfbst_shard_share").values())
        if not 0.98 <= share_sum <= 1.02:
            ok = fail(
                f"shard shares sum to {share_sum:.4f} with "
                f"window_ops={window_ops}; want ~1"
            )

    return ok


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    if not check(argv[1], argv[2]):
        return 1
    print(f"check_prometheus: OK ({argv[1]}, {argv[2]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
