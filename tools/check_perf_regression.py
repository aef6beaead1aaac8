#!/usr/bin/env python3
"""Perf gate: compare a fresh `bench_micro_ops --json` report against the
committed baseline (bench/baseline_micro_ops.json) and fail on drift.

Usage:
    tools/check_perf_regression.py current.json [--baseline PATH]
        [--max-regression 0.25] [--atomics-tolerance 0.05]

Two studies, two different comparisons:

  atomics — per-op allocation/atomic counts from obs::recording counter
      deltas, the repo's one source of the Table 1 numbers. These are
      seeded, single-threaded and contention-free, so they are
      (near-)exactly reproducible: any drift beyond the small
      tolerance means the protocol itself changed — the Table 1 claim
      of the paper (NM: 2/0 allocs, 1/3 atomics) no longer holds as
      committed. Fails loudly; regenerate the baseline only for an
      intentional protocol change.

  micro — wall-clock ns/op. Absolute numbers differ across machines, so
      each row is first normalized by the same report's std::set search
      reference at the same size; only the *ratio* is compared, with a
      tolerance band (default 25%) for residual noise. A ratio that
      grew past the band is a real relative slowdown of that algorithm.

A third check is *within-report* (no baseline needed):

  restart_policy — contended churn under restart::from_anchor vs
      restart::from_root (docs/PERF.md). The anchored local restart
      must not lose throughput against the full root restart (band
      --restart-slack, default 30% — the study is short and noisy by
      design), and when the run actually produced seek restarts
      (contention is machine-dependent; a 1-core runner produces
      none), the from_anchor row must show local resumes — proof the
      optimization is live, not silently disabled.

  scan — concurrent ordered scans racing writers. Each row carries the
      bench's own verdict: sorted == 1 (result came back ordered and
      duplicate-free) and stable_complete == 1 (every key that was
      present for the scan's whole duration appeared). Any zero fails;
      writers == 0 rows must also report an integral keys_per_scan.
      Each hazard row must also reach its family's SCAN_HAZARD_FLOOR
      of the epoch twin's mkeys_per_sec: a prefill that built a spine
      instead of a balanced tree drops hazard scans far below it.

A fourth check gates the TCP front-end when --server points at a fresh
`bench_server --json` report:

  server — per (mix, connections, pipeline) cell, the p99/p50 tail
      amplification is compared against bench/baseline_server.json with
      band --server-slack (absolute nanoseconds are machine-dependent;
      the ratio is not). The percentile ladder must also be ordered and
      every cell non-empty.

A fifth check gates the adversarial-shape mitigation when --skew points
at a fresh `bench_skew --json` report (docs/RESILIENCE.md):

  shape — the study's raw (unscrambled) sequential and adaptive_attack
      rows must exhibit the O(n) spine (depth_max >= n / (shards * 16)):
      the gate first proves the pathology is still measurable, so a
      broken bench cannot vacuously pass. Every scrambled row — and the
      raw bit_reversed negative control — must then stay under the
      balanced bound p99 <= 2*log2(n) + slack. Finally the scramble
      adapter's uniform-workload tax is checked within the micro report:
      the geomean Scrambled/raw ns-per-op ratio must stay under 1.05.
"""

import argparse
import json
import math
import sys

SCHEMA = "lfbst-bench-v1"
REFERENCE_ALGORITHM = "std::set"
REFERENCE_OP = "search"


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema is {doc.get('schema')!r}, "
                         f"want {SCHEMA!r}")
    rows = doc.get("results")
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: 'results' must be a non-empty array")
    return doc


def load_report(path):
    return load_doc(path)["results"]


def rows_by_study(rows, study):
    return [r for r in rows if r.get("study") == study]


def micro_key(row):
    return (row["algorithm"], row["op"], row["size"])


def normalized_micro(rows):
    """ns/op divided by the in-report std::set search reference at the
    same size: a machine-independent relative cost."""
    reference = {
        row["size"]: float(row["ns_per_op"])
        for row in rows
        if row["algorithm"] == REFERENCE_ALGORITHM
        and row["op"] == REFERENCE_OP
    }
    out = {}
    for row in rows:
        ref = reference.get(row["size"])
        if not ref:
            raise ValueError(
                f"no {REFERENCE_ALGORITHM} {REFERENCE_OP} reference row "
                f"for size {row['size']}")
        out[micro_key(row)] = float(row["ns_per_op"]) / ref
    return out


def check_micro(current, baseline, max_regression):
    failures = []
    cur = normalized_micro(rows_by_study(current, "micro"))
    base = normalized_micro(rows_by_study(baseline, "micro"))
    for key, base_ratio in sorted(base.items()):
        if key not in cur:
            failures.append(f"micro: row {key} missing from current report")
            continue
        cur_ratio = cur[key]
        algo, op, size = key
        if algo == REFERENCE_ALGORITHM and op == REFERENCE_OP:
            continue  # the reference is 1.0 by construction
        limit = base_ratio * (1.0 + max_regression)
        status = "FAIL" if cur_ratio > limit else "ok"
        print(f"  [{status}] micro {algo:>16} {op:<12} size={size:<6} "
              f"rel cost {base_ratio:7.3f} -> {cur_ratio:7.3f} "
              f"(limit {limit:.3f})")
        if cur_ratio > limit:
            failures.append(
                f"micro: {algo}/{op}/size={size} relative cost "
                f"{cur_ratio:.3f} exceeds baseline {base_ratio:.3f} "
                f"by more than {100 * max_regression:.0f}%")
    return failures


ATOMIC_COLUMNS = ("allocs_per_insert", "atomics_per_insert",
                  "allocs_per_erase", "atomics_per_erase")


def check_atomics(current, baseline, tolerance):
    failures = []
    cur = {r["algorithm"]: r for r in rows_by_study(current, "atomics")}
    base = {r["algorithm"]: r for r in rows_by_study(baseline, "atomics")}
    for algo, base_row in sorted(base.items()):
        if algo not in cur:
            failures.append(f"atomics: {algo} missing from current report")
            continue
        for col in ATOMIC_COLUMNS:
            b, c = float(base_row[col]), float(cur[algo][col])
            drift = abs(c - b)
            status = "FAIL" if drift > tolerance else "ok"
            print(f"  [{status}] atomics {algo:>10} {col:<20} "
                  f"{b:7.4f} -> {c:7.4f}")
            if drift > tolerance:
                failures.append(
                    f"atomics: {algo} {col} drifted {b:.4f} -> {c:.4f} "
                    f"(tolerance {tolerance}); Table 1 counts changed — "
                    f"if intentional, regenerate "
                    f"bench/baseline_micro_ops.json")
    return failures


# Restarts below this count mean the run was effectively uncontended
# (e.g. a single-core runner): there is nothing meaningful to attribute,
# so the local-resume liveness check is skipped.
RESTART_LIVENESS_MIN = 50


def check_restart_policy(current, slack):
    failures = []
    rows = {r["policy"]: r for r in rows_by_study(current, "restart_policy")}
    if not rows:
        print("  [skip] restart_policy: study absent from current report")
        return failures
    for policy in ("from_anchor", "from_root"):
        if policy not in rows:
            failures.append(f"restart_policy: row {policy!r} missing")
    if failures:
        return failures
    anchor, root = rows["from_anchor"], rows["from_root"]
    a_mops, r_mops = float(anchor["mops"]), float(root["mops"])
    floor = r_mops * (1.0 - slack)
    status = "FAIL" if a_mops < floor else "ok"
    print(f"  [{status}] restart_policy from_anchor {a_mops:.3f} Mops/s vs "
          f"from_root {r_mops:.3f} (floor {floor:.3f})")
    if a_mops < floor:
        failures.append(
            f"restart_policy: from_anchor throughput {a_mops:.3f} Mops/s "
            f"fell more than {100 * slack:.0f}% below from_root "
            f"{r_mops:.3f} — the anchored restart is a net loss")
    restarts = int(anchor["seek_restarts"])
    resumes = int(anchor["seek_resumes_local"])
    fallbacks = int(anchor["seek_anchor_fallbacks"])
    if restarts >= RESTART_LIVENESS_MIN:
        status = "FAIL" if resumes == 0 else "ok"
        print(f"  [{status}] restart_policy from_anchor attribution: "
              f"{restarts} restarts -> {resumes} local, {fallbacks} fallback")
        if resumes == 0:
            failures.append(
                f"restart_policy: {restarts} restarts under from_anchor but "
                f"zero local resumes — anchor validation never succeeds")
        if resumes + fallbacks != restarts:
            failures.append(
                f"restart_policy: attribution algebra broken: "
                f"{resumes} + {fallbacks} != {restarts}")
    else:
        print(f"  [skip] restart_policy attribution: only {restarts} "
              f"restarts (uncontended run, need {RESTART_LIVENESS_MIN})")
    return failures


# Hazard scans run two validated root descents per emitted key, so on a
# balanced 4096-key tree they emit a fixed fraction of the epoch twin's
# keys/s: ~0.01 for NM-BST. On the O(n) spine an ascending prefill builds,
# each descent walks the spine and the ratio falls to ~1e-4, 20x below
# this floor.
SCAN_HAZARD_FLOOR = {"NM-BST": 0.002}


def check_scan(current):
    """Within-report (no baseline): every scan-study row is self-checking
    — the bench verifies each scan came back sorted and containing every
    stable key, and records the verdict in the row. A zero in either
    column means a concurrent scan observed a torn or incomplete view.
    Uncontended rows (writers == 0) must additionally visit a stable,
    integral number of keys per scan: nothing was mutating, so any
    fractional average means scans disagreed with each other."""
    failures = []
    rows = rows_by_study(current, "scan")
    if not rows:
        print("  [skip] scan: study absent from current report")
        return failures
    for row in rows:
        algo = row["algorithm"]
        writers = int(row["writers"])
        sorted_ok = int(row["sorted"]) == 1
        complete_ok = int(row["stable_complete"]) == 1
        status = "FAIL" if not (sorted_ok and complete_ok) else "ok"
        print(f"  [{status}] scan {algo:>20} writers={writers} "
              f"sorted={int(row['sorted'])} "
              f"stable_complete={int(row['stable_complete'])} "
              f"({float(row['keys_per_scan']):.1f} keys/scan)")
        if not sorted_ok:
            failures.append(
                f"scan: {algo} (writers={writers}) returned an unsorted "
                f"or duplicated result — ordered-scan contract broken")
        if not complete_ok:
            failures.append(
                f"scan: {algo} (writers={writers}) missed a key that was "
                f"present for the whole scan — not linearizable")
        if writers == 0:
            kps = float(row["keys_per_scan"])
            if kps <= 0 or kps != int(kps):
                failures.append(
                    f"scan: {algo} uncontended run averaged {kps} "
                    f"keys/scan — scans of an idle tree disagreed")
    rate = {(row["algorithm"], int(row["writers"])):
            float(row["mkeys_per_sec"]) for row in rows}
    for (algo, writers), hazard in sorted(rate.items()):
        family, _, reclaimer = algo.rpartition("/")
        epoch = rate.get((family + "/epoch", writers))
        if reclaimer != "hazard" or not epoch:
            continue
        floor = SCAN_HAZARD_FLOOR.get(family)
        if floor is None:
            failures.append(f"scan: no hazard/epoch floor for {family}")
            continue
        ratio = hazard / epoch
        ok = ratio >= floor
        print(f"  [{'ok' if ok else 'FAIL'}] scan {algo:>20} "
              f"writers={writers} hazard/epoch={ratio:.4f} (floor {floor})")
        if not ok:
            failures.append(
                f"scan: {algo} (writers={writers}) ran at {ratio:.5f} of "
                f"{family}/epoch, below {floor} — is the scanned tree a "
                f"spine?")
    return failures


# Threads the runner must actually have before the multiway tree's
# shallower descents can translate into wall-clock throughput; below
# this the workers timeslice and the race measures scheduler noise.
KARY_MIN_HW_THREADS = 4


def check_kary(current_doc, slack):
    """Within-report gate on the multiway tree's headline claim: on the
    read-heavy Zipfian study (the regime its cache-line node layout
    targets), the KST row must hold its own against the NM-BST row of
    the same run. Self-skips on runners without real parallelism — the
    report's config carries hardware_threads for exactly this. The
    companion claim (NM rows unregressed) is already enforced by
    check_micro against the committed baseline."""
    failures = []
    rows = {r["algorithm"]: r
            for r in rows_by_study(current_doc["results"], "kary_zipf")}
    if not rows:
        print("  [skip] kary_zipf: study absent from current report")
        return failures
    hw = int(current_doc.get("config", {}).get("hardware_threads") or 0)
    if hw < KARY_MIN_HW_THREADS:
        print(f"  [skip] kary_zipf: runner has {hw} hardware thread(s), "
              f"need {KARY_MIN_HW_THREADS} for a meaningful race")
        return failures
    for algo in ("KST", "NM-BST"):
        if algo not in rows:
            failures.append(f"kary_zipf: row {algo!r} missing")
    if failures:
        return failures
    kst = float(rows["KST"]["mops_per_sec"])
    nm = float(rows["NM-BST"]["mops_per_sec"])
    floor = nm * (1.0 - slack)
    status = "FAIL" if kst < floor else "ok"
    print(f"  [{status}] kary_zipf KST {kst:.3f} Mops/s vs NM-BST "
          f"{nm:.3f} (floor {floor:.3f}, {hw} hw threads)")
    if kst < floor:
        failures.append(
            f"kary_zipf: KST {kst:.3f} Mops/s fell more than "
            f"{100 * slack:.0f}% below NM-BST {nm:.3f} on the read-heavy "
            f"Zipf study — the multiway fast path lost its target regime")
    return failures


def server_key(row):
    return (row["mix"], int(row["connections"]), int(row["pipeline"]))


def check_server(server_path, baseline_path, slack):
    """Gate on the TCP front-end's tail latency (bench_server --json).

    Absolute nanoseconds are machine-dependent, so each row's p99 is
    first normalized by the same report's p50 — the tail *amplification*
    — and that ratio is compared per (mix, connections, pipeline) cell
    against the committed bench/baseline_server.json with a generous
    band (tails are noisy on shared runners). Within-report sanity is
    absolute: the percentile ladder must be ordered and every cell must
    have completed work."""
    failures = []
    if not server_path:
        print("  [skip] server: no --server report supplied")
        return failures
    try:
        current = rows_by_study(load_report(server_path), "server")
        baseline = rows_by_study(load_report(baseline_path), "server")
    except (OSError, ValueError, json.JSONDecodeError) as e:
        return [f"server: {e}"]
    if not current:
        return [f"server: no study=server rows in {server_path}"]
    cur = {server_key(r): r for r in current}
    base = {server_key(r): r for r in baseline}
    for key, row in sorted(cur.items()):
        mix, conns, pipe = key
        ops = int(row["ops"])
        p50, p99, p999 = (int(row["p50_ns"]), int(row["p99_ns"]),
                          int(row["p999_ns"]))
        if ops <= 0 or p50 <= 0 or not p50 <= p99 <= p999:
            failures.append(
                f"server: {mix}/conns={conns}/pipe={pipe} has a broken "
                f"row: ops={ops} p50={p50} p99={p99} p999={p999}")
            continue
        base_row = base.get(key)
        if base_row is None:
            print(f"  [skip] server {mix:>10} conns={conns} pipe={pipe}: "
                  f"no baseline cell")
            continue
        base_ratio = float(base_row["p99_ns"]) / float(base_row["p50_ns"])
        cur_ratio = p99 / p50
        limit = base_ratio * (1.0 + slack)
        status = "FAIL" if cur_ratio > limit else "ok"
        print(f"  [{status}] server {mix:>10} conns={conns} pipe={pipe:<3} "
              f"p99/p50 {base_ratio:6.2f} -> {cur_ratio:6.2f} "
              f"(limit {limit:.2f}, p99 {p99} ns)")
        if cur_ratio > limit:
            failures.append(
                f"server: {mix}/conns={conns}/pipe={pipe} tail "
                f"amplification p99/p50 = {cur_ratio:.2f} exceeds baseline "
                f"{base_ratio:.2f} by more than {100 * slack:.0f}% — the "
                f"front-end's tail regressed")
    return failures


SHAPE_SPINE_STREAMS = ("sequential", "adaptive_attack")
# A raw spine row must reach depth_max >= n / (shards * divisor): deep
# enough that only a degenerate (linear-in-n) shape can produce it —
# 16 absorbs the multiway tree's fanout (depth ~ n/7 at K=8) and leaves
# a 2x band on top, while staying ~100x above any log2-shaped tree.
SHAPE_SPINE_DIVISOR = 16
# Allowed uniform-workload cost of the scramble adapter (geomean of the
# Scrambled/raw micro ns-per-op ratios): one xorshift-multiply round per
# op must stay within 5% (ISSUE: "<5% regression on uniform workloads").
SHAPE_UNIFORM_BAND = 0.05
SHAPE_MICRO_PAIRS = (("Scrambled/NM-BST", "NM-BST"),
                     ("Scrambled/Sharded", "Sharded/NM-BST"))


def check_shape(skew_path, current, depth_slack, uniform_slack):
    """Gate on the adversarial-shape mitigation (bench_skew --json +
    the micro report; docs/RESILIENCE.md).

    Three legs, all within-report — depths are shape properties, not
    wall-clock, so no machine baseline is needed:

      * spine self-check — the raw sequential and adaptive_attack rows
        must show depth_max >= n / (shards * 16). If the attack streams
        no longer degenerate the unscrambled trees, the study is not
        measuring what it claims and a pass would be vacuous.
      * bounded depth — every scrambled row (all streams) and the raw
        bit_reversed negative control must keep depth_p99 under
        2*log2(n) + --shape-depth-slack. bit_reversed inserts build a
        balanced tree with no mitigation at all; if that row fails, the
        depth measurement itself is broken, not the fix.
      * uniform tax — geomean of Scrambled/raw ns-per-op over the
        uniform micro rows (same run, same machine) must stay under
        1 + 0.05 + --shape-uniform-slack.
    """
    failures = []
    if not skew_path:
        print("  [skip] shape: no --skew report supplied")
        return failures
    try:
        rows = rows_by_study(load_report(skew_path), "seek_depth")
    except (OSError, ValueError, json.JSONDecodeError) as e:
        return [f"shape: {skew_path}: {e}"]
    if not rows:
        return [f"shape: no study=seek_depth rows in {skew_path}"]

    spine_rows = scrambled_rows = 0
    for row in sorted(rows, key=lambda r: (r["stream"], int(r["scramble"]),
                                           r["algorithm"])):
        stream, algo = row["stream"], row["algorithm"]
        scramble = int(row["scramble"])
        n, shards = int(row["n"]), int(row["shards"])
        p99, dmax = int(row["depth_p99"]), int(row["depth_max"])
        if scramble == 0 and stream in SHAPE_SPINE_STREAMS:
            spine_rows += 1
            floor = n / (shards * SHAPE_SPINE_DIVISOR)
            status = "FAIL" if dmax < floor else "ok"
            print(f"  [{status}] shape spine {stream:>15} {algo:>10} "
                  f"n={n} shards={shards} depth_max={dmax} "
                  f"(floor {floor:.0f})")
            if dmax < floor:
                failures.append(
                    f"shape: raw {stream}/{algo} depth_max {dmax} never "
                    f"reached the spine floor {floor:.0f} (n={n}, "
                    f"shards={shards}) — the attack stream no longer "
                    f"degenerates the tree, so the study's pass would be "
                    f"vacuous; fix the bench before trusting the gate")
            continue
        if scramble == 1 or stream == "bit_reversed":
            if scramble == 1:
                scrambled_rows += 1
            bound = 2.0 * math.log2(n) + depth_slack
            status = "FAIL" if p99 > bound else "ok"
            label = "scrambled" if scramble == 1 else "raw-control"
            print(f"  [{status}] shape bound {stream:>15} {algo:>10} "
                  f"[{label}] n={n} p99={p99} (bound {bound:.0f})")
            if p99 > bound:
                failures.append(
                    f"shape: {label} {stream}/{algo} seek-depth p99 {p99} "
                    f"exceeds 2*log2({n}) + {depth_slack:g} = {bound:.0f} "
                    f"— the adversarial shape survives the mitigation")
    if spine_rows == 0:
        failures.append(
            "shape: no raw sequential/adaptive_attack rows — the study "
            "never demonstrated the pathology it gates")
    if scrambled_rows == 0:
        failures.append(
            "shape: no scramble=1 rows — the mitigation arm is missing")

    micro = {(r["algorithm"], r["op"], r["size"]): float(r["ns_per_op"])
             for r in rows_by_study(current, "micro")}
    limit = 1.0 + SHAPE_UNIFORM_BAND + uniform_slack
    for scrambled_algo, raw_algo in SHAPE_MICRO_PAIRS:
        ratios = []
        for (algo, op, size), ns in sorted(micro.items()):
            if algo != scrambled_algo:
                continue
            raw_ns = micro.get((raw_algo, op, size))
            if raw_ns is None:
                failures.append(
                    f"shape: micro row {raw_algo}/{op}/size={size} missing "
                    f"— cannot price the scramble adapter against it")
                continue
            ratios.append(ns / raw_ns)
        if not ratios:
            failures.append(
                f"shape: no {scrambled_algo} uniform micro rows — the "
                f"adapter's uniform tax was never measured")
            continue
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        status = "FAIL" if geomean > limit else "ok"
        print(f"  [{status}] shape uniform tax {scrambled_algo:>18} vs "
              f"{raw_algo}: geomean ratio {geomean:.3f} over "
              f"{len(ratios)} rows (limit {limit:.3f})")
        if geomean > limit:
            failures.append(
                f"shape: {scrambled_algo} costs {geomean:.3f}x {raw_algo} "
                f"on uniform workloads (limit {limit:.3f}) — the scramble "
                f"adapter taxes the non-adversarial case too much")
    return failures


SERVE_SHAPE_REQUIRED = {"scramble", "shards", "keys", "seeks", "seek_p99",
                        "seek_max"}


def check_serve_shape(paths, depth_slack):
    """Gate on lfbst_serve's own exit report (--serve-report, repeatable
    — the nightly attack-stream soak passes one raw and one scrambled
    run). The server_lifetime row carries whole-run seek-depth
    percentiles and the final key count; the same two-sided contract as
    check_shape applies end-to-end through the wire protocol:

      * a raw (scramble=0) run soaked with an attack stream must show
        the spine (seek_max >= keys / (shards * 16)) — proof the soak
        actually attacked;
      * a scrambled run must stay bounded
        (seek_p99 <= 2*log2(keys) + --shape-depth-slack).
    """
    failures = []
    if not paths:
        print("  [skip] serve-shape: no --serve-report supplied")
        return failures
    for path in paths:
        try:
            rows = rows_by_study(load_report(path), "server_lifetime")
        except (OSError, ValueError, json.JSONDecodeError) as e:
            failures.append(f"serve-shape: {path}: {e}")
            continue
        if not rows:
            failures.append(
                f"serve-shape: no study=server_lifetime row in {path}")
            continue
        for row in rows:
            if not SERVE_SHAPE_REQUIRED <= set(row):
                failures.append(
                    f"serve-shape: {path} row missing column(s) "
                    f"{sorted(SERVE_SHAPE_REQUIRED - set(row))} — "
                    f"lfbst_serve predates the shape telemetry")
                continue
            scramble = int(row["scramble"])
            keys, shards = int(row["keys"]), int(row["shards"])
            seeks = int(row["seeks"])
            p99, smax = int(row["seek_p99"]), int(row["seek_max"])
            if keys < 2 or seeks == 0:
                failures.append(
                    f"serve-shape: {path} run ended with {keys} keys and "
                    f"{seeks} recorded seeks — the soak never loaded the "
                    f"server")
                continue
            if scramble:
                bound = 2.0 * math.log2(keys) + depth_slack
                status = "FAIL" if p99 > bound else "ok"
                print(f"  [{status}] serve-shape scrambled run {path}: "
                      f"keys={keys} seek_p99={p99} (bound {bound:.0f})")
                if p99 > bound:
                    failures.append(
                        f"serve-shape: scrambled serve run {path} has "
                        f"seek-depth p99 {p99} over {keys} keys (bound "
                        f"{bound:.0f}) — the mitigation failed through "
                        f"the wire protocol")
            else:
                floor = keys / (shards * SHAPE_SPINE_DIVISOR)
                status = "FAIL" if smax < floor else "ok"
                print(f"  [{status}] serve-shape raw run {path}: "
                      f"keys={keys} shards={shards} seek_max={smax} "
                      f"(floor {floor:.0f})")
                if smax < floor:
                    failures.append(
                        f"serve-shape: raw serve run {path} never showed "
                        f"the spine (seek_max {smax} < {floor:.0f} over "
                        f"{keys} keys, {shards} shards) — the soak's "
                        f"attack stream is not attacking, so the "
                        f"scrambled run's pass is vacuous")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", nargs="?", default=None,
                    help="fresh bench_micro_ops --json output (optional "
                         "when only the standalone gates --server/"
                         "--serve-report are wanted, e.g. the "
                         "nightly attack-stream soak)")
    ap.add_argument("--baseline", default="bench/baseline_micro_ops.json")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed relative-throughput growth (0.25 = 25%%)")
    ap.add_argument("--atomics-tolerance", type=float, default=0.05,
                    help="allowed absolute drift of per-op atomic counts")
    ap.add_argument("--restart-slack", type=float, default=0.30,
                    help="allowed from_anchor vs from_root throughput "
                         "shortfall in the restart_policy study")
    ap.add_argument("--kary-slack", type=float, default=0.10,
                    help="allowed KST vs NM-BST throughput shortfall in "
                         "the read-heavy kary_zipf study (the claim is a "
                         "win; the band only absorbs shared-runner noise)")
    ap.add_argument("--server", default=None,
                    help="fresh bench_server --json output (optional; "
                         "enables the server tail-latency gate)")
    ap.add_argument("--server-baseline",
                    default="bench/baseline_server.json")
    ap.add_argument("--server-slack", type=float, default=1.50,
                    help="allowed growth of the server p99/p50 tail "
                         "amplification vs its baseline")
    ap.add_argument("--skew", default=None,
                    help="fresh bench_skew --json output (optional; "
                         "enables the adversarial-shape gate)")
    ap.add_argument("--shape-depth-slack", type=float, default=8.0,
                    help="additive slack on the 2*log2(n) seek-depth p99 "
                         "bound for scrambled/attack-stream rows")
    ap.add_argument("--shape-uniform-slack", type=float, default=0.0,
                    help="extra allowance (on top of the 5%% band) for the "
                         "scramble adapter's uniform-workload geomean tax")
    ap.add_argument("--serve-report", action="append", default=None,
                    help="lfbst_serve --json exit report (repeatable; "
                         "enables the end-to-end serve shape gate — pass "
                         "one raw and one scrambled soak run)")
    args = ap.parse_args()

    failures = []
    current = []
    if args.current:
        try:
            current_doc = load_doc(args.current)
            current = current_doc["results"]
            baseline = load_report(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"FAIL: {e}", file=sys.stderr)
            return 1
        print(f"perf gate: {args.current} vs {args.baseline}")
        failures += check_atomics(current, baseline, args.atomics_tolerance)
        failures += check_micro(current, baseline, args.max_regression)
        failures += check_restart_policy(current, args.restart_slack)
        failures += check_scan(current)
        failures += check_kary(current_doc, args.kary_slack)
    else:
        print("perf gate: standalone mode (no bench_micro_ops report)")
    failures += check_server(args.server, args.server_baseline,
                             args.server_slack)
    failures += check_shape(args.skew, current, args.shape_depth_slack,
                            args.shape_uniform_slack)
    failures += check_serve_shape(args.serve_report, args.shape_depth_slack)

    if failures:
        print(f"\nFAIL: {len(failures)} perf-gate violation(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nOK: no Table 1 drift, no relative-throughput regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
