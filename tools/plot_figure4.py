#!/usr/bin/env python3
"""Plot the Figure 4 reproduction from bench_figure4's JSON output.

Usage:
    build/bench/bench_figure4 --json fig4.json [--full]
    tools/plot_figure4.py fig4.json fig4.png

The JSON input is the "lfbst-bench-v1" document every bench's --json
flag emits (see src/obs/export.hpp and tools/check_bench_json.py); the
loader fails loudly on any schema mismatch rather than plotting partial
data. Produces the paper's grid: one subplot per (key range, workload)
cell, threads on the x axis, throughput (Mops/s) per algorithm.
Requires matplotlib; degrades to an ASCII summary when it is
unavailable.
"""

import json
import sys
from collections import defaultdict

SCHEMA = "lfbst-bench-v1"
REQUIRED_COLUMNS = ("key_range", "workload", "threads", "algorithm",
                    "mops_per_sec")


class SchemaError(ValueError):
    pass


def _cells_from_rows(rows):
    # cells[(key_range, workload)][algorithm] = [(threads, mops), ...]
    cells = defaultdict(lambda: defaultdict(list))
    for row in rows:
        cell = (int(row["key_range"]), str(row["workload"]))
        cells[cell][str(row["algorithm"])].append(
            (int(row["threads"]), float(row["mops_per_sec"]))
        )
    for cell in cells.values():
        for series in cell.values():
            series.sort()
    return cells


def load_json(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise SchemaError(
            f"{path}: schema is {schema!r}, expected {SCHEMA!r} — "
            "regenerate with bench_figure4 --json"
        )
    if doc.get("bench") != "figure4":
        raise SchemaError(
            f"{path}: bench is {doc.get('bench')!r}, expected 'figure4' — "
            "this tool plots only bench_figure4 output"
        )
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        raise SchemaError(f"{path}: 'results' must be a non-empty array")
    for i, row in enumerate(results):
        missing = [c for c in REQUIRED_COLUMNS if c not in row]
        if missing:
            raise SchemaError(
                f"{path}: results[{i}] is missing columns {missing}"
            )
    return _cells_from_rows(results)


def ascii_summary(cells):
    for (key_range, workload), algos in sorted(cells.items()):
        print(f"--- {key_range} keys, {workload} ---")
        threads = [t for t, _ in next(iter(algos.values()))]
        header = "threads " + "".join(f"{a:>12}" for a in algos)
        print(header)
        for i, t in enumerate(threads):
            line = f"{t:>7} " + "".join(
                f"{algos[a][i][1]:>12.3f}" for a in algos
            )
            print(line)
        print()


def plot(cells, out_path):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    key_ranges = sorted({kr for kr, _ in cells})
    workloads = ["write-dominated", "mixed", "read-dominated"]
    workloads = [w for w in workloads if any(w == wl for _, wl in cells)]

    fig, axes = plt.subplots(
        len(key_ranges),
        len(workloads),
        figsize=(4.2 * len(workloads), 3.2 * len(key_ranges)),
        squeeze=False,
    )
    for i, kr in enumerate(key_ranges):
        for j, wl in enumerate(workloads):
            ax = axes[i][j]
            for algo, series in sorted(cells.get((kr, wl), {}).items()):
                xs = [t for t, _ in series]
                ys = [m for _, m in series]
                ax.plot(xs, ys, marker="o", label=algo)
            ax.set_title(f"{kr:,} keys — {wl}", fontsize=9)
            ax.set_xscale("log", base=2)
            ax.set_xlabel("threads")
            ax.set_ylabel("Mops/s")
            ax.grid(True, alpha=0.3)
    axes[0][0].legend(fontsize=8)
    fig.suptitle(
        "Figure 4 reproduction — throughput of concurrent BSTs", fontsize=11
    )
    fig.tight_layout(rect=(0, 0, 1, 0.97))
    fig.savefig(out_path, dpi=150)
    print(f"wrote {out_path}")


def main():
    args = sys.argv[1:]
    if not args:
        print(__doc__)
        return 2
    try:
        cells = load_json(args[0])
    except (SchemaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not cells:
        print("no data rows found", file=sys.stderr)
        return 1
    if len(args) >= 2:
        try:
            plot(cells, args[1])
            return 0
        except ImportError:
            print("matplotlib unavailable; ASCII summary instead:\n")
    ascii_summary(cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
