#!/usr/bin/env python3
"""Plot BENCH_*.json trajectory files emitted via MPCG_BENCH_JSON.

Each input file is a JSON-lines log appended by the bench binaries:

    {"name":"E01_RoundsVsN/4096","n":4096,"m":32768,"rounds":15,
     "wall_ms":12.3,"peak_words":21704}

Usage:
    tools/plot_bench.py BENCH_pr1.json BENCH_pr2.json [-o out_dir]
                        [--families E01,E06] [--table]
                        [--baseline BENCH_prN.json]

--baseline pins the delta columns (and the first plot series) to an
explicit file — equivalent to listing it first, but immune to argument
order, so CI can always compare against the committed per-PR baseline.
The deltas compare model cost (rounds, peak_words), which is the same on
every host; wall_ms is printed for information only, since a baseline
recorded on another machine says nothing about this one's clock.

One figure per benchmark family (the name prefix before '/'), with wall_ms
and rounds as separate stacked panels (never a dual axis) over n. Each input
file is one series, so passing the logs of successive commits shows the
perf trajectory. Within a (file, name) pair the minimum wall_ms is used —
the min-of-N convention the repo's CHANGES.md numbers follow.

Headless-safe (Agg backend); with matplotlib missing, or with --table,
prints an aligned text table instead.
"""

import argparse
import json
import os
import sys
from collections import defaultdict

# Categorical palette (validated: colorblind-safe in fixed order — assign by
# slot, never cycle or re-sort).
PALETTE = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100", "#e87ba4", "#008300"]
GRID = "#d9d8d2"
INK = "#0b0b0b"
MUTED = "#52514e"


def load_rows(path):
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                print(f"warning: skipping malformed line in {path}",
                      file=sys.stderr)
    return rows


def family_of(name):
    return name.split("/", 1)[0]


def workload_of(name):
    """Non-numeric middle components of a row name: the workload label.

    'E06_FrontierDecay/rmat/262144' -> 'rmat'; 'E06_PhasesVsN/4096' -> ''.
    """
    return "/".join(p for p in name.split("/")[1:] if not p.isdigit())


def aggregate(rows):
    """(family -> name -> row with min wall_ms), preserving n per name."""
    best = defaultdict(dict)
    for row in rows:
        fam = family_of(row.get("name", "?"))
        name = row.get("name", "?")
        cur = best[fam].get(name)
        if cur is None or row.get("wall_ms", 0.0) < cur.get("wall_ms", 0.0):
            best[fam][name] = row
    return best


def delta(row, base_row, key):
    """Signed difference of one model-cost field against the baseline row."""
    diff = row.get(key, 0) - base_row.get(key, 0)
    return f"{diff:+d}" if isinstance(diff, int) else f"{diff:+.6g}"


def print_table(series_by_file, families):
    # The first input file is the baseline: every later file's rows get
    # d_rounds / d_peak deltas (this row minus the same-named baseline row;
    # blank when the baseline has no such row). Rows are grouped by workload
    # (the non-numeric middle of the name — e.g. the rmat/star rows of
    # E06_FrontierDecay each form a group) with a separator per group.
    labels = list(series_by_file)
    baseline = series_by_file[labels[0]] if labels else {}
    header = f"{'family/name':<40} {'file':<20} {'n':>10} {'rounds':>8} " \
             f"{'wall_ms':>12} {'peak_words':>12} {'d_rounds':>9} " \
             f"{'d_peak':>10}"
    print(header)
    print("-" * len(header))
    for fam in families:
        workloads = sorted({workload_of(name)
                            for best in series_by_file.values()
                            for name in best.get(fam, {})})
        for workload in workloads:
            if len(workloads) > 1:
                title = f"{fam}/{workload}" if workload else fam
                print(f"-- {title}")
            for label, best in series_by_file.items():
                rows = [(name, row) for name, row in best.get(fam, {}).items()
                        if workload_of(name) == workload]
                for name, row in sorted(rows,
                                        key=lambda kv: kv[1].get("n", 0)):
                    base_row = baseline.get(fam, {}).get(name)
                    if label == labels[0] or base_row is None:
                        d_rounds = d_peak = ""
                    else:
                        d_rounds = delta(row, base_row, "rounds")
                        d_peak = delta(row, base_row, "peak_words")
                    print(f"{name:<40} {label:<20} {row.get('n', 0):>10} "
                          f"{row.get('rounds', 0):>8} "
                          f"{row.get('wall_ms', 0.0):>12.3f} "
                          f"{row.get('peak_words', 0):>12} "
                          f"{d_rounds:>9} {d_peak:>10}")


def plot(series_by_file, families, out_dir):
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for fam in families:
        fig, (ax_wall, ax_rounds) = plt.subplots(
            2, 1, sharex=True, figsize=(7.0, 6.0))
        for slot, (label, best) in enumerate(series_by_file.items()):
            rows = sorted(best.get(fam, {}).values(),
                          key=lambda r: r.get("n", 0))
            if not rows:
                continue
            color = PALETTE[slot % len(PALETTE)]
            ns = [r.get("n", 0) for r in rows]
            ax_wall.plot(ns, [r.get("wall_ms", 0.0) for r in rows],
                         color=color, linewidth=2, marker="o", markersize=5,
                         label=label)
            ax_rounds.plot(ns, [r.get("rounds", 0) for r in rows],
                           color=color, linewidth=2, marker="o",
                           markersize=5, label=label)
        for ax, ylabel in ((ax_wall, "wall clock (ms)"),
                           (ax_rounds, "engine rounds")):
            ax.set_xscale("log", base=2)
            ax.grid(True, color=GRID, linewidth=0.6)
            ax.set_axisbelow(True)
            ax.tick_params(colors=MUTED, labelsize=9)
            ax.set_ylabel(ylabel, color=INK, fontsize=10)
            for spine in ("top", "right"):
                ax.spines[spine].set_visible(False)
            for spine in ("left", "bottom"):
                ax.spines[spine].set_color(GRID)
        ax_wall.set_yscale("log")
        ax_rounds.set_xlabel("n (vertices)", color=INK, fontsize=10)
        if len(series_by_file) > 1:
            ax_wall.legend(frameon=False, fontsize=9, labelcolor=INK)
        ax_wall.set_title(fam, color=INK, fontsize=12, loc="left")
        fig.tight_layout()
        path = os.path.join(out_dir, f"{fam}.png")
        fig.savefig(path, dpi=144)
        plt.close(fig)
        written.append(path)
    return written


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="BENCH_*.json inputs")
    parser.add_argument("-o", "--out-dir", default="bench_plots",
                        help="output directory for PNGs")
    parser.add_argument("--families", default="",
                        help="comma-separated family filter (e.g. E01,E06)")
    parser.add_argument("--table", action="store_true",
                        help="print the text table instead of plotting")
    parser.add_argument("--baseline", default=None, metavar="BENCH_prN.json",
                        help="file to pin the delta columns against "
                             "(placed first regardless of argument order)")
    args = parser.parse_args()

    files = list(args.files)
    if args.baseline:
        files = [args.baseline] + [f for f in files
                                   if os.path.abspath(f)
                                   != os.path.abspath(args.baseline)]

    series_by_file = {}
    for path in files:
        label = os.path.splitext(os.path.basename(path))[0]
        series_by_file[label] = aggregate(load_rows(path))

    families = sorted({fam for best in series_by_file.values()
                       for fam in best})
    if args.families:
        wanted = {f.strip() for f in args.families.split(",") if f.strip()}
        families = [f for f in families if f in wanted]
    if not families:
        print("no benchmark rows found", file=sys.stderr)
        return 1

    if not args.table:
        try:
            written = plot(series_by_file, families, args.out_dir)
        except ImportError:
            print("matplotlib not available; falling back to table\n",
                  file=sys.stderr)
        else:
            for path in written:
                print(f"wrote {path}")
            return 0
    print_table(series_by_file, families)
    return 0


if __name__ == "__main__":
    sys.exit(main())
