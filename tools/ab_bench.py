"""Alternating parent/change runs of the benchmark, and whether any
end-to-end metric got worse.

Usage::

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs 10] [--seed S]

PARENT_DIR and CHANGE_DIR are two checkouts.  Each pair runs
``bench/run.py --workload W --seed S --seconds SECONDS --trace 0`` once in
each, where SECONDS is ``run_seconds`` of the parent's ``BENCHMARK.json``,
one after the other: the parent first in even pairs, the change
first in odd ones, so a drift in the machine's speed falls on both alike.
The last line of a run's standard output is its JSON result line.  The
tool exits with status 1 when a run fails or is not ``correct``.

For each end-to-end metric of the parent's ``BENCHMARK.json`` it prints
the median and quartiles of each checkout, the change/parent ratio of the
medians, a 95% bootstrap interval of the median of the per-pair ratios,
the number of pairs the change won, and whether the change's median is
worse than the parent's by more than the metric's ``bound``, taken as a
fraction of the parent's median.  It then prints each checkout's share of
failed operations.  A null value, such as ``parallel_print_s_gmean`` of a
run with no valid result, is left out of medians and ratios; a metric that
is null in more change runs than parent runs counts as worse.  The tool
reads ``bench/`` and ``BENCHMARK.json`` and writes neither, though
``bench/run.py`` keeps its own output under ``bench/out/`` of each tree.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

#: Bootstrap resamples of the per-pair ratios, and the seed of their draws.
RESAMPLES = 4000
BOOTSTRAP_SEED = 0


def _ratio(change: float, parent: float) -> float:
    """change / parent, with 0 / 0 = 1."""
    if parent == 0:
        return 1.0 if change == 0 else float("inf")
    return change / parent


def _quartiles(values: list[float]) -> tuple[float, float, float] | None:
    """(median, lower quartile, upper quartile), None when empty."""
    if not values:
        return None
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q1), float(q3)


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Statistics of paired result lines of ``bench/run.py``.

    ``parent[i]`` and ``change[i]`` are the result lines of pair i, and
    ``metrics`` the ``end_to_end`` entries of ``BENCHMARK.json`` (name,
    unit, better, bound).  Returns {"metrics": one row per metric,
    "failed_share": {"parent": share, "change": share}}; a row holds the
    name, unit, each side's (median, q1, q3) or None, the ratio of the
    medians, the 95% bootstrap interval (lo, hi) of the median paired
    ratio, the pairs compared and the pairs the change won, the null
    counts, and ``worse``.  The bootstrap draws from a generator seeded
    with ``BOOTSTRAP_SEED``, so equal inputs give equal intervals.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [run["metrics"].get(name, {}).get("value") for run in parent]
        c = [run["metrics"].get(name, {}).get("value") for run in change]
        pairs = [(a, b) for a, b in zip(p, c) if a is not None and b is not None]
        p_stats = _quartiles([v for v in p if v is not None])
        c_stats = _quartiles([v for v in c if v is not None])
        p_null, c_null = p.count(None), c.count(None)
        ratio = interval = None
        if p_stats and c_stats:
            ratio = _ratio(c_stats[0], p_stats[0])
        if pairs:
            ratios = np.array([_ratio(b, a) for a, b in pairs])
            rng = np.random.default_rng(BOOTSTRAP_SEED)
            draws = rng.integers(0, len(ratios), size=(RESAMPLES, len(ratios)))
            medians = np.median(ratios[draws], axis=1)
            interval = tuple(float(x) for x in np.percentile(medians, [2.5, 97.5]))
        wins = sum((b < a) if lower else (b > a) for a, b in pairs)
        worse = c_null > p_null
        if ratio is not None:
            worse = worse or (ratio > 1.0 + metric["bound"] if lower
                              else ratio < 1.0 - metric["bound"])
        rows.append({"name": name, "unit": metric["unit"],
                     "better": metric["better"], "bound": metric["bound"],
                     "parent": p_stats, "change": c_stats, "ratio": ratio,
                     "interval": interval, "pairs": len(pairs), "wins": wins,
                     "nulls": (p_null, c_null), "worse": worse})

    def failed_share(runs: list[dict]) -> float:
        attempted = sum(run["attempted"] for run in runs)
        return sum(run["failed"] for run in runs) / attempted if attempted else 0.0

    return {"metrics": rows,
            "failed_share": {"parent": failed_share(parent),
                             "change": failed_share(change)}}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run in tree."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def _fmt(stats) -> str:
    if stats is None:
        return f"{'n/a':>32s}"
    return f"{stats[0]:10.4g} [{stats[1]:9.4g}, {stats[2]:9.4g}]"


def report(result: dict) -> str:
    """The table that :func:`main` prints."""
    lines = [f"{'metric':24s} {'parent median [q1, q3]':>32s} "
             f"{'change median [q1, q3]':>32s} {'ratio':>7s} "
             f"{'95% interval':>17s} {'wins':>6s} worse"]
    for row in result["metrics"]:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.4f}"
        interval = ("n/a" if row["interval"] is None
                    else "[{:.3f}, {:.3f}]".format(*row["interval"]))
        nulls = " (nulls {}/{})".format(*row["nulls"]) if any(row["nulls"]) else ""
        lines.append(f"{row['name']:24s} {_fmt(row['parent'])} "
                     f"{_fmt(row['change'])} {ratio:>7s} {interval:>17s} "
                     f"{row['wins']:>2d}/{row['pairs']:<3d} "
                     f"{'YES' if row['worse'] else 'no'}{nulls}")
    shares = result["failed_share"]
    lines.append(f"failed/attempted: parent {shares['parent']:.4f}, "
                 f"change {shares['change']:.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                line = run_once(getattr(args, side), args.workload, args.seed,
                                seconds)
            except RuntimeError as exc:
                print(f"pair {pair} {side} failed: {exc}", file=sys.stderr)
                return 1
            runs[side].append(line)
            wall = line["metrics"].get("wall_s", {}).get("value")
            print(f"pair {pair} {side}: correct={line['correct']} "
                  f"wall_s={wall}", file=sys.stderr, flush=True)
    print(f"{args.workload}, {args.pairs} pairs, seed {args.seed}, "
          f"{seconds:g} s")
    print(report(compare(runs["parent"], runs["change"], spec["end_to_end"])))
    incorrect = [side for side in runs for line in runs[side]
                 if not line["correct"]]
    if incorrect:
        print(f"incorrect runs: {', '.join(incorrect)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
