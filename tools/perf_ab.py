"""Paired A/B comparison of corfd's end-to-end benchmark metrics across two checkouts.

Runs each checkout's own ``perfbench/run.py`` on one workload, once per
side per pair, and alternates which side runs first, so that drift of the
host falls on both sides alike:

    python3 tools/perf_ab.py <base checkout> <changed checkout> --workload dfo \\
        --pairs 10 --seconds 6 --out BENCH_<tag>.json

Both checkouts are byte-compiled first, so that no run pays for stale
bytecode.  Pair ``i`` (from 1) runs both sides with seed ``i``.  For each
end-to-end metric of the base checkout's ``BENCHMARK.json`` it prints both
sides' medians and quartiles, the median over pairs of the ratio
changed / base, and the number of pairs the changed side wins.  ``claim``
reads ``yes`` where the changed side wins at least nine pairs in ten and
its median beats the base median by more than the base's interquartile
range.  A line starting ``FLAG`` names a metric whose changed median is
worse than the base median by more than its bound, a side whose runs
spread (interquartile range over median) wider than the bound, and a run
that failed or reported a failed operation.  The exit code is 1 if any
line is flagged.  ``--out`` writes the environment, numpy's SIMD targets
included, every run's metrics and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from cli_digests import run_checkout, simd_level


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its final JSON line, or an ``error``."""
    argv = [os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = run_checkout(checkout, argv, checkout)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}"}
    return {name: m["value"] for name, m in result["metrics"].items()} | {
        "failed": result["failed"], "attempted": result["attempted"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric: dict, base: list[float], changed: list[float]) -> dict:
    """Medians, quartiles, paired ratio, wins and flags of one metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    (a1, a2, a3), (b1, b2, b3) = quartiles(base), quartiles(changed)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(base, changed))
    gain = a2 - b2 if lower else b2 - a2
    flags = []
    if a2 and -gain / abs(a2) > bound:
        flags.append(f"changed median worse by {-gain / abs(a2):.1%}, bound {bound:.0%}")
    for side, (q1, q2, q3) in (("base", (a1, a2, a3)), ("changed", (b1, b2, b3))):
        if q2 and (q3 - q1) / abs(q2) > bound:
            flags.append(f"{side} runs spread {(q3 - q1) / abs(q2):.1%}, bound {bound:.0%}")
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "base": {"q1": a1, "median": a2, "q3": a3},
        "changed": {"q1": b1, "median": b2, "q3": b3},
        "ratio_median": statistics.median(b / a for a, b in zip(base, changed) if a),
        "wins": wins, "pairs": len(base),
        "claim": 10 * wins >= 9 * len(base) and gain > a3 - a1,
        "flags": flags,
    }


def environment() -> dict:
    return {"python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
            "simd": simd_level()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout whose BENCHMARK.json gives the bounds")
    parser.add_argument("changed", help="checkout compared against the base")
    parser.add_argument("--workload", required=True, choices=("grid", "queue", "dfo", "grid-par"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--out", help="write the environment, runs and summary here as JSON")
    ns = parser.parse_args(argv)
    if ns.pairs < 1 or ns.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    sides = {"base": os.path.abspath(ns.base), "changed": os.path.abspath(ns.changed)}
    with open(os.path.join(sides["base"], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    for checkout in sides.values():
        run_checkout(checkout, ["-m", "compileall", "-q", "src", "perfbench"], checkout)

    runs: dict[str, list[dict]] = {"base": [], "changed": []}
    flags = []
    for i in range(ns.pairs):
        order = ("base", "changed") if i % 2 == 0 else ("changed", "base")
        for side in order:
            run = run_side(sides[side], ns.workload, i + 1, ns.seconds)
            runs[side].append(run)
            if "error" in run:
                flags.append(f"{side} pair {i}: {run['error']}")
            elif run["failed"]:
                flags.append(f"{side} pair {i}: {run['failed']} of {run['attempted']} failed")
        print(f"pair {i + 1}/{ns.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)

    summary = {}
    ok = [i for i in range(ns.pairs) if not any("error" in runs[s][i] for s in runs)]
    print(f"{ns.workload}: {len(ok)} complete pairs of {ns.seconds:g} s runs")
    print(f"{'metric':<16}{'base q1/median/q3':>34}{'changed q1/median/q3':>34}"
          f"{'ratio':>8}{'wins':>7}  claim")
    for metric in metrics:
        name = metric["name"]
        base = [runs["base"][i][name] for i in ok if name in runs["base"][i]]
        changed = [runs["changed"][i][name] for i in ok if name in runs["changed"][i]]
        if not base or len(base) != len(changed):
            continue
        s = summary[name] = summarize(metric, base, changed)
        cols = ["/".join(f"{q:.4g}" for q in s[side].values()) for side in ("base", "changed")]
        print(f"{name:<16}{cols[0]:>34}{cols[1]:>34}{s['ratio_median']:>8.4f}"
              f"{s['wins']:>4}/{s['pairs']:<2}  {'yes' if s['claim'] else 'no'}")
        flags += [f"{name}: {flag}" for flag in s["flags"]]
    for flag in flags:
        print(f"FLAG {flag}")

    if ns.out:
        record = {"workload": ns.workload, "pairs": ns.pairs, "seconds": ns.seconds,
                  "checkouts": sides, "env": environment(),
                  "runs": runs, "summary": summary, "flags": flags}
        with open(ns.out, "w") as fh:
            json.dump(record, fh, indent=2)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
