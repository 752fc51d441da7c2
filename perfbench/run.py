"""corfd benchmark: drives the package from outside, one process per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: grid, queue, dfo, grid-par (see perfbench/README.md).  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds``;
their times are CPU times rescaled by a host-speed probe (see probe.py).
With ``--trace 1`` it first makes the same untraced run, then replays the
same operations with every layer boundary traced, checks that the outputs
are bit-identical, and reports the per-layer metrics and the tracing
overhead.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a full result record are written
under ``.perfbench_out/``.
"""
from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import probe  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
NAMES = ("grid", "queue", "dfo", "grid-par")
SETUP_REPEATS = 5
# Starting an interpreter and importing is interpreted work.
SETUP_PROBE, SETUP_PROBE_REPS = "python", 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "evals_per_s": "evaluations/s",
    "estimate_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not in BENCHMARK.json.  With 15 to 35 operations
# per run on dfo and grid-par, the 90th percentile rests on few samples.  The
# wall-clock figures carry the host's drift that the bounded metrics remove;
# host_speed is the median over operations of the reference probe time over
# the probe time measured around the operation.
INFO_UNITS = {"estimate_ms_p90": "ms", "wall_pairs_per_s": "pairs/s",
              "wall_estimate_ms_p50": "ms", "host_speed": "ratio"}
PER_LAYER_UNITS = {
    "oracle.calls": "count", "oracle.draws": "count", "oracle.self_s": "s",
    "bootstrap.columns": "count", "bootstrap.resample_draws": "count",
    "bootstrap.bytes_computed": "B", "bootstrap.self_s": "s",
    "sampling.calls": "count", "sampling.self_s": "s", "sampling.pert_set_s": "s",
    "regression.calls": "count", "regression.self_s": "s",
    "estimators.calls": "count", "estimators.self_s": "s",
    "dfo.iterations": "count", "dfo.gradient_s": "s", "dfo.two_loop_s": "s",
    "dfo.line_search_s": "s", "dfo.ls_evals": "count", "dfo.ls_gave_up_frac": "ratio",
    "dfo.curvature_reject_frac": "ratio", "dfo.self_s": "s",
    "bench.cells": "count", "bench.cell_failures": "count", "bench.pools": "count",
    "bench.pool_s": "s", "bench.self_s": "s",
    "cli.self_s": "s", "cli.csv_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if ns.seed < 0:
        p.error("--seed must be nonnegative")
    if ns.seconds <= 0:
        p.error("--seconds must be positive")
    return ns


def import_corfd():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import corfd
    except ImportError as exc:
        sys.exit(f"error: cannot import corfd from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(corfd.__file__))) != SRC:
        sys.exit(f"error: imported corfd from {corfd.__file__}, not from {SRC}")
    return corfd


def environment(threads: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "CORFD_THREADS": threads,
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def measure_setup(code: str) -> float:
    """Median CPU time of a fresh interpreter importing corfd and building the
    workload's problems, over several set-ups, each rescaled by the probes
    around it."""
    prelude = f"import sys; sys.path.insert(0, {SRC!r}); "
    times = []
    before = probe.probe(SETUP_PROBE, SETUP_PROBE_REPS)
    for _ in range(SETUP_REPEATS):
        c0 = probe.cpu_s()
        subprocess.run([sys.executable, "-c", prelude + code], cwd=ROOT, check=True)
        cpu = probe.cpu_s() - c0
        after = probe.probe(SETUP_PROBE, SETUP_PROBE_REPS)
        times.append(cpu * probe.scale(SETUP_PROBE, before, after))
        before = after
    return statistics.median(times)


def run_op(workload, seed: int, i: int, before: float):
    """Run operation ``i``; ``before`` is the probe time measured just before
    it.  Returns the result, or None if the operation raised, and the probe
    time measured just after it."""
    w0, c0 = time.perf_counter(), probe.cpu_s()
    try:
        res = workload.op(seed, i)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        res = None
    cpu, wall = probe.cpu_s() - c0, time.perf_counter() - w0
    after = probe.probe(workload.probe, workload.probe_reps)
    if res is not None:
        res.wall_s = wall
        res.speed = probe.scale(workload.probe, before, after)
        res.seconds = cpu * res.speed
    return res, after


def run_ops(workload, seed: int, indices):
    """Run the operations ``indices`` in turn, each bracketed by probes."""
    results = []
    before = probe.probe(workload.probe, workload.probe_reps)
    for i in indices:
        res, before = run_op(workload, seed, i, before)
        results.append(res)
    return results


def run_loop(workload, seed: int, seconds: float):
    """Warm up with one operation, then run operations until ``seconds`` have
    passed and a round of the workload's cycle is complete."""
    before = probe.probe(workload.probe, workload.probe_reps)
    _, before = run_op(workload, seed, 0, before)
    results = []
    start = time.perf_counter()
    i = 0
    while True:
        res, before = run_op(workload, seed, i, before)
        results.append(res)
        i += 1
        if time.perf_counter() - start >= seconds and i % workload.cycle == 0:
            return results


def end_to_end(results, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the informational ones.  Times are CPU
    times rescaled to the probe's reference speed (see probe.py).  Rates are
    the run's total work over its total time: on dfo, the time of a fixed
    amount of work varies by about 12% from operation to operation, and a
    median over 35 such operations moved almost twice as much from run to
    run as the total did.  Latencies are medians over operations."""
    import numpy as np

    done = [r for r in results if r is not None]
    per_estimate_ms = [1e3 * r.seconds / r.estimates for r in done if r.estimates]
    seconds = sum(r.seconds for r in done)
    metrics = {
        "setup_s": setup_s,
        "pairs_per_s": sum(r.pairs for r in done) / seconds,
        "evals_per_s": sum(r.evals for r in done) / seconds,
        "estimate_ms_p50": statistics.median(per_estimate_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "estimate_ms_p90": float(np.percentile(per_estimate_ms, 90)),
        "wall_pairs_per_s": sum(r.pairs for r in done) / sum(r.wall_s for r in done),
        "wall_estimate_ms_p50": statistics.median(1e3 * r.wall_s / r.estimates for r in done if r.estimates),
        "host_speed": statistics.median(r.speed for r in done),
    }
    return metrics, info


def per_layer(tracer, untraced_s: float, traced_s: float) -> dict:
    c, self_s, total_s = tracer.counts, tracer.self_s, tracer.total_s

    def calls(*names):
        return sum(c[n + ".calls"] for n in names)

    searches = calls("dfo.stochastic_armijo")
    pushes = c["dfo.pushes"]
    return {
        "oracle.calls": calls("oracle.sample"),
        "oracle.draws": c["oracle.draws"],
        "oracle.self_s": self_s["oracle"],
        "bootstrap.columns": c["bootstrap.columns"],
        "bootstrap.resample_draws": c["bootstrap.resample_draws"],
        "bootstrap.bytes_computed": c["bootstrap.bytes_computed"],
        "bootstrap.self_s": self_s["bootstrap"],
        "sampling.calls": calls("sampling.difference_samples", "sampling.draw_perturbation_set"),
        "sampling.self_s": self_s["sampling"],
        "sampling.pert_set_s": total_s["sampling.draw_perturbation_set"],
        "regression.calls": calls("regression.fit_bias_wls", "regression.fit_var_wls",
                                  "regression.clamp_bias_constant", "regression.clamp_floor"),
        "regression.self_s": self_s["regression"],
        "estimators.calls": calls("estimators.tra_cfd", "estimators.opt_cfd",
                                  "estimators.boot_cfd", "estimators.cor_cfd"),
        "estimators.self_s": self_s["estimators"],
        "dfo.iterations": searches,
        "dfo.gradient_s": total_s["dfo.gradient_via_corcfd"],
        "dfo.two_loop_s": total_s["dfo.two_loop_direction"],
        "dfo.line_search_s": total_s["dfo.stochastic_armijo"],
        "dfo.ls_evals": c["dfo.ls_evals"],
        "dfo.ls_gave_up_frac": c["dfo.ls_gave_up"] / searches if searches else 0.0,
        "dfo.curvature_reject_frac": c["dfo.curvature_rejects"] / pushes if pushes else 0.0,
        "dfo.self_s": self_s["dfo"],
        "bench.cells": c["bench.cells"],
        "bench.cell_failures": c["bench.cell_failures"],
        "bench.pools": c["bench.pools"],
        "bench.pool_s": total_s["bench.pool"],
        "bench.self_s": self_s["bench"],
        "cli.self_s": self_s["cli"],
        "cli.csv_s": total_s["cli.emit_csv"],
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }


def run_workload(ns) -> int:
    from workloads import QUALITY_UNITS, WORKLOADS
    import spans

    workload = WORKLOADS[ns.workload]
    if workload.cpus:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:workload.cpus])
    os.environ["CORFD_THREADS"] = str(workload.threads)
    env = environment(workload.threads)
    tmp = os.path.join(OUT, "tmp-" + workload.name)
    os.makedirs(tmp, exist_ok=True)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    setup_s = measure_setup(workload.setup_code)
    workload.prepare(tmp)
    results = run_loop(workload, ns.seed, ns.seconds)
    ops = results
    (metrics, info), units = end_to_end(results, setup_s), END_TO_END_UNITS

    if ns.trace:
        # Replay a fixed number of operations, so that counts repeat exactly
        # for a seed whatever the speed of the program.
        if len(results) < workload.trace_ops:
            results += run_ops(workload, ns.seed, range(len(results), workload.trace_ops))
        replayed = results[:workload.trace_ops]
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            traced = run_ops(workload, ns.seed, range(len(replayed)))
        finally:
            tracer.restore()
        mismatched = sum(
            1 for a, b in zip(replayed, traced)
            if a is None or b is None or a.output != b.output
        )
        ops = results + traced
        untraced_s = sum(r.seconds for r in replayed if r is not None)
        traced_s = sum(r.seconds for r in traced if r is not None)
        metrics, units, info = per_layer(tracer, untraced_s, traced_s), PER_LAYER_UNITS, {}
        tracer.write(os.path.join(OUT, f"{workload.name}.spans.jsonl"))
        silent = [layer for layer in workload.stress if tracer.self_s.get(layer, 0.0) <= 0.0]
        checks = [
            ("traced_outputs_bit_identical", mismatched == 0,
             f"{mismatched} of {len(replayed)} operations differ"),
            ("stressed_layers_traced", not silent,
             f"layers {', '.join(workload.stress)} recorded spans" if not silent else f"no spans for {silent}"),
        ]
    else:
        checks = []

    quality, aggregate = workload.finish([r for r in results if r is not None])
    checks = [(name, bool(ok), detail) for name, ok, detail in aggregate + checks]
    failed_ops = sum(1 for r in ops if r is None or not r.ok)
    attempted = len(ops) + len(checks)
    failed = failed_ops + sum(1 for _, ok, _ in checks if not ok)

    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for name, value in info.items():
        print(f"info {name} = {value!r} {INFO_UNITS[name]}")
    for name, value in quality.items():
        print(f"quality {name} = {value!r} {QUALITY_UNITS[name]}")
    print(f"fail_frac = {failed / attempted!r} ratio ({failed} of {attempted})")
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")

    labelled = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record = {
        "workload": workload.name, "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
        "env": env, "operations": len(results),
        "op_seconds": [None if r is None else r.seconds for r in results],
        "metrics": labelled,
        "info": {k: {"value": v, "unit": INFO_UNITS[k]} for k, v in info.items()},
        "quality": {k: {"value": v, "unit": QUALITY_UNITS[k]} for k, v in quality.items()},
        "fail_frac": failed / attempted,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
    with open(os.path.join(OUT, f"{workload.name}.result.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": labelled,
    }))
    return 0


def run_all(ns) -> int:
    """Run every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(ns.seed),
                "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    ns = parse_args(argv)
    if ns.workload == "all":
        return run_all(ns)
    import_corfd()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(OUT, exist_ok=True)
    return run_workload(ns)


if __name__ == "__main__":
    sys.exit(main())
