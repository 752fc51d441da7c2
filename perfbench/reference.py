"""Compute the committed reference derivative of the queue workload.

The queue workload estimates d E[Y] / d mu for ``queue@3,5,500,service``
(average time in system of the first 500 customers, derivative in the
service rate).  The reference is a common-random-number central difference:
both sides of each pair replay the same stream, so the difference of the
paths is smooth in mu and its variance stays bounded as delta shrinks.  At
delta = 1e-3 the O(delta^2) bias is far below the standard error.

Run from the repository root (takes about a minute on one core):

    python3 perfbench/reference.py

It rewrites ``perfbench/reference.json``.
"""
from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from corfd import parse_problem, stream  # noqa: E402

PROBLEM = "queue@3,5,500,service"
DELTA = 1e-3
BATCHES = 10
BATCH_SIZE = 100_000
SEED = 20240508


def main() -> None:
    problem = parse_problem(PROBLEM)
    mu = float(problem.theta0[0])
    diffs = []
    for b in range(BATCHES):
        up = problem.oracle.sample(np.array([mu + DELTA]), stream(SEED, b), BATCH_SIZE)
        down = problem.oracle.sample(np.array([mu - DELTA]), stream(SEED, b), BATCH_SIZE)
        diffs.append((up - down) / (2.0 * DELTA))
    d = np.concatenate(diffs)
    out = {
        "problem": PROBLEM,
        "method": "common-random-number central difference",
        "delta": DELTA,
        "paths": int(d.size),
        "seed": SEED,
        "deriv": float(d.mean()),
        "stderr": float(d.std(ddof=1) / np.sqrt(d.size)),
    }
    with open(os.path.join(ROOT, "perfbench", "reference.json"), "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
