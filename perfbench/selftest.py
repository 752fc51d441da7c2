"""Self-test of the benchmark.

Runs every workload traced, on two seeds, each in its own process, and
checks that:

- every layer records spans on the workload meant to stress it, and every
  layer is stressed by some workload;
- the traced replay reproduces the untraced estimates and CSV outputs bit
  for bit, so the wrappers do not change how random streams are consumed;
- every correctness check passes, on both seeds.

Run from the repository root (about four minutes on two cores):

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)
SECONDS = 2
REQUIRED = ("traced_outputs_bit_identical", "stressed_layers_traced")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from spans import LAYERS
    from workloads import WORKLOADS

    failures = []
    unstressed = set(LAYERS) - {layer for w in WORKLOADS.values() for layer in w.stress}
    if unstressed:
        failures.append(f"layers stressed by no workload: {sorted(unstressed)}")
    for name in WORKLOADS:
        for seed in SEEDS:
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"]
            result_path = os.path.join(ROOT, ".perfbench_out", f"{name}.result.json")
            if os.path.exists(result_path):
                os.remove(result_path)
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if not os.path.exists(result_path):
                failures.append(f"{name} seed {seed}: exit {proc.returncode}, no result")
                continue
            with open(result_path) as fh:
                record = json.load(fh)
            checks = {c["name"]: c for c in record["checks"]}
            missing = [c for c in REQUIRED if c not in checks]
            bad = [f"{c['name']}: {c['detail']}" for c in record["checks"] if not c["ok"]]
            if proc.returncode != 0 or missing or bad or record["fail_frac"] != 0:
                failures.append(f"{name} seed {seed}: exit {proc.returncode}, missing {missing}, "
                                f"failed {bad}, fail_frac {record['fail_frac']}")
                status = "FAIL"
            else:
                status = "ok"
            print(f"{status} {name} seed {seed}: " + "; ".join(
                f"{c['name']} ({c['detail']})" for c in record["checks"]), flush=True)
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
