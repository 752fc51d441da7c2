"""Byte-identity check of corfd's CLI outputs across two checkouts.

Runs a fixed set of seeded ``corfd`` commands against the sources of one
checkout and prints one SHA-256 per command, taken over its exit code, its
stdout, its stderr and every file it wrote.  A change that leaves every
random stream and every output unchanged prints the same lines as its
parent:

    python3 tools/cli_digests.py <parent checkout> > parent.txt
    python3 tools/cli_digests.py . > change.txt
    diff parent.txt change.txt

Given two checkouts, it runs each command on both and prints, for each
command whose digest differs, the largest relative difference over the
numbers in its stdout and its written CSV files, with the two values and
where they are, so that a change at the rounding level reports its size:

    python3 tools/cli_digests.py <parent checkout> .

A command whose exit code, stderr or text around those numbers differs is
marked ``text differs``.

Each command runs as ``python -m corfd.cli`` with ``PYTHONPATH`` set to the
checkout's ``src`` directory, in a fresh temporary directory.  A first line
names numpy's version and the SIMD targets it dispatches to: the digests
hold for one host and one numpy SIMD level, so digest files taken at
different levels differ visibly in that line.  The whole set
of 42 commands takes 11 to 14 seconds on a 2-core x86-64 machine, and up
to 27 seconds on a busy one.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

_ESTIMATE = ["estimate", "--pairs", "10000", "--reps", "5", "--seed", "3"]
_SIN1_GRID = ["bench", "--set", "problem=sin1", "--set", "methods=tra,opt,boot,cor",
              "--set", "budgets=100,1000", "--set", "reps=10", "--set", "r=0.5",
              "--set", "detail_out=detail.csv"]
# sin2 draws each row's normals scaled by its own sd, exp(-1.5 theta).
_SIN2_GRID = ["bench", "--set", "problem=sin2", "--set", "methods=tra,opt,boot,cor",
              "--set", "budgets=100,1000", "--set", "reps=10", "--set", "r=0.5",
              "--set", "kappa=3", "--set", "detail_out=detail.csv"]
# At 1e4 pairs a cell runs in batches of at most six replications, so its
# 20 replications cross batch boundaries (6, 6, 6 and 2), and with two or
# three threads a worker's task starts mid-cell.
_POLY3_GRID = ["bench", "--set", "problem=poly@3", "--set", "methods=tra,opt,boot,cor",
               "--set", "budgets=10000", "--set", "reps=20", "--set", "r=0.5",
               "--set", "detail_out=detail.csv"]
# Pilots of 5 x 20 pairs leave boot no fresh pairs at 100: that cell fails
# with a BudgetError on stderr, the others run, and the command exits 2.
_PARTIAL_FAILURE = ["bench", "--set", "methods=cor,boot,opt", "--set", "budgets=100,1000",
                    "--set", "K=5", "--set", "n_b=20", "--set", "detail_out=detail.csv"]
_QUEUE = ["estimate", "--problem", "queue@3,5,50,service", "--method", "cor",
          "--pairs", "1000", "--reps", "3", "--seed", "5", "--I", "100"]
# Pilot rows of 10,000 paths at 10 customers: each row is a difference block
# of its own, walked customer by customer.
_QUEUE_LONG = ["estimate", "--problem", "queue@4,4,10,service", "--method", "cor",
               "--pairs", "100000", "--reps", "3", "--seed", "3"]
# Pilot rows at 500 customers: rows of 100 paths share difference blocks,
# and at 10^4 pairs each 1,000-path row is a block of its own.
_QUEUE500 = ["estimate", "--problem", "queue@3,5,500,service", "--method", "cor", "--seed", "5"]
# Two threads cut each cell into batches of four replications, so a queue
# block holds other rows than it does in a serial run.
_QUEUE_GRID = ["bench", "--set", "problem=queue@3,5,50,service", "--set", "methods=tra,boot,cor",
               "--set", "budgets=1000,10000", "--set", "reps=8", "--set", "r=0.5",
               "--set", "detail_out=detail.csv"]

# Two threads cut each cell into batches of 20 replications, so one pilot
# draw takes the coefficients of 20 rows.
_MANY_ROWS_GRID = ["bench", "--set", "problem=poly@3", "--set", "methods=boot,cor",
                   "--set", "budgets=100,1000", "--set", "reps=40", "--set", "r=0.5",
                   "--set", "detail_out=detail.csv"]

# (label, CORFD_THREADS, corfd arguments)
COMMANDS = [
    ("estimate-cor", "1", _ESTIMATE + ["--problem", "poly@3", "--method", "cor"]),
    ("estimate-opt", "1", _ESTIMATE + ["--problem", "poly@3", "--method", "opt"]),
    ("estimate-tra", "1", _ESTIMATE + ["--problem", "poly@3", "--method", "tra"]),
    ("estimate-boot", "1", _ESTIMATE + ["--problem", "poly@3", "--method", "boot", "--r", "0.5"]),
    # Batches of 16 normals miss [1.2, inf) about 14% of the time: a row
    # with a miss draws its missing coefficients in a second round.
    ("estimate-cor-sparse-L", "1", ["estimate", "--problem", "poly@3", "--method", "cor",
                                    "--pairs", "1000", "--reps", "200", "--L", "1.2"]),
    ("estimate-queue-I100", "1", _QUEUE),
    ("estimate-queue-L-U", "1", _QUEUE + ["--L", "0.5", "--U", "0.7"]),
    ("estimate-queue-gamma", "1", _QUEUE + ["--gamma", "-0.2"]),
    ("estimate-queue10-1e5", "1", _QUEUE_LONG),
    ("estimate-queue500-1e3", "1", _QUEUE500 + ["--pairs", "1000", "--reps", "3"]),
    ("estimate-queue500-1e4", "1", _QUEUE500 + ["--pairs", "10000", "--reps", "1"]),
    # Two rows of 50 paths at 500 customers share one difference block,
    # which is walked as one piece of 100 paths.
    ("estimate-queue500-tra-50", "1", ["estimate", "--problem", "queue@3,5,500,service",
                                       "--method", "tra", "--pairs", "50", "--reps", "3",
                                       "--seed", "1"]),
    # Arrival rates and the wait measure: the block's other selectors.
    ("estimate-queue50-arrival-wait", "1", ["estimate", "--problem", "queue@3,5,50,arrival,wait",
                                            "--method", "cor", "--pairs", "1000", "--reps", "3",
                                            "--seed", "5"]),
    # Pilots near 1e-6 on a derivative of 1e18: small, but correctly scaled.
    ("estimate-sin1-small-pilots", "1", ["estimate", "--problem", "sin1", "--kappa", "1e18",
                                         "--mu0", "1e-6", "--sigma0", "1e-7", "--L", "1e-8",
                                         "--method", "cor", "--pairs", "1000", "--reps", "20"]),
    # The quotients at h = 1e-310 overflow: one EstimationError line, exit 1.
    ("estimate-sin1-tra-h-tiny", "1", ["estimate", "--problem", "sin1", "--method", "tra",
                                       "--pairs", "100", "--h", "1e-310"]),
    ("bench-default", "1", ["bench", "--set", "reps=5"]),
    ("bench-sin1-serial", "1", _SIN1_GRID),
    ("bench-sin1-threads2", "2", _SIN1_GRID),
    ("bench-sin2-threads2", "2", _SIN2_GRID),
    ("bench-poly3-batches-serial", "1", _POLY3_GRID),
    ("bench-poly3-batches-threads2", "2", _POLY3_GRID),
    ("bench-poly3-batches-threads3", "3", _POLY3_GRID),
    # Each cell's 20 replications run in four batches of five: the caller
    # and three workers take one batch of each cell.
    ("bench-poly3-batches-threads4", "4", _POLY3_GRID),
    ("bench-partial-failure-serial", "1", _PARTIAL_FAILURE),
    ("bench-partial-failure-threads2", "2", _PARTIAL_FAILURE),
    ("bench-queue-threads2", "2", _QUEUE_GRID),
    # zakharov knows no derivative: the summary is taken against truth=.
    ("bench-zakharov2-truth", "1", ["bench", "--set", "problem=zakharov@2", "--set",
                                    "methods=tra,cor", "--set", "budgets=100,1000",
                                    "--set", "reps=5", "--set", "truth=10.25",
                                    "--set", "detail_out=detail.csv"]),
    # Rows whose batches miss [1.2, inf) finish in later rounds than the rest.
    ("bench-many-rows-sparse-L-threads2", "2", _MANY_ROWS_GRID + ["--set", "L=1.2"]),
    # [0.5, 0.7] holds under 0.1 of the normal's mass: inverse-CDF coefficients.
    ("bench-many-rows-L-U-threads2", "2", _MANY_ROWS_GRID + ["--set", "L=0.5", "--set", "U=0.7"]),
    ("dfo-zakharov10", "1", ["dfo", "--problem", "zakharov@10", "--budget", "100000", "--seed", "1"]),
    # A memory of three pairs evicts its oldest pair from the fourth iteration on.
    ("dfo-zakharov10-memory3", "1", ["dfo", "--problem", "zakharov@10", "--budget", "100000",
                                     "--seed", "1", "--memory", "3"]),
    # K = 3 pilot perturbations: the other dfo commands all run K = 5.
    ("dfo-zakharov10-K3", "1", ["dfo", "--problem", "zakharov@10", "--budget", "100000",
                                "--seed", "1", "--K", "3", "--T0", "12"]),
    ("dfo-zakharov10-tra", "1", ["dfo", "--problem", "zakharov@10", "--budget", "100000",
                                 "--seed", "1", "--gradient-method", "tra"]),
    # d = 100 draws the largest pilot-coefficient block: 100 rows per stage.
    ("dfo-zakharov100", "1", ["dfo", "--problem", "zakharov@100", "--budget", "1000000",
                              "--seed", "0"]),
    # Each gradient draws 10 pilot rows of 4 paths, and each line-search
    # trial draws one path.
    ("dfo-queue10", "1", ["dfo", "--problem", "queue@3,5,10,service", "--budget", "2000",
                          "--seed", "1"]),
    # The first line-search trials of 1e3 leave the queue's domain and are rejected.
    ("dfo-queue10-a0-1e3", "1", ["dfo", "--problem", "queue@3,5,10,service", "--budget", "2000",
                                 "--a0", "1e3"]),
    ("dfo-rosenbrock", "1", ["dfo", "--problem", "rosenbrock", "--budget", "100000", "--seed", "2"]),
    # The trace's f_true column reads the sine and polynomial mean at each iterate.
    ("dfo-sin2", "1", ["dfo", "--problem", "sin2", "--budget", "20000", "--seed", "1"]),
    ("dfo-poly3", "1", ["dfo", "--problem", "poly@3", "--budget", "20000", "--seed", "1"]),
    # Every line-search trial from 1e100 down overflows Zakharov's quartic
    # term: each search gives up with step 0 and the run stays at its start.
    ("dfo-zakharov10-a0-1e100", "1", ["dfo", "--problem", "zakharov@10", "--budget", "20000",
                                      "--seed", "1", "--a0", "1e100"]),
    # Line-search trial points from 1e308 leave the float range; each is
    # drawn, refused as a non-finite response and rejected.
    ("dfo-sin1-a0-1e308", "1", ["dfo", "--problem", "sin1", "--budget", "500", "--seed", "1",
                                "--a0", "1e308"]),
    ("diag", "1", ["diag", "--c", "1,1.5,2,2.5,3,3.5,4,4.5,5,5.5", "--fifth-const", "0.1"]),
]


def run_checkout(checkout: str, argv: list[str], cwd: str, **env) -> subprocess.CompletedProcess:
    """Run this interpreter on ``argv`` with ``PYTHONPATH`` set to the
    checkout's ``src`` and ``env`` added to the environment, capturing its
    output as bytes."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"), **env}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True)


def outputs(checkout: str, threads: str, args: list[str]):
    """One command's finished process and the files it wrote, by name."""
    with tempfile.TemporaryDirectory() as work:
        proc = run_checkout(checkout, ["-m", "corfd.cli", *args], work, CORFD_THREADS=threads)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        files = {}
        for name in sorted(os.listdir(work)):
            with open(os.path.join(work, name), "rb") as fh:
                files[name] = fh.read()
    return proc, files


def digest(proc: subprocess.CompletedProcess, files: dict[str, bytes]) -> str:
    """SHA-256 over the exit code, stdout, stderr and written files of one command."""
    h = hashlib.sha256(b"exit %d\n" % proc.returncode)
    h.update(proc.stdout)
    h.update(b"\0stderr\0" + proc.stderr)
    for name, data in files.items():
        h.update(b"\0" + name.encode() + b"\0")
        h.update(data)
    return h.hexdigest()


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def largest_difference(base, changed) -> str:
    """The largest relative difference between the numbers of two runs'
    stdout and CSV files, with where it is and its two values; ``text
    differs`` when their exit codes, stderr, file names or the text around
    those numbers differ."""
    (proc_a, files_a), (proc_b, files_b) = base, changed
    text_differs = (proc_a.returncode, proc_a.stderr, list(files_a)) != (
        proc_b.returncode, proc_b.stderr, list(files_b))
    texts = [("stdout", proc_a.stdout, proc_b.stdout)] + [
        (name, data, files_b.get(name, b"")) for name, data in files_a.items()
        if name.endswith(".csv")]
    worst, where = 0.0, ""
    for name, a, b in texts:
        if _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
            text_differs = True
            continue
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            u, v = float(x), float(y)
            rel = abs(u - v) / max(abs(u), abs(v)) if u != v else 0.0
            if rel > worst:
                worst, where = rel, f"  {name}: {x.decode()} -> {y.decode()}"
    return f"{worst:.2g}{where}" + ("  text differs" if text_differs else "")


def simd_level() -> str:
    """numpy's version and its enabled SIMD dispatch targets, which
    ``NPY_DISABLE_CPU_FEATURES`` narrows."""
    return f"numpy {np.__version__} {[t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="repository root whose src/ is run")
    parser.add_argument("changed", nargs="?",
                        help="a second checkout: print how far each differing command moved")
    opts = parser.parse_args(argv)
    checkout = os.path.abspath(opts.checkout)
    print(f"# {simd_level()}", flush=True)
    for label, threads, args in COMMANDS:
        base = outputs(checkout, threads, args)
        if opts.changed is None:
            print(f"{digest(*base)}  {label}", flush=True)
            continue
        changed = outputs(os.path.abspath(opts.changed), threads, args)
        if digest(*changed) != digest(*base):
            print(f"{label}  {largest_difference(base, changed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
