"""Byte-identity check of corfd's CLI outputs across two checkouts.

Runs a fixed set of seeded ``corfd`` commands against the sources of one
checkout and prints one SHA-256 per command, taken over its exit code, its
stdout, its stderr and every file it wrote.  A change that leaves every
random stream and every output unchanged prints the same lines as its
parent:

    python3 tools/cli_digests.py <parent checkout> > parent.txt
    python3 tools/cli_digests.py . > change.txt
    diff parent.txt change.txt

Each command runs as ``python -m corfd.cli`` with ``PYTHONPATH`` set to the
checkout's ``src`` directory, in a fresh temporary directory.  The whole set
of 29 commands takes 10 to 17 seconds on a 2-core x86-64 machine.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

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

# (label, CORFD_THREADS, corfd arguments)
COMMANDS = [
    ("estimate-cor", "1", _ESTIMATE + ["--problem", "poly@3", "--method", "cor"]),
    ("estimate-opt", "1", _ESTIMATE + ["--problem", "poly@3", "--method", "opt"]),
    ("estimate-tra", "1", _ESTIMATE + ["--problem", "poly@3", "--method", "tra"]),
    ("estimate-boot", "1", _ESTIMATE + ["--problem", "poly@3", "--method", "boot", "--r", "0.5"]),
    # Batches of 16 normals miss [1.2, inf) about 14% of the time: those
    # rows draw on alone after the block of first batches.
    ("estimate-cor-sparse-L", "1", ["estimate", "--problem", "poly@3", "--method", "cor",
                                    "--pairs", "1000", "--reps", "200", "--L", "1.2"]),
    ("estimate-queue-I100", "1", _QUEUE),
    ("estimate-queue-L-U", "1", _QUEUE + ["--L", "0.5", "--U", "0.7"]),
    ("estimate-queue-gamma", "1", _QUEUE + ["--gamma", "-0.2"]),
    ("estimate-queue10-1e5", "1", _QUEUE_LONG),
    ("estimate-queue500-1e3", "1", _QUEUE500 + ["--pairs", "1000", "--reps", "3"]),
    ("estimate-queue500-1e4", "1", _QUEUE500 + ["--pairs", "10000", "--reps", "1"]),
    # Pilots near 1e-6 on a derivative of 1e18: small, but correctly scaled.
    ("estimate-sin1-small-pilots", "1", ["estimate", "--problem", "sin1", "--kappa", "1e18",
                                         "--mu0", "1e-6", "--sigma0", "1e-7", "--L", "1e-8",
                                         "--method", "cor", "--pairs", "1000", "--reps", "20"]),
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
    ("dfo-zakharov10", "1", ["dfo", "--problem", "zakharov@10", "--budget", "100000", "--seed", "1"]),
    # A memory of three pairs evicts its oldest pair from the fourth iteration on.
    ("dfo-zakharov10-memory3", "1", ["dfo", "--problem", "zakharov@10", "--budget", "100000",
                                     "--seed", "1", "--memory", "3"]),
    ("dfo-zakharov10-tra", "1", ["dfo", "--problem", "zakharov@10", "--budget", "100000",
                                 "--seed", "1", "--gradient-method", "tra"]),
    # d = 100 draws the largest pilot-coefficient block: 100 rows per stage.
    ("dfo-zakharov100", "1", ["dfo", "--problem", "zakharov@100", "--budget", "1000000",
                              "--seed", "0"]),
    ("dfo-rosenbrock", "1", ["dfo", "--problem", "rosenbrock", "--budget", "100000", "--seed", "2"]),
    ("diag", "1", ["diag", "--c", "1,1.5,2,2.5,3,3.5,4,4.5,5,5.5", "--fifth-const", "0.1"]),
]


def digest(checkout: str, threads: str, args: list[str]) -> str:
    """SHA-256 over the exit code, stdout, stderr and written files of one command."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"), "CORFD_THREADS": threads}
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "corfd.cli", *args], cwd=work, env=env,
                              capture_output=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        h = hashlib.sha256(b"exit %d\n" % proc.returncode)
        h.update(proc.stdout)
        h.update(b"\0stderr\0" + proc.stderr)
        for name in sorted(os.listdir(work)):
            h.update(b"\0" + name.encode() + b"\0")
            with open(os.path.join(work, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="repository root whose src/ is run")
    checkout = os.path.abspath(parser.parse_args(argv).checkout)
    for label, threads, args in COMMANDS:
        print(f"{digest(checkout, threads, args)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
