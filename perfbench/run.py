"""Benchmark of the QAOA warm-start system, end to end and layer by layer.

Usage::

    python3 perfbench/run.py --workload {miss,hit} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
metrics are the end-to-end ones with ``--trace 0`` and the per-layer
ones with ``--trace 1``. Lines before it carry the run's details: the
machine fingerprint, sample counts and check failures. See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("miss", "hit")
#: One BLAS thread for the benchmark and the servers it starts, unless
#: the caller set its own; the fingerprint records the effective value.
#: On the two-vCPU machine this was tuned on, the default OpenBLAS
#: helper thread spins on the second vCPU and slows the thread doing the
#: work, for seconds at a time, while the program only multiplies
#: matrices of a few dozen rows.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exit, so the finally blocks stop the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(
            f"error: the program's sources (src/repro) are missing under {ROOT}",
            file=sys.stderr,
        )
        return 2
    for name, value in BLAS_THREADS.items():
        os.environ.setdefault(name, value)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(workdir / "kernels")
    try:
        start = time.perf_counter()
        from perfbench.session import run  # imports the program

        import_s = time.perf_counter() - start
        details, result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
            workdir, import_s,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
