"""shiftbnn benchmark: one run of one workload.

    python3 perfbench/run.py --workload bmlp-s8 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  The line before it records
the machine.  Workloads and metrics are described in ``bench.py`` and
``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: OpenBLAS threads; fixed before numpy loads so every run uses the same count
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bmlp-s8", "blenet-s8"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "shiftbnn" / "__init__.py").is_file():
        print(f"no shiftbnn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    result, gates = bench.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), str(ROOT))
    for gate in sorted(gates.attempted):
        print(f"gate {gate}: {gates.failed[gate]} failed of {gates.attempted[gate]}",
              file=sys.stderr)
    print("machine " + json.dumps(machine()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
