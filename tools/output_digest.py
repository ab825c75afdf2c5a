"""One sha256 per output file of a fixed set of shiftbnn commands.

Runs the package of the checkout this script sits in, with
``OPENBLAS_NUM_THREADS=1``, each command in turn:

* ``train`` for b-mlp, toy-conv and b-lenet under store and shift, paper
  and exact (seed 3, S=8, ``synthetic:count=64``): checkpoint, log, stdout;
* ``verify-equivalence`` for b-mlp and b-lenet (4 steps, S=8): both
  checkpoints, both EPSL logs, stdout with the elapsed time masked;
* ``cost-report`` with defaults and with ``--eps-double-read
  --samples-list 4,16``: stdout and CSV;
* ``rng-selftest`` at seeds 0 and 12: stdout.

Every command's exit code goes to ``exit_codes.txt``.  The listing goes to
stdout as ``<sha256>  <file>`` lines, sorted by file, so running this on
two commits and diffing the listings shows which outputs changed::

    python tools/output_digest.py > after.txt
    python tools/output_digest.py OUT_DIR   # keep the files in OUT_DIR

Without ``OUT_DIR`` the files go to a temporary directory that is removed
afterwards.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ELAPSED = re.compile(r"[0-9.]+s$", re.MULTILINE)


def runs():
    """(name, cli arguments, files the command writes) for each command."""
    for model in ("b-mlp", "toy-conv", "b-lenet"):
        for strategy in ("store", "shift"):
            for mode in ("paper", "exact"):
                name = f"train-{model}-{strategy}-{mode}"
                yield name, ["train", "--model", model, "--strategy", strategy,
                             "--grad-mode", mode, "--seed", "3", "--samples", "8",
                             "--dataset", "synthetic:count=64",
                             "--out", f"{name}.sbnn", "--report", f"{name}.log"], \
                    [f"{name}.sbnn", f"{name}.log"]
    for model in ("b-mlp", "b-lenet"):
        name = f"verify-{model}"
        yield name, ["verify-equivalence", "--model", model, "--steps", "4",
                     "--samples", "8", "--out", name], \
            [f"{name}.{side}{ext}" for side in ("store", "shift") for ext in ("", ".epsl")]
    for name, extra in (("cost-default", []),
                        ("cost-double-read", ["--eps-double-read", "--samples-list", "4,16"])):
        yield name, ["cost-report", "--report", f"{name}.csv", *extra], [f"{name}.csv"]
    for seed in ("0", "12"):
        yield f"rng-selftest-{seed}", ["rng-selftest", "--seed", seed], []


def write_outputs(out_dir: Path) -> list[str]:
    """Runs every command in ``out_dir``; the names of the files to hash."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    files, codes = [], []
    for name, args, written in runs():
        run = subprocess.run([sys.executable, "-m", "shiftbnn.cli", *args], cwd=out_dir,
                             env=env, capture_output=True, text=True)
        stdout = run.stdout
        if name.startswith("verify-"):
            stdout = ELAPSED.sub("<elapsed>s", stdout)
        (out_dir / f"{name}.stdout").write_text(stdout)
        codes.append(f"{name} {run.returncode}\n")
        files += [*written, f"{name}.stdout"]
    (out_dir / "exit_codes.txt").write_text("".join(codes))
    return sorted(files + ["exit_codes.txt"])


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(argv[0]) if argv else Path(tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in write_outputs(out_dir):
            path = out_dir / name
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() \
                else "missing"
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
