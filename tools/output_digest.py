"""One sha256 per output file of a fixed set of shiftbnn commands.

Runs the package of the checkout this script sits in, with
``OPENBLAS_NUM_THREADS=1``, each command in turn:

* ``train`` for b-mlp, toy-conv and b-lenet under store and shift, paper
  and exact (seed 3, S=8, ``synthetic:count=64``): checkpoint, log, stdout;
* ``train`` for b-mlp and b-lenet on an IDX directory of 28x28 examples
  that this script writes from ``data.synthetic_dataset`` (b-lenet takes
  3x32x32, so it exits 2): the IDX files, checkpoint, log, stdout;
* ``train`` for b-mlp on ``idx-cut-gz``, a copy of that directory whose
  training images are gzip-compressed and cut to half their length, and on
  ``idx-bad-crc-gz``, a copy whose gzip-compressed training images have a
  zeroed CRC trailer; both exit 2: stdout;
* ``train`` for toy-conv with ``--out missing/x.sbnn``, a directory that
  does not exist, and with ``--out idx``, a directory itself; both exit 2:
  stdout;
* ``train-same-out-report``: ``train`` for toy-conv with ``--out
  same.sbnn --report ./same.sbnn``, one file, so it exits 2: stdout;
* ``train-nonfinite``: ``train`` for toy-conv with ``--lr 1e30``
  (``synthetic:count=32``, S=1), whose loss turns nan at step 2, so it
  exits 3: the report (``missing``: no epoch ends), stdout;
* ``verify-equivalence`` for b-mlp and b-lenet (4 steps, S=8): both
  checkpoints, both EPSL logs, stdout with the elapsed time masked;
* its negative control, b-lenet with ``--corrupt-second-pass`` (1 step,
  S=2), which exits 1: both checkpoints, both EPSL logs, stdout;
* ``verify-switch-off``: toy-conv (1 step, S=1) with a config file that
  sets ``corrupt_second_pass = true`` and ``--corrupt-second-pass false``
  on the command line, which wins, so it exits 0: both checkpoints, both
  EPSL logs, stdout;
* ``verify-equivalence`` for toy-conv (2 steps, S=2) with ``--out
  verify-dir-out``, where ``verify-dir-out.store`` is a directory this
  script makes, so it exits 2: both EPSL logs (``missing`` when nothing was
  written), stdout;
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

import gzip
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from shiftbnn import data  # noqa: E402

ELAPSED = re.compile(r"[0-9.]+s$", re.MULTILINE)
IDX_FILES = (("idx/train-images-idx3-ubyte", "idx/train-labels-idx1-ubyte"),
             ("idx/t10k-images-idx3-ubyte", "idx/t10k-labels-idx1-ubyte"))


def write_idx_dir(out_dir: Path) -> list[str]:
    """64 b-mlp-shaped (28x28, 10 classes) examples per split as IDX files
    under ``out_dir/idx``, and two copies with the training images as a
    .gz file: under ``out_dir/idx-cut-gz`` cut to half its length, under
    ``out_dir/idx-bad-crc-gz`` whole but with its CRC-32 zeroed; the names
    of the files under ``idx``."""
    (out_dir / "idx").mkdir(exist_ok=True)
    for seed, (images, labels) in enumerate(IDX_FILES):
        x, y = data.synthetic_dataset(seed, 64, (28, 28), 10)
        data.write_idx_images(out_dir / images, x)
        data.write_idx_labels(out_dir / labels, y)
    names = [name for pair in IDX_FILES for name in pair]
    for copy_dir, damage in (("idx-cut-gz", lambda gz: gz[:len(gz) // 2]),
                             ("idx-bad-crc-gz", lambda gz: gz[:-8] + bytes(4) + gz[-4:])):
        (out_dir / copy_dir).mkdir(exist_ok=True)
        for name in names:
            raw, copy = (out_dir / name).read_bytes(), out_dir / copy_dir / Path(name).name
            if name == IDX_FILES[0][0]:
                raw = damage(gzip.compress(raw, mtime=0))
                copy = copy.with_name(copy.name + ".gz")
            copy.write_bytes(raw)
    return names


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
        name = f"train-{model}-idx"
        yield name, ["train", "--model", model, "--dataset", "idx", "--seed", "3",
                     "--samples", "8", "--batch", "16", "--epochs", "2",
                     "--out", f"{name}.sbnn", "--report", f"{name}.log"], \
            [f"{name}.sbnn", f"{name}.log"] if model == "b-mlp" else []
    for damaged in ("idx-cut-gz", "idx-bad-crc-gz"):
        yield f"train-{damaged}", ["train", "--model", "b-mlp", "--dataset", damaged,
                                   "--out", f"{damaged}.sbnn"], []
    for name, out in (("train-missing-out", "missing/x.sbnn"), ("train-dir-out", "idx")):
        yield name, ["train", "--model", "toy-conv", "--dataset", "synthetic:count=64",
                     "--epochs", "2", "--out", out], []
    yield "train-same-out-report", ["train", "--model", "toy-conv",
                                    "--dataset", "synthetic:count=16", "--samples", "1",
                                    "--epochs", "2", "--out", "same.sbnn",
                                    "--report", "./same.sbnn"], []
    yield "train-nonfinite", ["train", "--model", "toy-conv", "--dataset", "synthetic:count=32",
                              "--samples", "1", "--lr", "1e30", "--report", "nonfinite.log",
                              "--out", "nonfinite.sbnn"], ["nonfinite.log"]
    for model in ("b-mlp", "b-lenet"):
        name = f"verify-{model}"
        yield name, ["verify-equivalence", "--model", model, "--steps", "4",
                     "--samples", "8", "--out", name], \
            [f"{name}.{side}{ext}" for side in ("store", "shift") for ext in ("", ".epsl")]
    name = "verify-b-lenet-corrupt"
    yield name, ["verify-equivalence", "--model", "b-lenet", "--steps", "1", "--samples", "2",
                 "--corrupt-second-pass", "--out", name], \
        [f"{name}.{side}{ext}" for side in ("store", "shift") for ext in ("", ".epsl")]
    name = "verify-switch-off"
    yield name, ["verify-equivalence", "--model", "toy-conv", "--steps", "1", "--samples", "1",
                 "--config", "switch-on.conf", "--corrupt-second-pass", "false",
                 "--out", name], \
        [f"{name}.{side}{ext}" for side in ("store", "shift") for ext in ("", ".epsl")]
    name = "verify-dir-out"
    yield name, ["verify-equivalence", "--model", "toy-conv", "--steps", "2", "--samples", "2",
                 "--out", name], [f"{name}.{side}.epsl" for side in ("store", "shift")]
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
    files, codes = write_idx_dir(out_dir), []
    (out_dir / "verify-dir-out.store").mkdir(exist_ok=True)
    (out_dir / "switch-on.conf").write_text("corrupt_second_pass = true\n")
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
