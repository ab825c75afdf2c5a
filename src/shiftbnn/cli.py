"""Command-line harness: train, verify-equivalence, cost-report, rng-selftest.

``SETTINGS`` gives each setting one parser, one default and the values it
takes; ``COMMANDS`` lists the settings each command reads.  Each command's
flags, the keys its config file may hold and ``resolve`` all derive from
that table, so an unknown key or an out-of-range value exits 2 with an
``error:`` line.  Precedence is flags > config file > defaults.  The config
file is flat ``key = value`` text; keys use the same names as the long
flags with dashes replaced by underscores.  Every command is deterministic
given its flags: all randomness flows from --seed, and ``main`` runs
numpy's OpenBLAS on one thread, so sums come out the same whatever
``OPENBLAS_NUM_THREADS`` says.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import costmodel, data, grng, lfsr, nn, train


class ConfigError(ValueError):
    pass


def _at_least(low, convert=int):
    def parse(raw):
        value = convert(raw)
        if not low <= value < math.inf:  # also rejects nan
            raise ValueError(raw)
        return value
    return parse


def _one_of(*choices):
    def parse(raw):
        if raw not in choices:
            raise ValueError(raw)
        return raw
    return parse


def _switch(raw):
    word = raw.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(raw)
    return word in ("1", "true", "yes", "on")


_count = _at_least(1)


def _path(raw):
    if not raw:
        raise ValueError(raw)
    return raw


class Setting(NamedTuple):
    parse: Callable[[str], object]
    default: object  # None: the command picks (batch, kl_scale) or skips (limit, report)
    takes: str  # what parse accepts, for --help and error lines


SETTINGS = {
    "model": Setting(str, "b-mlp", "a network name"),
    "dataset": Setting(str, "synthetic", "synthetic[:key=value,...] or an IDX directory"),
    "samples": Setting(_count, 8, "an integer >= 1"),
    "strategy": Setting(_one_of("store", "shift"), "shift", "store or shift"),
    "grad_mode": Setting(_one_of("paper", "exact"), "paper", "paper or exact"),
    "epochs": Setting(_count, 1, "an integer >= 1"),
    "lr": Setting(_at_least(0.0, float), 1e-3, "a finite number >= 0"),
    "seed": Setting(_at_least(0), 0, "an integer >= 0"),
    "batch": Setting(_count, None, "an integer >= 1"),  # 128 for IDX, 8 for synthetic
    "kl_scale": Setting(_at_least(0.0, float), None, "a finite number >= 0"),  # 1 / batches
    "limit": Setting(_count, None, "an integer >= 1"),
    "steps": Setting(_count, 50, "an integer >= 1"),
    "out": Setting(_path, "checkpoint.sbnn", "a non-empty path"),
    "report": Setting(_path, None, "a non-empty path"),
    "eps_double_read": Setting(_switch, False, "true or false"),
    # negative control: the SHIFT trainer gets another tap set
    "corrupt_second_pass": Setting(_switch, False, "true or false"),
    "samples_list": Setting(lambda raw: [_count(s) for s in raw.split(",")],
                            (8, 16, 32, 64, 128), "comma-separated integers >= 1"),
    "models": Setting(str, "all", "all or comma-separated network names"),
}

COMMANDS = {
    "train": ("model", "dataset", "samples", "strategy", "grad_mode", "epochs",
              "lr", "seed", "batch", "kl_scale", "limit", "out", "report"),
    "verify-equivalence": ("model", "dataset", "samples", "grad_mode", "lr",
                           "seed", "batch", "steps", "out", "corrupt_second_pass"),
    "cost-report": ("models", "samples_list", "eps_double_read", "report"),
    "rng-selftest": ("seed",),
}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' comments and blank lines ignored."""
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _parse(key: str, raw: str):
    setting = SETTINGS[key]
    try:
        return setting.parse(raw)
    except ValueError:
        raise ConfigError(f"{key.replace('_', '-')} must be {setting.takes}, "
                          f"got {raw!r}") from None


def resolve(args: argparse.Namespace) -> dict:
    """The settings ``args.command`` reads: flags over config file over defaults."""
    names = COMMANDS[args.command]
    raw = parse_config_file(args.config) if args.config else {}
    for key in raw:
        if key not in names:
            raise ConfigError(f"unknown config key {key!r} for {args.command} "
                              f"(have {', '.join(names)})")
    flags = vars(args)
    raw.update((key, flags[key]) for key in names if flags[key] is not None)
    settings = {key: SETTINGS[key].default for key in names}
    settings.update((key, _parse(key, text)) for key, text in raw.items())
    return settings


# ---------------------------------------------------------------------------
# dataset plumbing
# ---------------------------------------------------------------------------

_IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _find_idx(directory: str, stem: str) -> str:
    for candidate in (stem, stem + ".gz"):
        path = os.path.join(directory, candidate)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"no {stem}[.gz] under {directory}")


def _load_split(settings: dict, split: str, model: train.Model):
    """(examples, labels) of one split of --dataset: 'synthetic[:count=...,
    classes=...]', drawn from --seed in the network's input shape, or an IDX
    directory.  Every label must name one of the network's outputs, whose
    count is carried through the layers' ``out_shape``, and every example
    must have the network's input shape; anything else is a ShapeMismatch.
    """
    spec = settings["dataset"]
    name, colon, options = spec.partition(":")
    if name == "synthetic":
        opts = {"count": 512, "classes": 4}
        if colon:
            for item in options.split(","):
                key, _, raw = item.partition("=")
                if key not in opts:
                    raise ConfigError(f"unknown synthetic option {key!r}")
                try:
                    opts[key] = _count(raw)
                except ValueError:
                    raise ConfigError(f"dataset must be synthetic with {key} an integer "
                                      f">= 1, got {raw!r}") from None
        # one doubled draw sliced in half keeps the class templates shared
        # between the splits while the examples stay disjoint
        images, labels = data.synthetic_dataset(settings["seed"], opts["count"] * 2,
                                                model.input_shape, opts["classes"])
        half = slice(opts["count"], None) if split == "test" else slice(opts["count"])
        images, labels = images[half], labels[half]
    elif os.path.isdir(spec):
        images, labels = data.load_idx(*(_find_idx(spec, stem) for stem in _IDX_NAMES[split]))
        if not len(labels):
            raise ConfigError(f"dataset {spec} has no {split} examples")
    else:
        raise ConfigError(f"dataset {spec!r} is neither 'synthetic' nor a directory")
    shape = model.input_shape
    for layer in model.layers:
        shape = layer.out_shape(shape)
    if labels.max() >= shape[0]:
        raise ConfigError(f"dataset {spec} has {split} label "
                          f"{labels.max()}, but {model.name} has {shape[0]} outputs")
    got = images.shape[1:]
    if got != model.input_shape:
        raise nn.ShapeMismatch(f"{model.name} takes {'x'.join(map(str, model.input_shape))} "
                               f"inputs, got {'x'.join(map(str, got))}")
    return images, labels


def _check_out_dirs(*paths) -> None:
    """Before any work: each file a command will write has a directory to go
    in, is not a directory itself, and is not another of ``paths``."""
    seen = {}
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path}: no directory {os.path.dirname(path)}")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"cannot write {path}: it is the same file as {seen[real]}")
        seen[real] = path


def _lookup(table: dict, name: str, what: str):
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r} (have {sorted(table)})")
    return table[name]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _trainer(settings: dict, model: train.Model, strategy: str, kl_scale: float = 1.0,
             cls=train.Trainer, taps=None) -> train.Trainer:
    """A ``cls`` trainer of ``model``, its parameters drawn from --seed."""
    cfg = train.TrainConfig(
        S=settings["samples"], lr=settings["lr"], grad_mode=settings["grad_mode"],
        epsilon_strategy=strategy, master_seed=settings["seed"], kl_scale=kl_scale,
    )
    model.init_params(cfg)
    return cls(model, cfg, taps=taps)


def run_train(settings: dict) -> int:
    _check_out_dirs(settings["out"], settings["report"])
    model = _lookup(train.MODEL_BUILDERS, settings["model"], "model")()
    x_train, y_train = _load_split(settings, "train", model)
    x_val, y_val = _load_split(settings, "test", model)
    if settings["limit"]:
        x_train, y_train = x_train[:settings["limit"]], y_train[:settings["limit"]]

    batch = settings["batch"] or (128 if os.path.isdir(settings["dataset"]) else 8)
    kl = settings["kl_scale"]
    if kl is None:
        kl = 1.0 / math.ceil(len(x_train) / batch)
    trainer = _trainer(settings, model, settings["strategy"], kl_scale=kl)

    step = 0
    # the report is opened when its first line is due, so a run that fails
    # in its first epoch leaves an existing report as it was
    report = None
    with contextlib.ExitStack() as stack:
        for epoch in range(1, settings["epochs"] + 1):
            for lo in range(0, len(x_train), batch):
                loss = trainer.train_step(x_train[lo:lo + batch],
                                          y_train[lo:lo + batch])
                step += 1
                if not math.isfinite(loss.total):
                    print(f"error: non-finite loss {loss.total} at epoch "
                          f"{epoch} step {step} "
                          f"(nll={loss.likelihood_nll}, "
                          f"post={loss.log_posterior}, "
                          f"prior={loss.neg_log_prior})", file=sys.stderr)
                    return 3
            line = f"{epoch},{step},{loss.total:.6f},{trainer.accuracy(x_val, y_val):.4f}"
            print(line)
            if report is None:
                report = stack.enter_context(open(settings["report"] or os.devnull, "w"))
            print(line, file=report, flush=True)
    train.save_checkpoint(settings["out"], model)
    return 0


class _RetrievalRecorder(train.Trainer):
    """A trainer that keeps copies of the counts its latest step retrieved
    (SHIFT) or read back from its log (STORE), by (sample, layer id), in
    ``retrieved``; each step starts a new dict.  SHIFT retrieves into a
    buffer the next layer reuses, hence the copies."""

    def train_step(self, x, y):
        self.retrieved = {}
        return super().train_step(x, y)

    def _counts(self, sample_id, layer_id, layer, backward):
        counts = super()._counts(sample_id, layer_id, layer, backward)
        if backward:
            self.retrieved[(sample_id, layer_id)] = counts.copy()
        return counts


def run_verify_equivalence(settings: dict) -> int:
    """Steps a STORE and a SHIFT trainer in lockstep on the same batches.

    After each step, the counts SHIFT retrieved must equal the ones STORE
    read back from its log, key by key in (sample, layer) order; both
    sides go to their EPSL logs as they come, so only one step's counts
    are held.
    """
    steps, out = settings["steps"], settings["out"]
    _check_out_dirs(*(out + suffix for suffix in (".store", ".shift", ".store.epsl",
                                                  ".shift.epsl")))
    started = time.time()
    build = _lookup(train.MODEL_BUILDERS, settings["model"], "model")
    store = _trainer(settings, build(), "store", cls=_RetrievalRecorder)
    x, y = _load_split(settings, "train", store.model)
    n = train.NOISE_TAPS.width
    taps = lfsr.TapSet(n, (1, 2, 3, n)) if settings["corrupt_second_pass"] else None
    shift = _trainer(settings, build(), "shift", cls=_RetrievalRecorder, taps=taps)
    batch = settings["batch"] or 8
    draws = steps * settings["samples"] * sum(
        l.weight_count for _, l in store.model.bayes_layers())

    first = None  # (step, sample, layer, draw, generated, retrieved)
    with open(out + ".store.epsl", "wb") as log_a, open(out + ".shift.epsl", "wb") as log_b:
        grng.write_epsilon_header(log_a, store.n, draws)
        grng.write_epsilon_header(log_b, store.n, draws)
        for step in range(steps):
            lo = (step * batch) % len(x)
            store.train_step(x[lo:lo + batch], y[lo:lo + batch])
            shift.train_step(x[lo:lo + batch], y[lo:lo + batch])
            for key in sorted(store.retrieved):
                gen, ret = store.retrieved[key], shift.retrieved[key]
                log_a.write(np.ascontiguousarray(gen, "<u2"))
                log_b.write(np.ascontiguousarray(ret, "<u2"))
                if first is None and not np.array_equal(gen, ret):
                    pos = int(np.flatnonzero(gen != ret)[0])
                    first = (step, *key, pos, gen[pos], ret[pos])

    out_a, out_b = out + ".store", out + ".shift"
    train.save_checkpoint(out_a, store.model)
    train.save_checkpoint(out_b, shift.model)
    bytes_a = Path(out_a).read_bytes()
    bytes_b = Path(out_b).read_bytes()
    ok = True
    if bytes_a != bytes_b:
        ok = False
        pos = next(i for i, (p, q) in enumerate(zip(bytes_a, bytes_b)) if p != q)
        print(f"checkpoint divergence at byte {pos}: "
              f"store=0x{bytes_a[pos]:02x} shift=0x{bytes_b[pos]:02x}")
    if first is not None:
        ok = False
        print("epsilon divergence at step {}, sample {}, layer {}, draw {}: "
              "generated count {} vs retrieved {}".format(*first))
    elapsed = time.time() - started
    if ok:
        print(f"equivalent: {steps} steps, {draws} draws, "
              f"{len(bytes_a)} checkpoint bytes, {elapsed:.1f}s")
        return 0
    return 1


def run_cost_report(settings: dict) -> int:
    _check_out_dirs(settings["report"])
    params = costmodel.CostParams(eps_double_read=settings["eps_double_read"])
    names = (list(costmodel.MODEL_PRESETS) if settings["models"] == "all"
             else settings["models"].split(","))
    specs = [_lookup(costmodel.MODEL_PRESETS, name, "model") for name in names]
    s_values = settings["samples_list"]
    rows = []
    for name, spec in zip(names, specs):
        for S in s_values:
            store = costmodel.traffic_per_iteration(spec, S, "store", params)
            shift = costmodel.traffic_per_iteration(spec, S, "shift", params)
            rows.extend(costmodel.report_rows(store, params))
            rows.extend(costmodel.report_rows(shift, params))
            fp_store = sum(costmodel.footprint(spec, S, "store", params).values())
            fp_shift = sum(costmodel.footprint(spec, S, "shift", params).values())
            cyc_store, _ = costmodel.report_cost(store, params)
            cyc_shift, _ = costmodel.report_cost(shift, params)
            print(f"{name} S={S}: eps_share={store.eps_share:.3f} "
                  f"traffic_ratio={store.totals.traffic_bytes / shift.totals.traffic_bytes:.2f} "
                  f"footprint_reduction={1 - fp_shift / fp_store:.3f} "
                  f"speedup={cyc_store / cyc_shift:.2f}")
    if settings["report"]:
        costmodel.write_csv(settings["report"], rows)
    return 0


def selftest_moments(seed: int) -> tuple[float, float, bool]:
    """Mean and variance of the first 200,000 draws of ``seed``'s stream, and
    whether rng-selftest accepts them."""
    stream = grng.grng_init(seed, 0, train.NOISE_TAPS)
    eps = grng.counts_to_eps(stream.generate_block(200_000), stream.n)
    mean, var = float(eps.mean()), float(eps.var())
    return mean, var, abs(mean) < 0.05 and 0.9 < var < 1.1


def run_rng_selftest(settings: dict) -> int:
    failures = 0

    # exhaustive reversibility at width 8
    taps8 = lfsr.TapSet.default(8)
    bad = 0
    for seed in range(1, 256):
        state = lfsr.new_lfsr(taps8, seed)
        fwd, _, _ = lfsr.shift_forward(state)
        back, _, _ = lfsr.shift_reverse(fwd)
        if back.bits != state.bits:
            bad += 1
    print(f"reversibility width 8: {'ok' if bad == 0 else f'{bad} FAILURES'}")
    failures += bad

    # block round trips at the b-mlp fc1 and b-lenet conv1 segment sizes
    stream = grng.grng_init(settings["seed"], 0, train.NOISE_TAPS)
    start = stream.lfsr
    trip_ok = True
    for name in ("b-mlp", "b-lenet"):
        k = train.MODEL_BUILDERS[name]().bayes_layers()[0][1].weight_count
        drawn = stream.generate_block(k)
        back = stream.retrieve_block(k)
        trip_ok = trip_ok and np.array_equal(back, drawn[::-1]) and stream.lfsr == start
    print(f"reverse round trip: {'ok' if trip_ok else 'FAIL'}")
    failures += 0 if trip_ok else 1

    # moments of a large forward block
    mean, var, moments_ok = selftest_moments(settings["seed"])
    print(f"moments: mean={mean:+.4f} var={var:.4f} "
          f"{'ok' if moments_ok else 'FAIL'}")
    failures += 0 if moments_ok else 1
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftbnn",
        description="Reversible-generator Bayesian network training harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, names in COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", help="flat 'key = value' file of these settings")
        for key in names:
            setting = SETTINGS[key]
            # a bare switch means true; "--switch false" turns a config file's true off
            switch = {"nargs": "?", "const": "true"} if setting.parse is _switch else {}
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=setting.takes, **switch)
    return parser


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread.  With more, a matmul's
    summation order, and with it the bytes ``train`` writes, depends on the
    thread count."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*"):
        pin = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if pin is not None:
            pin(1)
            return
    print("warning: numpy's bundled OpenBLAS not found; results may depend on "
          "OPENBLAS_NUM_THREADS", file=sys.stderr)


RUNNERS = {"train": run_train, "verify-equivalence": run_verify_equivalence,
           "cost-report": run_cost_report, "rng-selftest": run_rng_selftest}


def main(argv=None) -> int:
    _pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        return RUNNERS[args.command](resolve(args))
    except (ConfigError, OSError, UnicodeError, data.BadMagic, data.TruncatedFile,
            data.CountMismatch, nn.ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
