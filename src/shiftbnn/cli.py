"""Command-line harness: train, verify-equivalence, cost-report, rng-selftest.

``SETTINGS`` gives each setting one parser, one default and the values it
takes; ``COMMANDS`` lists the settings each command reads.  Each command's
flags, the keys its config file may hold and ``resolve`` all derive from
that table, so an unknown key or an out-of-range value exits 2 with an
``error:`` line.  Precedence is flags > config file > defaults.  The config
file is flat ``key = value`` text; keys use the same names as the long
flags with dashes replaced by underscores.  Every command is deterministic
given its flags: all randomness flows from --seed.  The checkpoint bytes
of ``train`` also depend on the BLAS summation order, so they repeat only
for a fixed ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
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
        if not value >= low:  # also rejects nan
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
    "lr": Setting(_at_least(0.0, float), 1e-3, "a number >= 0"),
    "seed": Setting(_at_least(0), 0, "an integer >= 0"),
    "batch": Setting(_count, None, "an integer >= 1"),  # 128 for IDX, 8 for synthetic
    "kl_scale": Setting(_at_least(0.0, float), None, "a number >= 0"),  # 1 / batches
    "limit": Setting(_count, None, "an integer >= 1"),
    "steps": Setting(_count, 50, "an integer >= 1"),
    "out": Setting(str, "checkpoint.sbnn", "a path"),
    "report": Setting(str, None, "a path"),
    "eps_double_read": Setting(_switch, False, "true or false"),
    "samples_list": Setting(lambda raw: [_count(s) for s in raw.split(",")],
                            (8, 16, 32, 64, 128), "comma-separated integers >= 1"),
    "models": Setting(str, "all", "all or comma-separated network names"),
}

COMMANDS = {
    "train": ("model", "dataset", "samples", "strategy", "grad_mode", "epochs",
              "lr", "seed", "batch", "kl_scale", "limit", "out", "report"),
    "verify-equivalence": ("model", "dataset", "samples", "grad_mode", "lr",
                           "seed", "batch", "steps", "out"),
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


# synthetic dataset option -> (parser, what it accepts)
_SYNTHETIC_OPTIONS = {
    "seed": (_at_least(0), "an integer >= 0"),
    "count": (_count, "an integer >= 1"),
    "dims": (lambda raw: tuple(_count(d) for d in raw.split("x")),
             "integers >= 1 joined by 'x'"),
    "classes": (_count, "an integer >= 1"),
}


def resolve_dataset(spec: str, split: str, seed: int, dims: tuple[int, ...]):
    """(examples, labels) for 'synthetic[:k=v,...]' or an IDX directory.

    ``dims`` is the synthetic example shape unless the spec sets ``dims=``.
    """
    name, colon, options = spec.partition(":")
    if name == "synthetic":
        opts = {"seed": seed, "count": 512, "dims": dims, "classes": 4}
        if colon:
            for item in options.split(","):
                key, _, raw = item.partition("=")
                if key not in _SYNTHETIC_OPTIONS:
                    raise ConfigError(f"unknown synthetic option {key!r}")
                parse, takes = _SYNTHETIC_OPTIONS[key]
                try:
                    opts[key] = parse(raw)
                except ValueError:
                    raise ConfigError(f"dataset must be synthetic with {key} {takes}, "
                                      f"got {raw!r}") from None
        # one doubled draw sliced in half keeps the class templates shared
        # between the splits while the examples stay disjoint
        images, labels = data.synthetic_dataset(opts["seed"], opts["count"] * 2,
                                                opts["dims"], opts["classes"])
        half = opts["count"]
        if split == "test":
            return images[half:], labels[half:]
        return images[:half], labels[:half]
    if os.path.isdir(spec):
        images, labels = _IDX_NAMES[split]
        examples = data.load_idx(_find_idx(spec, images), _find_idx(spec, labels))
        if not len(examples[1]):
            raise ConfigError(f"dataset {spec} has no {split} examples")
        return examples
    raise ConfigError(f"dataset {spec!r} is neither 'synthetic' nor a directory")


def _shape_inputs(model: train.Model, images: np.ndarray) -> np.ndarray:
    """Examples in the layout the model's first layer takes.

    Each example must have the model's input shape, or that shape without
    a leading single channel; anything else is a ShapeMismatch.
    """
    shape = model.input_shape
    got = images.shape[1:]
    if got != shape and (1,) + got != shape:
        raise nn.ShapeMismatch(f"{model.name} takes {'x'.join(map(str, shape))} "
                               f"inputs, got {'x'.join(map(str, got))}")
    return images.reshape((len(images),) + model.feed_shape)


def _load_split(settings: dict, split: str, model: train.Model):
    """(examples in the model's input layout, labels) of one dataset split.

    Every label must name one of the network's outputs, whose count is
    carried through the layers' ``out_shape``.
    """
    images, labels = resolve_dataset(settings["dataset"], split, settings["seed"],
                                     model.input_shape)
    shape = model.feed_shape
    for layer in model.layers:
        shape = layer.out_shape(shape)
    if labels.max() >= shape[0]:
        raise ConfigError(f"dataset {settings['dataset']} has {split} label "
                          f"{labels.max()}, but {model.name} has {shape[0]} outputs")
    return _shape_inputs(model, images), labels


def _lookup(table: dict, name: str, what: str):
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r} (have {sorted(table)})")
    return table[name]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_train(settings: dict, log_stream=sys.stdout) -> int:
    model = _lookup(train.MODEL_BUILDERS, settings["model"], "model")()
    x_train, y_train = _load_split(settings, "train", model)
    x_val, y_val = _load_split(settings, "test", model)
    if settings["limit"]:
        x_train, y_train = x_train[:settings["limit"]], y_train[:settings["limit"]]

    batch = settings["batch"] or (128 if os.path.isdir(settings["dataset"]) else 8)
    kl = settings["kl_scale"]
    if kl is None:
        kl = 1.0 / max(math.ceil(len(x_train) / batch), 1)
    cfg = train.TrainConfig(
        S=settings["samples"],
        lr=settings["lr"],
        batch=batch,
        grad_mode=settings["grad_mode"],
        epsilon_strategy=settings["strategy"],
        master_seed=settings["seed"],
        kl_scale=kl,
    )
    model.init_params(cfg)
    trainer = train.Trainer(model, cfg)

    log_path = settings["report"]
    log_file = open(log_path, "w") if log_path else None

    def log(line):
        print(line, file=log_stream)
        if log_file:
            print(line, file=log_file, flush=True)

    step = 0
    try:
        for epoch in range(1, settings["epochs"] + 1):
            loss = None
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
            val_acc = trainer.accuracy(x_val, y_val)
            log(f"{epoch},{step},{loss.total:.6f},{val_acc:.4f}")
    finally:
        if log_file:
            log_file.close()
    train.save_checkpoint(settings["out"], model)
    return 0


class _RecordingTrainer(train.Trainer):
    """Tees generated (forward) and retrieved (backward) counts for audits.

    Retrievals arrive in backward layer order, so both sides are keyed by
    (sample, layer) per step and flattened in canonical generation order
    for the comparison.
    """

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.generated: list[dict] = []
        self.retrieved: list[dict] = []

    def train_step(self, x, y):
        self._gen_step: dict = {}
        self._ret_step: dict = {}
        result = super().train_step(x, y)
        self.generated.append(self._gen_step)
        self.retrieved.append(self._ret_step)
        return result

    def _draw_counts(self, sample_id, layer_id, layer):
        counts = super()._draw_counts(sample_id, layer_id, layer)
        self._gen_step[(sample_id, layer_id)] = np.asarray(counts)
        return counts

    def _retrieve_counts(self, sample_id, layer_id, layer):
        counts = super()._retrieve_counts(sample_id, layer_id, layer)
        self._ret_step[(sample_id, layer_id)] = np.asarray(counts)
        return counts


def _flatten_steps(steps: list[dict]) -> np.ndarray:
    chunks = [d[key] for d in steps for key in sorted(d)]
    return np.concatenate(chunks) if chunks else np.zeros(0, np.uint16)


def _run_steps(settings: dict, strategy: str, steps: int, taps=None):
    model = _lookup(train.MODEL_BUILDERS, settings["model"], "model")()
    x, y = _load_split(settings, "train", model)
    batch = settings["batch"] or 8
    cfg = train.TrainConfig(
        S=settings["samples"], lr=settings["lr"], grad_mode=settings["grad_mode"],
        epsilon_strategy=strategy, master_seed=settings["seed"],
    )
    model.init_params(cfg)
    trainer = _RecordingTrainer(model, cfg, taps=taps)
    for i in range(steps):
        lo = (i * batch) % len(x)
        trainer.train_step(x[lo:lo + batch], y[lo:lo + batch])
    return model, trainer


def run_verify_equivalence(settings: dict, corrupt_second_pass: bool = False) -> int:
    steps = settings["steps"]
    started = time.time()
    model_a, tr_a = _run_steps(settings, "store", steps)
    taps_b = lfsr.TapSet(256, (1, 2, 3, 256)) if corrupt_second_pass else None
    model_b, tr_b = _run_steps(settings, "shift", steps, taps=taps_b)

    out_a = settings["out"] + ".store"
    out_b = settings["out"] + ".shift"
    train.save_checkpoint(out_a, model_a)
    train.save_checkpoint(out_b, model_b)
    bytes_a = Path(out_a).read_bytes()
    bytes_b = Path(out_b).read_bytes()

    gen = _flatten_steps(tr_a.generated)
    ret = _flatten_steps(tr_b.retrieved)
    eps_a = settings["out"] + ".store.epsl"
    eps_b = settings["out"] + ".shift.epsl"
    grng.write_epsilon_log(eps_a, 256, gen)
    grng.write_epsilon_log(eps_b, 256, ret)

    ok = True
    if bytes_a != bytes_b:
        ok = False
        pos = next(i for i, (p, q) in enumerate(zip(bytes_a, bytes_b)) if p != q)
        print(f"checkpoint divergence at byte {pos}: "
              f"store=0x{bytes_a[pos]:02x} shift=0x{bytes_b[pos]:02x}")
    if gen.shape != ret.shape or not np.array_equal(gen, ret):
        ok = False
        if gen.shape == ret.shape:
            pos = int(np.flatnonzero(gen != ret)[0])
            print(f"epsilon divergence at draw {pos}: "
                  f"generated count {gen[pos]} vs retrieved {ret[pos]}")
        else:
            print(f"epsilon log length mismatch: {gen.size} vs {ret.size}")
    elapsed = time.time() - started
    if ok:
        print(f"equivalent: {steps} steps, {gen.size} draws, "
              f"{len(bytes_a)} checkpoint bytes, {elapsed:.1f}s")
        return 0
    return 1


def run_cost_report(settings: dict) -> int:
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


def run_rng_selftest(settings: dict) -> int:
    failures = 0

    # exhaustive reversibility at width 8
    taps8 = lfsr.TapSet.default(8)
    bad = 0
    for seed in range(1, 256):
        state = lfsr.new_lfsr(8, taps8, seed)
        fwd, _, _ = lfsr.shift_forward(state)
        back, _, _ = lfsr.shift_reverse(fwd)
        if back.bits != state.bits:
            bad += 1
    print(f"reversibility width 8: {'ok' if bad == 0 else f'{bad} FAILURES'}")
    failures += bad

    # incremental running sum against the popcount oracle
    stream = grng.grng_init(settings["seed"], 0, lfsr.TapSet.default(256))
    rng = np.random.default_rng(settings["seed"])
    bad = 0
    for _ in range(20_000):
        if stream.position == 0 or rng.random() < 0.5:
            stream.generate_forward()
        else:
            stream.retrieve_backward()
        if stream.running_sum != lfsr.popcount_state(stream.lfsr):
            bad += 1
    print(f"incremental sum vs popcount: {'ok' if bad == 0 else f'{bad} FAILURES'}")
    failures += bad

    # block round trips at the b-mlp fc1 and b-lenet conv1 segment sizes
    stream = grng.grng_init(settings["seed"], 0, lfsr.TapSet.default(256))
    start = stream.lfsr
    trip_ok = True
    for k in (313_600, 450):
        drawn = stream.generate_block(k)
        back = stream.retrieve_block(k)
        trip_ok = trip_ok and np.array_equal(back, drawn[::-1]) and stream.lfsr == start
    print(f"reverse round trip: {'ok' if trip_ok else 'FAIL'}")
    failures += 0 if trip_ok else 1

    # moments of a large forward block
    stream = grng.grng_init(settings["seed"], 0, lfsr.TapSet.default(256))
    eps = grng.counts_to_eps(stream.generate_block(200_000), 256)
    mean, var = float(eps.mean()), float(eps.var())
    moments_ok = abs(mean) < 0.05 and 0.9 < var < 1.1
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
            switch = ({"action": "store_const", "const": "true"}
                      if setting.parse is _switch else {})
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=setting.takes, **switch)
        if command == "verify-equivalence":
            p.add_argument("--corrupt-second-pass", action="store_true",
                           help="negative control: alter the tap set between passes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = resolve(args)
        if args.command == "train":
            return run_train(settings)
        if args.command == "verify-equivalence":
            return run_verify_equivalence(
                settings, corrupt_second_pass=args.corrupt_second_pass)
        if args.command == "cost-report":
            return run_cost_report(settings)
        return run_rng_selftest(settings)
    except (ConfigError, OSError, UnicodeError, data.BadMagic, data.TruncatedFile,
            data.CountMismatch, nn.ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
