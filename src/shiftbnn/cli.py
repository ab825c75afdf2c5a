"""Command-line harness: train, verify-equivalence, cost-report, rng-selftest.

Configuration precedence is flags > config file > defaults.  The config
file is flat ``key = value`` text; keys use the same names as the long
flags with dashes replaced by underscores.  Every command is
deterministic given its flags: all randomness flows from --seed.  The
checkpoint bytes of ``train`` also depend on the BLAS summation order,
so they repeat only for a fixed ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import costmodel, data, grng, lfsr, nn, train

DEFAULTS = {
    "model": "b-mlp",
    "dataset": "synthetic",
    "samples": 8,
    "strategy": "shift",
    "grad_mode": "paper",
    "epochs": 1,
    "lr": 1e-3,
    "seed": 0,
    "batch": None,        # auto: 128 for idx datasets, 8 for synthetic
    "kl_scale": None,     # auto: 1 / batches-per-epoch
    "steps": 50,
    "out": "checkpoint.sbnn",
    "report": None,
    "eps_double_read": False,
    "samples_list": "8,16,32,64,128",
    "models": "all",
    "limit": None,
}


class ConfigError(ValueError):
    pass


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


def _coerce(key: str, raw: str):
    if key in ("samples", "epochs", "seed", "batch", "steps", "limit"):
        return int(raw)
    if key in ("lr", "kl_scale"):
        return float(raw)
    if key == "eps_double_read":
        return raw.lower() in ("1", "true", "yes", "on")
    return raw


def resolve(args: argparse.Namespace) -> dict:
    """Merge flags over config-file values over defaults."""
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            if key not in settings:
                raise ConfigError(f"unknown config key {key!r}")
            settings[key] = _coerce(key, raw)
    for key in settings:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    if settings["samples"] < 1:
        raise ConfigError(f"samples must be >= 1, got {settings['samples']}")
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


def resolve_dataset(spec: str, split: str, seed: int, dims: tuple[int, ...]):
    """(examples, labels) for 'synthetic[:k=v,...]' or an IDX directory.

    ``dims`` is the synthetic example shape unless the spec sets ``dims=``.
    """
    if spec.startswith("synthetic"):
        opts = {"seed": seed, "count": 512, "dims": dims, "classes": 4}
        if ":" in spec:
            for item in spec.split(":", 1)[1].split(","):
                key, _, raw = item.partition("=")
                if key == "dims":
                    opts["dims"] = tuple(int(d) for d in raw.split("x"))
                elif key in opts:
                    opts[key] = int(raw)
                else:
                    raise ConfigError(f"unknown synthetic option {key!r}")
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
        return data.load_idx(_find_idx(spec, images), _find_idx(spec, labels))
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


def _lookup(table: dict, name: str, what: str):
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r} (have {sorted(table)})")
    return table[name]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def make_train_config(settings: dict, num_batches: int) -> train.TrainConfig:
    kl = settings["kl_scale"]
    if kl is None:
        kl = 1.0 / max(num_batches, 1)
    return train.TrainConfig(
        S=settings["samples"],
        lr=settings["lr"],
        batch=settings["batch"] or 1,
        grad_mode=settings["grad_mode"],
        epsilon_strategy=settings["strategy"],
        master_seed=settings["seed"],
        epochs=settings["epochs"],
        kl_scale=kl,
    )


def run_train(settings: dict, log_stream=sys.stdout) -> int:
    model = _lookup(train.MODEL_BUILDERS, settings["model"], "model")()
    x_train, y_train = resolve_dataset(settings["dataset"], "train", settings["seed"],
                                       model.input_shape)
    x_val, y_val = resolve_dataset(settings["dataset"], "test", settings["seed"],
                                   model.input_shape)
    if settings["limit"]:
        x_train, y_train = x_train[:settings["limit"]], y_train[:settings["limit"]]
    x_train = _shape_inputs(model, x_train)
    x_val = _shape_inputs(model, x_val)

    batch = settings["batch"] or (128 if os.path.isdir(settings["dataset"]) else 8)
    settings = dict(settings, batch=batch)
    num_batches = math.ceil(len(x_train) / batch)
    cfg = make_train_config(settings, num_batches)
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
        for epoch in range(1, cfg.epochs + 1):
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

    def _retrieve_counts(self, sample_id, layer_id):
        counts = super()._retrieve_counts(sample_id, layer_id)
        self._ret_step[(sample_id, layer_id)] = np.asarray(counts)
        return counts


def _flatten_steps(steps: list[dict]) -> np.ndarray:
    chunks = [d[key] for d in steps for key in sorted(d)]
    return np.concatenate(chunks) if chunks else np.zeros(0, np.uint16)


def _run_steps(settings: dict, strategy: str, steps: int, taps=None):
    model = _lookup(train.MODEL_BUILDERS, settings["model"], "model")()
    x, y = resolve_dataset(settings["dataset"], "train", settings["seed"],
                           model.input_shape)
    x = _shape_inputs(model, x)
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
    bytes_a = open(out_a, "rb").read()
    bytes_b = open(out_b, "rb").read()

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


def _samples_list(raw) -> list[int]:
    try:
        values = [int(s) for s in str(raw).split(",")]
    except ValueError:
        raise ConfigError(f"samples-list {raw!r} is not a comma-separated "
                          f"list of integers") from None
    if min(values) < 1:
        raise ConfigError(f"samples-list {raw!r}: every S must be >= 1")
    return values


def run_cost_report(settings: dict) -> int:
    params = costmodel.CostParams(eps_double_read=settings["eps_double_read"])
    names = (list(costmodel.MODEL_PRESETS) if settings["models"] == "all"
             else settings["models"].split(","))
    specs = [_lookup(costmodel.MODEL_PRESETS, name, "model") for name in names]
    s_values = _samples_list(settings["samples_list"])
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model")
    p.add_argument("--config")
    p.add_argument("--dataset")
    p.add_argument("--samples", type=int)
    p.add_argument("--strategy", choices=("store", "shift"))
    p.add_argument("--grad-mode", dest="grad_mode", choices=("paper", "exact"))
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--kl-scale", dest="kl_scale", type=float)
    p.add_argument("--limit", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--out")
    p.add_argument("--report")
    p.add_argument("--eps-double-read", dest="eps_double_read",
                   action="store_const", const=True)
    p.add_argument("--samples-list", dest="samples_list")
    p.add_argument("--models")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftbnn",
        description="Reversible-generator Bayesian network training harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "verify-equivalence", "cost-report", "rng-selftest"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "verify-equivalence":
            p.add_argument("--corrupt-second-pass", action="store_true",
                           help="negative control: alter the tap set between passes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = resolve(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "train":
            return run_train(settings)
        if args.command == "verify-equivalence":
            return run_verify_equivalence(
                settings, corrupt_second_pass=getattr(args, "corrupt_second_pass", False))
        if args.command == "cost-report":
            return run_cost_report(settings)
        if args.command == "rng-selftest":
            return run_rng_selftest(settings)
    except (data.BadMagic, data.TruncatedFile, data.CountMismatch,
            FileNotFoundError, ConfigError, nn.ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
