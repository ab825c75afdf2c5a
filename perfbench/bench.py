"""Workloads, correctness gates and metrics of the shiftbnn benchmark.

Each workload trains one network under both noise strategies and runs a
generator round trip over that network's noise segments:

* training: one STORE and one SHIFT ``Trainer`` built from the same seed
  step alternately on the same batches (S = 8, batch 8, ``TrainConfig``
  defaults otherwise, ``cache_epsilons`` off);
* round trip: 8 ``GrngStream``s draw the network's per-sample segment
  sizes forward with ``generate_block``, then take them back in reverse
  order with ``retrieve_block(k)`` and no checkpoint, which runs the true
  reverse recurrence ``lfsr.extend_backward``.

Correctness gates, each counted once per operation: every training loss
is finite; after the last step the STORE and SHIFT checkpoints are byte
identical; every retrieved block equals its generated block reversed;
every stream ends a round trip at its start state; in the traced run,
the STORE noise bytes measured per layer equal the cost model's.

Timings come from an untraced run (``trace=False``); the traced run
(``trace=True``) reports the per-layer numbers of ``tracer.Tracer`` per
iteration, where one iteration is one STORE step, one SHIFT step and one
stream's round trip, and compares traced with untraced step times.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import tempfile
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from shiftbnn import costmodel, data, grng, lfsr, train

from tracer import COUNT_METRICS, SELF_METRICS, STAGES, Tracer

S = 8
BATCH = 8
IMAGES = 256
CLASSES = 10
STRATEGIES = ("store", "shift")
SETUP_REPEATS = 5
FWD_REPEATS = 4  # forward passes per round trip in the untraced run

# workload -> (network, as named by train.MODEL_BUILDERS and costmodel, image dims)
WORKLOADS = {
    "bmlp-s8": ("b-mlp", (28, 28)),
    "blenet-s8": ("b-lenet", (3, 32, 32)),
}
# every layer name of either network; a layer the workload's network lacks
# reports 0 so that each run prints the same metrics
ALL_LAYERS = ("conv1", "conv2", "fc1", "fc2", "fc3")

END_TO_END = {
    "setup_s": "s",
    "store.img_per_s": "img/s",
    "shift.img_per_s": "img/s",
    "store.step_peak_mib": "MiB",
    "shift.step_peak_mib": "MiB",
    "grng.rev_per_fwd": "ratio",
}


def _per_layer_units() -> dict[str, str]:
    units = {f"{m}.self_s": "s" for m in SELF_METRICS}
    units.update({m: "count" for m in COUNT_METRICS})
    for layer in ALL_LAYERS:
        for stage in STAGES:
            units[f"cell.{layer}.{stage}.s"] = "s"
    for layer in ALL_LAYERS:
        units[f"noise_bytes.{layer}.measured"] = "B"
        units[f"noise_bytes.{layer}.modelled"] = "B"
    units["grng.fwd_mdraw_per_s"] = "Mdraw/s"
    units["grng.rev_mdraw_per_s"] = "Mdraw/s"
    for strategy in STRATEGIES:
        units[f"trace.{strategy}.step_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()

#: SHIFT-side tap set of the negative control, as in
#: ``shiftbnn verify-equivalence --corrupt-second-pass``
WRONG_TAPS = lfsr.TapSet(256, (1, 2, 3, 256))


@dataclass
class Gates:
    """Operations attempted and failed, per gate."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)

    def check(self, gate: str, ok: bool) -> None:
        self.attempted[gate] += 1
        if not ok:
            self.failed[gate] += 1


@dataclass
class Rig:
    """Everything one workload run trains and draws with."""

    model_name: str
    x: np.ndarray
    y: np.ndarray
    trainers: dict
    streams: list
    starts: list
    sizes: list  # per-stream segment sizes, in draw order
    reverse_taps: lfsr.TapSet | None = None  # set only by the negative control
    next_batch: int = 0

    def batch(self):
        lo = (self.next_batch * BATCH) % len(self.x)
        self.next_batch += 1
        return self.x[lo:lo + BATCH], self.y[lo:lo + BATCH]


def layer_names(model: train.Model) -> dict[int, str]:
    """id(layer) -> cost-model layer name; checks that the trainer's network
    and the cost-model preset describe the same layers."""
    spec = costmodel.MODEL_PRESETS[model.name]
    bayes = model.bayes_layers()
    names = {}
    if len(bayes) != len(spec.layers):
        raise RuntimeError(f"{model.name}: {len(bayes)} trainer layers, "
                           f"{len(spec.layers)} cost-model layers")
    for (_, layer), cost in zip(bayes, spec.layers):
        if (layer.kind, layer.weight_count) != (cost.kind, cost.weights):
            raise RuntimeError(f"{model.name} {cost.name}: trainer and cost model disagree")
        names[id(layer)] = cost.name
    return names


def build_rig(workload: str, seed: int, gates: Gates, corrupt: bool = False) -> Rig:
    """Set-up: data, both trainers, the streams, one warm-up step per strategy
    and one warm-up round trip on the smallest segment."""
    model_name, dims = WORKLOADS[workload]
    x, y = data.synthetic_dataset(seed, IMAGES, dims, CLASSES)
    if model_name == "b-mlp":
        x = x.reshape(len(x), -1)
    trainers = {}
    for strategy in STRATEGIES:
        cfg = train.TrainConfig(S=S, batch=BATCH, epsilon_strategy=strategy,
                                master_seed=seed)
        model = train.MODEL_BUILDERS[model_name]()
        model.init_params(cfg)
        taps = WRONG_TAPS if (corrupt and strategy == "shift") else None
        trainers[strategy] = train.Trainer(model, cfg, taps=taps)
    taps = lfsr.TapSet.default(256)
    streams = [grng.grng_init(seed, i, taps) for i in range(S)]
    sizes = [layer.weight_count for _, layer in trainers["store"].model.bayes_layers()]
    rig = Rig(model_name, x, y, trainers, streams, [s.lfsr for s in streams], sizes,
              reverse_taps=WRONG_TAPS if corrupt else None)
    step_pair(rig, gates, {s: [] for s in STRATEGIES})
    for i in range(S):
        round_trip(rig, gates, i, [min(sizes)], [], [])
    return rig


def finite(loss: train.LossBreakdown) -> bool:
    return bool(np.isfinite(
        [loss.likelihood_nll, loss.log_posterior, loss.neg_log_prior]).all())


def step_pair(rig: Rig, gates: Gates, times: dict) -> None:
    """One STORE and one SHIFT step on the same batch; which goes first
    alternates so neither side always runs on a warmer cache."""
    xb, yb = rig.batch()
    order = STRATEGIES if rig.next_batch % 2 else STRATEGIES[::-1]
    for strategy in order:
        t0 = time.perf_counter()
        loss = rig.trainers[strategy].train_step(xb, yb)
        times[strategy].append(time.perf_counter() - t0)
        gates.check("finite_loss", finite(loss))


def round_trip(rig: Rig, gates: Gates, i: int, sizes: list, fwd_s: list,
               rev_s: list, fwd_repeats: int = 1) -> None:
    """Stream i draws ``sizes`` forward (``fwd_repeats`` times, reset_to
    between), then takes them back in reverse order; appends the seconds
    of each pass."""
    stream, start = rig.streams[i], rig.starts[i]
    for r in range(fwd_repeats):
        if r:
            stream.reset_to(start)
        t0 = time.perf_counter()
        drawn = [stream.generate_block(k) for k in sizes]
        fwd_s.append(time.perf_counter() - t0)
    if rig.reverse_taps is not None:
        stream.lfsr = dataclasses.replace(stream.lfsr, taps=rig.reverse_taps)
    t0 = time.perf_counter()
    got = [stream.retrieve_block(k) for k in reversed(sizes)]
    rev_s.append(time.perf_counter() - t0)
    for back, fwd in zip(got, reversed(drawn)):
        gates.check("round_trip_block", np.array_equal(back, fwd[::-1]))
    gates.check("round_trip_start", stream.lfsr == start)
    stream.reset_to(start)


def checkpoints_equal(rig: Rig, gates: Gates, root: str) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        blobs = []
        for strategy in STRATEGIES:
            path = os.path.join(tmp, f"{strategy}.sbnn")
            train.save_checkpoint(path, rig.trainers[strategy].model)
            with open(path, "rb") as f:
                blobs.append(f.read())
    gates.check("checkpoint_equal", blobs[0] == blobs[1])


def step_peak_mib(rig: Rig, gates: Gates) -> dict:
    """tracemalloc peak over one more step per strategy (untimed)."""
    xb, yb = rig.batch()
    peaks = {}
    for strategy in STRATEGIES:
        tracemalloc.start()
        try:
            loss = rig.trainers[strategy].train_step(xb, yb)
            peaks[strategy] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        gates.check("finite_loss", finite(loss))
    return peaks


def measure(rig: Rig, gates: Gates, seconds: float) -> dict:
    """The end-to-end metrics of a ``trace=False`` run.

    Each slot is one step pair and one stream's round trip, the streams
    taken in rotation, so every set of samples spans the whole run and
    sees the same machine conditions.  ``grng.rev_per_fwd`` is the reverse
    pass's speed over the forward pass's, both on one stream in one slot,
    so the machine's speed, which drifts from run to run, cancels.
    """
    times = {s: [] for s in STRATEGIES}
    rev_per_fwd = []
    t_end = time.perf_counter() + seconds
    slot = 0
    while True:
        t0 = time.perf_counter()
        step_pair(rig, gates, times)
        fwd_s, rev_s = [], []
        round_trip(rig, gates, slot % S, rig.sizes, fwd_s, rev_s, FWD_REPEATS)
        rev_per_fwd.append(statistics.median(fwd_s) / rev_s[0])
        slot += 1
        if 2 * time.perf_counter() - t0 > t_end:
            break  # another slot would overrun
    metrics = {
        f"{s}.img_per_s": BATCH / statistics.median(times[s]) for s in STRATEGIES
    }
    metrics["grng.rev_per_fwd"] = statistics.median(rev_per_fwd)
    for strategy, peak in step_peak_mib(rig, gates).items():
        metrics[f"{strategy}.step_peak_mib"] = peak
    return metrics


def measure_traced(rig: Rig, gates: Gates, seconds: float) -> dict:
    """The ``trace=True`` run: per-layer metrics per iteration."""
    store_model = rig.trainers["store"].model
    shift_model = rig.trainers["shift"].model
    names = {**layer_names(store_model), **layer_names(shift_model)}
    tracer = Tracer([store_model, shift_model], names)
    untraced = {s: [] for s in STRATEGIES}
    traced = {s: [] for s in STRATEGIES}
    fwd_s, rev_s = [], []
    iterations = 0
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        # alternate which pair goes first, as step_pair alternates strategies
        for times in (untraced, traced)[::1 if iterations % 2 else -1]:
            if times is traced:
                with tracer.installed():
                    step_pair(rig, gates, times)
            else:
                step_pair(rig, gates, times)
        with tracer.installed():
            round_trip(rig, gates, iterations % S, rig.sizes, fwd_s, rev_s)
        iterations += 1
        if 2 * time.perf_counter() - t0 > t_end:
            break  # another iteration would overrun

    metrics = {f"{m}.self_s": tracer.self_s[m] / iterations for m in SELF_METRICS}
    metrics.update({m: tracer.counts[m] / iterations for m in COUNT_METRICS})
    for layer in ALL_LAYERS:
        for stage in STAGES:
            metrics[f"cell.{layer}.{stage}.s"] = tracer.cells[(layer, stage)] / iterations

    spec = costmodel.MODEL_PRESETS[rig.model_name]
    report = costmodel.traffic_per_iteration(spec, S, "store", costmodel.CostParams())
    for layer in ALL_LAYERS:
        measured = tracer.store_noise_bytes[layer] / iterations  # one STORE step each
        modelled = report.per_layer[layer]["fw"].eps_bytes if layer in report.per_layer else 0
        metrics[f"noise_bytes.{layer}.measured"] = measured
        metrics[f"noise_bytes.{layer}.modelled"] = modelled
        if layer in report.per_layer:
            gates.check("noise_bytes", measured == modelled)
    per_stream = sum(rig.sizes) / 1e6
    metrics["grng.fwd_mdraw_per_s"] = per_stream / statistics.median(fwd_s)
    metrics["grng.rev_mdraw_per_s"] = per_stream / statistics.median(rev_s)
    for strategy in STRATEGIES:
        metrics[f"trace.{strategy}.step_ratio"] = (
            statistics.median(traced[strategy]) / statistics.median(untraced[strategy]))
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        corrupt: bool = False) -> tuple[dict, Gates]:
    """One benchmark run: the result object the command prints, and the
    per-gate counts behind its ``attempted`` and ``failed``.

    ``corrupt`` is the negative control: the SHIFT trainer gets a wrong tap
    set and every round trip reverses with it, so the gates must fail.
    """
    gates = Gates()
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        rig = None  # let the previous set-up's arrays go before timing the next
        t0 = time.perf_counter()
        rig = build_rig(workload, seed, gates, corrupt)
        setups.append(time.perf_counter() - t0)
    if trace:
        metrics = measure_traced(rig, gates, seconds)
    else:
        metrics = measure(rig, gates, seconds)
        metrics["setup_s"] = statistics.median(setups)
    checkpoints_equal(rig, gates, root)
    units = PER_LAYER if trace else END_TO_END
    failed = sum(gates.failed.values())
    result = {
        "correct": failed == 0,
        "attempted": sum(gates.attempted.values()),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, gates
