"""Span tracer for the benchmark's traced run.

The tracer measures the shiftbnn package from outside: ``install`` swaps
public functions and methods of ``lfsr``, ``grng``, ``nn``, ``replay`` and
``train`` for wrappers that time each call with ``time.perf_counter``, and
``uninstall`` puts the originals back.  No source file of the package
changes.

Two kinds of numbers come out:

* layer self times: a span's duration minus the time of the spans it
  encloses, summed per layer metric (``nn.fc``, ``grng.generate_block``,
  ...), plus work counts at the same boundaries (bits, draws, calls);
* cells: inclusive time per (cost-model layer, stage) inside a training
  step, with stages ``draw``, ``fw``, ``retrieve``, ``bw``, ``gc`` and
  ``update``, so the ``fw``/``bw``/``gc`` cells join
  ``costmodel.report_rows`` on (model, layer, stage).

The layer a call belongs to is read from outside as well: ``draw`` and
``retrieve`` blocks are matched by size (every layer of a network has a
distinct weight count), the ``fw``/``bw``/``gc`` math by which layer
object's ``forward``/``backward`` ran last, and ``update`` by timing the
per-layer iterations of the update loop over ``Model.bayes_layers()``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from shiftbnn import grng, nn, replay, train

# nn function -> (layer metric, cell stage or None)
NN_SPANS = {
    "conv_forward": ("nn.conv_forward", "fw"),
    "conv_backward_data": ("nn.conv_backward_data", "bw"),
    "conv_backward_weights": ("nn.conv_backward_weights", "gc"),
    "fc_forward": ("nn.fc", "fw"),
    "fc_backward_data": ("nn.fc", "bw"),
    "fc_backward_weights": ("nn.fc", "gc"),
    "relu_fwd": ("nn.pool_relu", None),
    "relu_bwd": ("nn.pool_relu", None),
    "maxpool_fwd": ("nn.pool_relu", None),
    "maxpool_bwd": ("nn.pool_relu", None),
    "softmax_xent": ("nn.softmax_xent", None),
}

SELF_METRICS = (
    "lfsr.extend_forward", "lfsr.extend_backward", "lfsr.window_io",
    "grng.generate_block", "grng.retrieve_block", "grng.counts_to_eps",
    "nn.conv_forward", "nn.conv_backward_data", "nn.conv_backward_weights",
    "nn.fc", "nn.pool_relu", "nn.softmax_xent",
    "replay.ledger",
    "train.forward_pass", "train.backward_pass", "train.update",
)
COUNT_METRICS = (
    "lfsr.extend_forward.bits", "lfsr.extend_backward.bits",
    "grng.generate_block.draws", "grng.retrieve_block.draws",
    "nn.calls", "replay.segments",
)
STAGES = ("draw", "fw", "retrieve", "bw", "gc", "update")


class Tracer:
    """Collects spans and counts while installed; see the module docstring.

    ``layer_names`` maps each Bayesian layer object of the traced models to
    its cost-model name (``fc1``, ``conv2``, ...).
    """

    def __init__(self, models, layer_names: dict[int, str]):
        self.models = list(models)
        self.layer_names = layer_names  # id(layer object) -> name
        self.size_names = {}  # weight count -> name
        for model in self.models:
            for _, layer in model.bayes_layers():
                self.size_names[layer.weight_count] = layer_names[id(layer)]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.cells = defaultdict(float)  # (layer name, stage) -> seconds
        self.store_noise_bytes = defaultdict(int)  # layer name -> bytes
        self._open = []  # child-time accumulator of each open span
        self._patches = []  # (owner, attribute, original or None)
        self._strategy = None  # epsilon strategy of the step in progress
        self._layer = None  # name of the layer whose math ran last
        self._updating = False  # inside the update loop of train_step

    # -- installing -----------------------------------------------------------

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner)[attr] if had else None))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _span(self, owner, attr, metric, after=None, before=None):
        """Replace owner.attr by a span that adds its self time to ``metric``.

        ``after(args, out, seconds)`` sees the call's arguments, result and
        inclusive duration.
        """
        fn = getattr(owner, attr)
        opened = self._open

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before(args)
            opened.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[metric] += dt - opened.pop()
                if opened:
                    opened[-1] += dt
            if after is not None:
                after(args, out, dt)
            return out

        self._set(owner, attr, wrapped)

    def _timer(self, owner, attr, after):
        """Time owner.attr inclusively without making it a span of its own,
        so its time stays in the enclosing layer's self time."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            after(time.perf_counter() - t0)
            return out

        self._set(owner, attr, wrapped)

    def install(self) -> None:
        g, s = grng, grng.GrngStream
        self._span(g, "extend_forward", "lfsr.extend_forward",
                   after=lambda a, out, dt: self._count("lfsr.extend_forward.bits", a[1]))
        self._span(g, "extend_backward", "lfsr.extend_backward",
                   after=lambda a, out, dt: self._count("lfsr.extend_backward.bits", a[1]))
        self._span(g, "state_to_window", "lfsr.window_io")
        self._span(g, "window_to_state", "lfsr.window_io")
        self._span(s, "generate_block", "grng.generate_block",
                   after=lambda a, out, dt: self._block("grng.generate_block", "draw", out, dt))
        self._span(s, "retrieve_block", "grng.retrieve_block",
                   after=lambda a, out, dt: self._block("grng.retrieve_block", "retrieve", out, dt))
        self._span(train, "counts_to_eps", "grng.counts_to_eps")

        for name, (metric, stage) in NN_SPANS.items():
            self._span(nn, name, metric, after=self._nn_after(stage))

        ledger = replay.GenerationLedger
        self._span(ledger, "record_segment", "replay.ledger",
                   after=lambda a, out, dt: self._count("replay.segments", 1))
        self._span(ledger, "layer_segment", "replay.ledger")
        self._span(ledger, "clear", "replay.ledger")

        t = train.Trainer
        self._span(t, "forward_pass", "train.forward_pass")
        self._span(t, "backward_pass", "train.backward_pass",
                   after=lambda a, out, dt: setattr(self, "_updating", True))
        # train_step's own time, net of its passes, is the SGD update
        self._span(t, "train_step", "train.update",
                   before=lambda a: setattr(self, "_strategy", a[0].cfg.epsilon_strategy),
                   after=lambda a, out, dt: self._end_step())
        self._timer(train, "dpu_grad", self._gc)
        self._timer(train, "update_gradients", self._gc)

        for model in self.models:
            for _, layer in model.bayes_layers():
                self._mark_layer(layer, "forward")
                self._mark_layer(layer, "backward")
            self._set(model, "bayes_layers", self._update_loop(model.bayes_layers))

    # -- hooks ------------------------------------------------------------------

    def _count(self, metric, n) -> None:
        self.counts[metric] += int(n)

    def _end_step(self) -> None:
        self._strategy = None
        self._updating = False

    def _block(self, metric, stage, out, dt) -> None:
        self._count(f"{metric}.draws", len(out))
        if self._strategy is None:
            return  # a generator round trip, not a training step
        name = self.size_names[len(out)]
        self.cells[(name, stage)] += dt
        if stage == "draw" and self._strategy == "store":
            self.store_noise_bytes[name] += out.nbytes

    def _nn_after(self, stage):
        def after(args, out, dt):
            self._count("nn.calls", 1)
            if stage is not None and self._strategy is not None:
                self.cells[(self._layer, stage)] += dt
        return after

    def _gc(self, dt) -> None:
        if self._strategy is not None:
            self.cells[(self._layer, "gc")] += dt

    def _mark_layer(self, layer, attr) -> None:
        fn = getattr(layer, attr)
        name = self.layer_names[id(layer)]

        def wrapped(*args, **kwargs):
            self._layer = name
            return fn(*args, **kwargs)

        self._set(layer, attr, wrapped)

    def _update_loop(self, bayes_layers):
        def wrapped():
            pairs = bayes_layers()
            return self._timed_update(pairs) if self._updating else pairs
        return wrapped

    def _timed_update(self, pairs):
        # the time between handing out a layer and being asked for the next
        # one is that layer's update
        for lid, layer in pairs:
            t0 = time.perf_counter()
            yield lid, layer
            self.cells[(self.layer_names[id(layer)], "update")] += time.perf_counter() - t0
