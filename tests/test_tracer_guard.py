"""The benchmark's span tracer against the current package.

``perfbench/tracer.py`` wraps functions and methods of ``grng``, ``nn``,
``replay`` and ``train`` by name.  Running it here makes a rename or
deletion of a wrapped name fail this suite, not only the benchmark's own
checks (``python -m pytest perfbench``).
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from shiftbnn import grng, nn, replay, train
from shiftbnn.train import TrainConfig, Trainer, build_toyconv

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_store_and_a_shift_step_and_restores_everything():
    model = build_toyconv()
    model.init_params(TrainConfig(master_seed=1))
    names = {id(layer): f"layer{lid}" for lid, layer in model.bayes_layers()}
    owners = [grng, grng.GrngStream, nn, replay.GenerationLedger, train,
              train.Trainer, model] + [layer for _, layer in model.bayes_layers()]
    before = [dict(vars(owner)) for owner in owners]
    rng = np.random.default_rng(0)
    x = rng.random((4, 1, 10, 10)).astype(np.float32)
    y = rng.integers(0, 10, size=4)

    tracer = load_tracer().Tracer([model], names)
    with tracer.installed():
        for strategy in ("store", "shift"):
            cfg = TrainConfig(S=2, master_seed=1, epsilon_strategy=strategy)
            assert math.isfinite(Trainer(model, cfg).train_step(x, y).total)

    # no "bw": the first layer computes no input errors
    for name in names.values():
        for stage in ("draw", "fw", "retrieve", "gc", "update"):
            assert tracer.cells[(name, stage)] > 0, (name, stage)
    assert tracer.counts["lfsr.extend_backward.bits"] > 0
    for owner, namespace in zip(owners, before):
        after = vars(owner)
        assert after.keys() == namespace.keys(), owner
        assert all(after[key] is value for key, value in namespace.items()), owner
