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
from shiftbnn.train import TrainConfig, Trainer, build_bmlp, build_toyconv

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_store_and_a_shift_step_and_restores_everything():
    check_traced_steps(build_toyconv, (1, 10, 10))


def test_tracer_gives_each_layer_of_an_fc_first_network_its_own_cells():
    # the layer whose backward ran last takes the nn and gc time, so each
    # fc layer's blocked weight gradient must stay inside its own backward
    # call, or cell.fc3 takes fc1's and fc2's
    check_traced_steps(build_bmlp, (784,))


def check_traced_steps(build, example_shape):
    """Trace one S=2 STORE and one SHIFT step: every Bayesian layer gets its
    cells, and the package is as it was afterwards."""
    model = build()
    model.init_params(TrainConfig(master_seed=1))
    names = {id(layer): f"layer{lid}" for lid, layer in model.bayes_layers()}
    owners = [grng, grng.GrngStream, nn, replay.GenerationLedger, train,
              train.Trainer, model] + [layer for _, layer in model.bayes_layers()]
    before = [dict(vars(owner)) for owner in owners]
    rng = np.random.default_rng(0)
    x = rng.random((4,) + example_shape).astype(np.float32)
    y = rng.integers(0, 10, size=4)

    tracer = load_tracer().Tracer([model], names)
    with tracer.installed():
        for strategy in ("store", "shift"):
            cfg = TrainConfig(S=2, master_seed=1, epsilon_strategy=strategy)
            assert math.isfinite(Trainer(model, cfg).train_step(x, y).total)

    # "bw" for all but the first layer, which computes no input errors
    first = next(iter(names.values()))
    for name in names.values():
        for stage in ("draw", "fw", "retrieve", "gc", "update"):
            assert tracer.cells[(name, stage)] > 0, (name, stage)
        assert (tracer.cells[(name, "bw")] > 0) == (name != first), name
    assert tracer.counts["lfsr.extend_backward.bits"] > 0
    for owner, namespace in zip(owners, before):
        after = vars(owner)
        assert after.keys() == namespace.keys(), owner
        assert all(after[key] is value for key, value in namespace.items()), owner
