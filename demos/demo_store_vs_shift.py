"""Train the same model twice: noise logged vs noise regenerated.

STORE keeps every per-weight Gaussian draw from the forward pass and
reads it back for the backward pass.  SHIFT keeps nothing and rewinds
the generator instead.  The parameter trajectories must be bit-identical
because both paths reproduce exactly the same numbers.
"""

import numpy as np

from shiftbnn import TrainConfig, Trainer
from shiftbnn.data import synthetic_dataset
from shiftbnn.train import build_toyconv

x, y = synthetic_dataset(seed=0, count=64, dims=(1, 10, 10), classes=4)

results = {}
for strategy in ("store", "shift"):
    cfg = TrainConfig(S=4, lr=0.1, master_seed=7, epsilon_strategy=strategy,
                      kl_scale=1e-2)  # keep the complexity terms from
    # flattening this tiny net before the likelihood can move
    model = build_toyconv()
    model.init_params(cfg)
    trainer = Trainer(model, cfg)
    for step in range(120):
        lo = (step * 8) % 56
        loss = trainer.train_step(x[lo:lo + 8], y[lo:lo + 8])
    results[strategy] = {i: (l.mu.copy(), l.sigma.copy())
                         for i, l in model.bayes_layers()}
    print(f"{strategy:5s}: final likelihood loss {loss.likelihood_nll:.4f}, "
          f"stream positions {[s.position for s in trainer.streams]}")

for lid in results["store"]:
    mu_s, sig_s = results["store"][lid]
    mu_h, sig_h = results["shift"][lid]
    assert np.array_equal(mu_s, mu_h) and np.array_equal(sig_s, sig_h)
print("parameters are bit-identical after 120 steps: the storage-free")
print("strategy loses nothing, it just never writes the noise anywhere")
