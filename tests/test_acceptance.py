"""Acceptance gate: one test per release criterion, stated tolerances.

Criterion 7 (full handwritten-digit training) needs the real IDX files;
point SHIFTBNN_MNIST_DIR at a directory containing them (or place them
under ./data/mnist) to enable it.  Everything else is self-contained.
"""

import os
import time

import numpy as np
import pytest

from shiftbnn import nn
from shiftbnn.costmodel import (
    MAPPINGS,
    MODEL_PRESETS,
    CostParams,
    dnn_traffic,
    latency_energy,
    mapping_overhead,
    traffic_per_iteration,
)
from shiftbnn.grng import GrngStream, counts_to_eps, grng_init
from shiftbnn.lfsr import (
    TapSet,
    extend_backward,
    extend_forward,
    new_lfsr,
    popcount_state,
    shift_forward,
    shift_reverse,
    state_to_window,
)
from shiftbnn.train import (
    SIGMA_PRIOR,
    Model,
    TrainConfig,
    Trainer,
    build_bmlp,
    build_toyconv,
    save_checkpoint,
)

COST = CostParams()


def test_01_lfsr_reversibility():
    """Exhaustive width-8 involution; 10^3 seeds x 10^5 steps at width 256
    restore the seed with the reverse trace equal to the forward trace
    reversed; under 10 s."""
    started = time.time()
    taps8 = TapSet.default(8)
    for seed in range(1, 256):
        s = new_lfsr(8, taps8, seed)
        f, _, _ = shift_forward(s)
        b, _, _ = shift_reverse(f)
        assert b.bits == s.bits and b.position == s.position

    taps = TapSet.default(256)
    n, k, seeds = 256, 100_000, 1000
    rng = np.random.default_rng(0)
    windows = rng.integers(0, 2, size=(seeds, n), dtype=np.uint8)
    windows[windows.sum(axis=1) == 0, 0] = 1  # no all-zero registers
    appended = extend_forward(windows, k, taps)
    stream = np.concatenate([windows, appended], axis=1)
    recovered = extend_backward(stream[:, k:], k, taps)
    # the reverse recurrence regenerates the forward trace in reverse and
    # lands every register back on its seed window
    assert np.array_equal(recovered, stream[:, :k])
    # scalar spot check that block and stepwise traces agree bit for bit
    s = new_lfsr(256, taps, int.from_bytes(np.packbits(
        windows[0], bitorder="little").tobytes(), "little"))
    fwd_trace = []
    for _ in range(500):
        s, head_in, _ = shift_forward(s)
        fwd_trace.append(head_in)
    rev_trace = []
    for _ in range(500):
        s, _, head_out = shift_reverse(s)
        rev_trace.append(head_out)
    assert rev_trace == fwd_trace[::-1]
    assert time.time() - started < 10.0


def test_02_incremental_sum_exact():
    """running_sum equals the popcount oracle across 10^6 mixed steps."""
    stream = grng_init(0, 0, TapSet.default(256))
    rng = np.random.default_rng(1)
    moves = rng.random(1_000_000)
    violations = 0
    for p in moves:
        if stream.position == 0 or p < 0.55:
            stream.generate_forward()
        else:
            stream.retrieve_backward()
        if stream.running_sum != popcount_state(stream.lfsr):
            violations += 1
    assert violations == 0


def test_03_gaussian_moments():
    """10^6 draws at n=256: |mean| <= 0.01, variance in [0.98, 1.02]
    (documented default stream master_seed=0/stream 0; window counts are
    autocorrelated, so single-stream moment estimates vary by seed).
    Exhaustive width-16 full-period check: the count multiset equals the
    popcount multiset of every nonzero 16-bit word."""
    stream = grng_init(0, 0, TapSet.default(256))
    eps = counts_to_eps(stream.generate_block(1_000_000), 256)
    assert abs(eps.mean()) <= 0.01
    assert 0.98 <= eps.var() <= 1.02

    taps = TapSet.default(16)
    s16 = GrngStream(new_lfsr(16, taps, 1))
    counts = s16.generate_block((1 << 16) - 1)
    observed = np.bincount(counts, minlength=17)
    words = np.arange(1, 1 << 16, dtype=np.uint32)
    popcounts = np.unpackbits(words.view(np.uint8).reshape(-1, 4),
                              axis=1).sum(axis=1)
    expected = np.bincount(popcounts, minlength=17)
    assert np.array_equal(observed, expected)
    # consequently the first two moments match the nonzero-word ensemble
    assert counts.sum() == popcounts.sum()
    assert (counts.astype(np.int64) ** 2).sum() == (popcounts.astype(np.int64) ** 2).sum()


def _train_both_strategies(build, S, steps, x, y, seed=7):
    blobs = {}
    for strategy in ("store", "shift"):
        cfg = TrainConfig(S=S, lr=1e-3, master_seed=seed,
                          epsilon_strategy=strategy)
        model = build()
        model.init_params(cfg)
        trainer = Trainer(model, cfg)
        for i in range(steps):
            lo = (i * 4) % (len(x) - 4)
            trainer.train_step(x[lo:lo + 4], y[lo:lo + 4])
        blobs[strategy] = model
    return blobs


def test_04_strategy_bit_equivalence(tmp_path):
    """STORE and SHIFT checkpoints byte-identical after 100 steps on the
    mlp (S=8) and on a 2-conv+1-fc toy net (S=4); under 5 minutes."""
    started = time.time()
    rng = np.random.default_rng(0)

    x_mlp = rng.random((32, 784)).astype(np.float32)
    y_mlp = rng.integers(0, 10, 32)
    mlp = _train_both_strategies(build_bmlp, 8, 100, x_mlp, y_mlp)

    x_conv = rng.random((32, 1, 10, 10)).astype(np.float32)
    y_conv = rng.integers(0, 10, 32)
    conv = _train_both_strategies(build_toyconv, 4, 100, x_conv, y_conv)

    for name, blobs in (("mlp", mlp), ("conv", conv)):
        pa = tmp_path / f"{name}-store.sbnn"
        pb = tmp_path / f"{name}-shift.sbnn"
        save_checkpoint(pa, blobs["store"])
        save_checkpoint(pb, blobs["shift"])
        assert pa.read_bytes() == pb.read_bytes(), f"{name} diverged"
    assert time.time() - started < 300.0


def test_05_kernel_flip_retrieval():
    """A conv layer's draws, taken back by reverse shifting, arrive as its
    180-degree-rotated kernels, and the trainer's backward-data kernel
    equals a full correlation with exactly those kernels."""
    rng = np.random.default_rng(5)
    cases = [(3, 4, 3, 8, 1, 0), (5, 2, 2, 9, 1, 2), (3, 3, 2, 7, 2, 1)]
    for case, (k, m, n, hw, stride, pad) in enumerate(cases):
        stream = grng_init(5, case, TapSet.default(256))
        drawn = stream.generate_block(m * n * k * k).reshape(m, n, k, k)
        arrivals = stream.retrieve_block(m * n * k * k)
        assert stream.position == 0
        # arrival order written straight into (M, N, K, K), both channel
        # axes reversed: every kernel comes out rotated, nothing is reindexed
        rotated = arrivals.reshape(m, n, k, k)[::-1, ::-1]
        assert np.array_equal(rotated, drawn[:, :, ::-1, ::-1])

        w = counts_to_eps(drawn, 256)
        e = rng.standard_normal(nn.conv_forward(rng.standard_normal((n, hw, hw)),
                                                w, stride, pad).shape)
        # zero-dilate the errors by the stride, pad by K - 1 and correlate
        # with the rotated kernels, channel-transposed; crop the input pad
        r, c = e.shape[-2:]
        dilated = np.zeros((m, (r - 1) * stride + 1, (c - 1) * stride + 1))
        dilated[:, ::stride, ::stride] = e
        full = nn.conv_forward(dilated, counts_to_eps(rotated, 256).transpose(1, 0, 2, 3),
                               1, k - 1)
        expected = full[:, pad:pad + hw, pad:pad + hw]
        direct = nn.conv_backward_data(e, w, (hw, hw), stride, pad)
        # the two sum their partial products in different orders, so agree
        # to float rounding, not bit-for-bit
        assert np.allclose(direct, expected, rtol=0, atol=1e-10)


def test_06_gradient_finite_differences():
    """EXACT mode, frozen noise, 64-bit: accumulated (dmu, dsigma) match
    central differences of the total loss within 1e-3 relative."""
    rng = np.random.default_rng(6)
    x = rng.random((4, 1, 10, 10)).astype(np.float64)
    y = rng.integers(0, 10, 4)
    cfg = TrainConfig(S=2, master_seed=13, grad_mode="exact", kl_scale=1.0,
                      dtype=np.float64, sigma_init=0.01)
    model = build_toyconv()
    model.init_params(cfg)
    mu0 = {i: l.mu.copy() for i, l in model.bayes_layers()}
    sig0 = {i: l.sigma.copy() for i, l in model.bayes_layers()}

    eps = {}
    for s in range(cfg.S):
        stream = grng_init(13, s, TapSet.default(256))
        for lid, layer in model.bayes_layers():
            counts = stream.generate_block(layer.weight_count)
            eps[(s, lid)] = counts_to_eps(counts, 256).reshape(layer.mu.shape)

    def total_loss(mu, sigma):
        total = 0.0
        for s in range(cfg.S):
            weights = {lid: mu[lid] + eps[(s, lid)] * sigma[lid]
                       for lid, _ in model.bayes_layers()}
            logits = model.forward_with_weights(x, weights)
            nll, _ = nn.softmax_xent(logits, y)
            total += nll
            for lid, _ in model.bayes_layers():
                w = weights[lid]
                total += float(np.sum(-(w - mu0[lid]) ** 2 / (2 * sig0[lid] ** 2)))
                total += float(np.sum(w ** 2 / (2 * SIGMA_PRIOR ** 2)))
        return total

    trainer = Trainer(model, cfg)
    caches, _ = trainer.forward_pass(x, y)
    accum = trainer.backward_pass(caches)

    h = 1e-5
    probe = np.random.default_rng(0)
    for lid, layer in model.bayes_layers():
        for _ in range(4):
            idx = np.unravel_index(probe.integers(layer.mu.size), layer.mu.shape)
            for which in ("mu", "sigma"):
                mu_p = {k: v.copy() for k, v in mu0.items()}
                mu_m = {k: v.copy() for k, v in mu0.items()}
                sg_p = {k: v.copy() for k, v in sig0.items()}
                sg_m = {k: v.copy() for k, v in sig0.items()}
                (mu_p if which == "mu" else sg_p)[lid][idx] += h
                (mu_m if which == "mu" else sg_m)[lid][idx] -= h
                fd = (total_loss(mu_p, sg_p) - total_loss(mu_m, sg_m)) / (2 * h)
                got = (accum.dmu if which == "mu" else accum.dsigma)[lid][idx]
                assert got == pytest.approx(fd, rel=1e-3, abs=1e-6)


def _mnist_dir():
    for candidate in (os.environ.get("SHIFTBNN_MNIST_DIR"),
                      os.path.join(os.path.dirname(__file__), "..", "data", "mnist")):
        if candidate and os.path.isdir(candidate):
            return candidate
    return None


@pytest.mark.skipif(_mnist_dir() is None, reason=(
    "handwritten-digit IDX files not present; set SHIFTBNN_MNIST_DIR or "
    "place them under data/mnist (this environment has no network access "
    "to fetch them)"))
def test_07_training_quality_full_mnist(tmp_path):
    """Full dataset, mlp, S=8, 32-bit, <= 20 epochs, >= 97% validation."""
    from shiftbnn import cli

    out = tmp_path / "bmlp.sbnn"
    log = tmp_path / "train.log"
    code = cli.main(["train", "--model", "b-mlp", "--dataset", _mnist_dir(),
                     "--samples", "8", "--epochs", "20", "--seed", "7",
                     "--out", str(out), "--report", str(log)])
    assert code == 0
    final_acc = float(log.read_text().strip().splitlines()[-1].split(",")[3])
    assert final_acc >= 0.97


def test_08_traffic_model_properties():
    """SHIFT noise bytes exactly zero; STORE noise bytes linear in S;
    noise share > 50% at S=16 for the mlp/lenet/alexnet presets; the vgg
    S=16 total within a factor 2 of 22.6 GB."""
    for spec in MODEL_PRESETS.values():
        assert traffic_per_iteration(spec, 16, "shift", COST).totals.eps_bytes == 0
    spec = MODEL_PRESETS["b-alexnet"]
    e = [traffic_per_iteration(spec, s, "store", COST).totals.eps_bytes
         for s in (1, 2, 4, 8)]
    assert e == [e[0], 2 * e[0], 4 * e[0], 8 * e[0]]
    for name in ("b-mlp", "b-lenet", "b-alexnet"):
        share = traffic_per_iteration(MODEL_PRESETS[name], 16, "store", COST).eps_share
        assert share > 0.50, (name, share)
    vgg_total = traffic_per_iteration(MODEL_PRESETS["b-vgg"], 16, "store",
                                      COST).totals.traffic_bytes
    assert 22.6e9 / 2 <= vgg_total <= 22.6e9 * 2


def test_09_scaling_ratios():
    """Five-preset average traffic ratio vs the point-estimate baseline
    within +/-40% of 9.1x at S=8 and 35.3x at S=32, and monotone in S."""
    for s_val, target in ((8, 9.1), (32, 35.3)):
        ratios = []
        for spec in MODEL_PRESETS.values():
            bnn = traffic_per_iteration(spec, s_val, "store", COST).totals.traffic_bytes
            ratios.append(bnn / dnn_traffic(spec, COST))
        avg = sum(ratios) / len(ratios)
        assert 0.6 * target <= avg <= 1.4 * target, (s_val, avg)
    for spec in MODEL_PRESETS.values():
        series = [traffic_per_iteration(spec, s, "store", COST).totals.traffic_bytes
                  / dnn_traffic(spec, COST) for s in (1, 2, 4, 8, 16, 32, 64)]
        assert series == sorted(series)


def test_10_mapping_comparator():
    """Output-row/column retrieval strictly minimal for all array sizes
    2..64; channel-swap and kernel-swap wire counts grow as n(n-1)."""
    for n in range(2, 65):
        scores = {m: mapping_overhead(m, n).rank_score for m in MAPPINGS}
        rc = scores.pop("RC")
        assert all(rc < other for other in scores.values()), (n, scores)
    for mapping in ("MN_V1", "K_V1"):
        for n in (2, 16, 64):
            assert mapping_overhead(mapping, n).swap_wires == n * (n - 1)


def test_11_latency_model_direction():
    """Modeled speedup larger for the fc-dominated mlp than for the
    conv-dominated vgg at S=16; first-fc noise-memory/compute ratio for
    the mlp at S=8 within +/-30% of 8 (one documented bandwidth
    calibration, bw_dram=43 bytes/cycle)."""
    mlp_store, _ = latency_energy(MODEL_PRESETS["b-mlp"], 16, "store", COST)
    mlp_shift, _ = latency_energy(MODEL_PRESETS["b-mlp"], 16, "shift", COST)
    vgg_store, _ = latency_energy(MODEL_PRESETS["b-vgg"], 16, "store", COST)
    vgg_shift, _ = latency_energy(MODEL_PRESETS["b-vgg"], 16, "shift", COST)
    assert mlp_store / mlp_shift > vgg_store / vgg_shift

    report = traffic_per_iteration(MODEL_PRESETS["b-mlp"], 8, "store", COST)
    t = report.layer_total("fc1")
    mem_cycles = t.eps_bytes / COST.bw_dram
    compute_cycles = t.macs / COST.macs_per_cycle
    ratio = mem_cycles / compute_cycles
    assert 8 * 0.7 <= ratio <= 8 * 1.3, ratio
