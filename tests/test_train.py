"""Training engine: per-weight math, strategy equivalence, checkpoints."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from shiftbnn import data, nn, train
from shiftbnn.cli import _RetrievalRecorder
from shiftbnn.grng import counts_to_eps, grng_init
from shiftbnn.lfsr import TapSet
from shiftbnn.train import (
    MODEL_BUILDERS,
    NOISE_TAPS,
    BayesConv,
    BayesFC,
    MaxPool,
    Model,
    ReLU,
    TrainConfig,
    Trainer,
    apply_checkpoint,
    build_bmlp,
    build_toyconv,
    dpu_grad,
    load_checkpoint,
    save_checkpoint,
    update_gradients,
)


def synthetic_batch(seed=0, count=32, dims=(10, 10), classes=4):
    rng = np.random.default_rng(seed)
    templates = rng.random((classes,) + dims)
    y = rng.integers(0, classes, size=count)
    x = np.clip(templates[y] + rng.normal(0, 0.15, (count,) + dims), 0, 1)
    return x[:, None].astype(np.float32), y


def forward_passes(trainer, x, y):
    """Every sample's forward pass on one batch, with the step's sigma
    terms: [(cache, loss)] in sample order."""
    sigma_terms = trainer._sigma_terms()
    return [trainer.forward_pass(x, y, i, sigma_terms) for i in range(trainer.cfg.S)]


def gradient_sums(trainer, x, y):
    """(dmu, dsigma) of one batch before any update: each sample's forward
    pass and then its backward pass, as ``train_step`` runs them."""
    sigma_terms = trainer._sigma_terms()
    for i in range(trainer.cfg.S):
        cache, _ = trainer.forward_pass(x, y, i, sigma_terms)
        trainer.backward_pass(cache, i)
    return trainer.dmu, trainer.dsigma


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(S=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(grad_mode="fancy")
        with pytest.raises(ValueError):
            TrainConfig(epsilon_strategy="log")

    def test_zero_lr_allowed(self):
        TrainConfig(lr=0.0)


def _eps_square_sum_int64(counts, n):
    """Reference: sum((2c - n)^2) / n = (4 sum c^2 - 4n sum c + k n^2) / n, the
    numerator taken in int64 (an int32 accumulator wraps on an fc1 block)."""
    sum_c = int(np.sum(counts, dtype=np.int64))
    sum_c2 = int(np.einsum("i,i->", counts, counts, dtype=np.int64))
    return (4 * sum_c2 - 4 * n * sum_c + counts.size * n * n) / n


class TestPerWeightMath:
    def test_dpu_paper_mode_is_times_four(self):
        cfg = TrainConfig(grad_mode="paper")
        assert dpu_grad(0.3, 0.1, 0.0, cfg) == pytest.approx(1.2)
        assert dpu_grad(0.0, 0.1, 0.5, cfg) == 0.0

    def test_dpu_exact_mode(self):
        cfg = TrainConfig(grad_mode="exact")
        # mu=0, sigma=1, eps=1 -> w=1: 4*1 - 1 = 3
        assert dpu_grad(1.0, 1.0, 1.0, cfg) == pytest.approx(3.0)

    def test_update_gradients_chain_rule(self):
        dmu = np.zeros(1)
        dsigma = np.zeros(1)
        update_gradients(np.array([0.2]), np.array([0.0]), dmu, dsigma)
        update_gradients(np.array([0.4]), np.array([1.0]), dmu, dsigma)
        assert dmu[0] == pytest.approx(0.6)
        assert dsigma[0] == pytest.approx(0.4)

    @pytest.mark.parametrize("width", [16, 256])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eps_table_matches_direct_conversion(self, width, dtype):
        counts = np.arange(width + 1, dtype=np.uint16)
        got = counts_to_eps(counts, width, out=np.empty(counts.shape, dtype))
        expect = counts_to_eps(counts, width).astype(dtype)
        assert got.dtype == dtype
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("fill", [0, 256])
    def test_eps_square_sum_exact_on_fc1_block(self, fill):
        # sum((c - 128)^2) = 313,600 * 128^2 = 5,138,022,400 overflows an
        # int32, and so does the sum of c^2 for the all-256 block
        counts = np.full(313_600, fill, dtype=np.uint16)
        eps = counts_to_eps(counts, 256, out=np.empty(counts.size, np.float32))
        buf = np.empty(train.SQUARE_CHUNK, np.float64)
        assert train.square_sum(eps, buf) == 5_138_022_400 / 64

    def test_eps_square_sum_matches_float_reference(self):
        n = NOISE_TAPS.width
        counts = grng_init(3, 0, NOISE_TAPS).generate_block(313_600)
        eps = counts_to_eps(counts, n, out=np.empty(counts.size, np.float32))
        ref = float(np.sum(counts_to_eps(counts, n) ** 2))
        buf = np.empty(train.SQUARE_CHUNK, np.float64)
        assert train.square_sum(eps, buf) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("width", [16, 256])
    def test_eps_square_sum_equals_integer_formula(self, width):
        # sqrt(n/4) is a power of two, so eps = (c - n/2) / sqrt(n/4) is
        # exact in float32, each square is exact in float64 and no partial
        # sum of an fc1-sized block leaves float64's exact range: the sum
        # of squares equals the integer formula in any summation order
        rng = np.random.default_rng(width)
        extreme = np.array([0, 1, width - 1, width], np.uint16)
        for size in (0, 1, 1_023, 1_024, 1_025, 313_600):
            blocks = [rng.choice(extreme, size),
                      rng.integers(0, width + 1, size, dtype=np.uint16),
                      np.zeros(size, np.uint16), np.full(size, width, np.uint16)]
            for counts in blocks:
                expect = _eps_square_sum_int64(counts, width)
                for dtype in (np.float32, np.float64):
                    eps = counts_to_eps(counts, width, out=np.empty(size, dtype))
                    for chunk in (1_024, train.SQUARE_CHUNK):
                        buf = np.empty(chunk, np.float64)
                        assert train.square_sum(eps, buf) == expect, (size, dtype, chunk)

    @pytest.mark.parametrize("width", [16, 64, 256])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eps_square_sum_helper_equals_integer_formula(self, width, dtype):
        # rows of 2^26 / n^2 elements: every float32 partial sum is exact,
        # the all-0 and all-n blocks (every eps^2 = n) being the largest
        row = (1 << 26) // width ** 2
        rng = np.random.default_rng(width)
        for size in (0, 1, row - 1, row, row + 1, 313_600):
            blocks = [rng.integers(0, width + 1, size, dtype=np.uint16),
                      np.zeros(size, np.uint16), np.full(size, width, np.uint16)]
            for counts in blocks:
                eps = counts_to_eps(counts, width, out=np.empty(size, dtype))
                got = train.eps_square_sum(eps, width)
                assert got == _eps_square_sum_int64(counts, width), (size, counts[:1])

    @pytest.mark.parametrize("width", [8, 12, 24])
    def test_trainer_rejects_a_width_with_inexact_eps(self, width):
        cfg = TrainConfig(S=1)
        model = build_toyconv()
        model.init_params(cfg)
        with pytest.raises(ValueError, match=f"tap width {width}"):
            Trainer(model, cfg, taps=TapSet.default(width))

    @pytest.mark.parametrize("kl_scale", [1.0, 1 / 16, 1 / 187, 1 / 250])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_paper_dpu_grad_has_the_bits_of_divide_then_scale(self, kl_scale, dtype):
        # one multiply by 4 * kl_scale against w / SIGMA_PRIOR^2, then
        # * kl_scale, on normal weights and on subnormal ones
        rng = np.random.default_rng(4)
        tiny = np.finfo(dtype).smallest_subnormal
        for w in (rng.standard_normal(4096).astype(dtype),
                  (rng.integers(-1000, 1000, 4096) * tiny).astype(dtype)):
            cfg = TrainConfig(kl_scale=kl_scale, dtype=dtype)
            expect = w / train.SIGMA_PRIOR ** 2
            expect *= kl_scale
            got = dpu_grad(w, None, None, cfg, out=w.copy())
            assert got.dtype == dtype
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [5, train.SQUARE_CHUNK])
    def test_square_sum_matches_float64_reference(self, dtype, chunk):
        rng = np.random.default_rng(chunk)
        buf = np.empty(chunk, np.float64)
        for shape in ((0,), (1,), (chunk - 1,), (chunk,), (chunk + 1,), (400, 784)):
            a = rng.standard_normal(shape).astype(dtype)
            ref = float(np.sum(a.astype(np.float64) ** 2))
            assert train.square_sum(a, buf) == pytest.approx(ref, rel=1e-12, abs=0), shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [5, train.SQUARE_CHUNK])
    def test_log_sum_matches_float64_reference(self, dtype, chunk):
        rng = np.random.default_rng(chunk)
        buf = np.empty(chunk, np.float64)
        for shape in ((0,), (1,), (chunk - 1,), (chunk,), (chunk + 1,), (400, 784)):
            a = rng.uniform(1e-6, 2.0, shape).astype(dtype)
            before = a.copy()
            ref = float(np.log(a.astype(np.float64)).sum())
            assert train.log_sum(a, buf) == pytest.approx(ref, rel=1e-12, abs=0), shape
            assert np.array_equal(a, before)  # the logs are taken in buf


class TestForwardPass:
    def test_zero_sigma_silences_sampling(self):
        cfg = TrainConfig(S=3, master_seed=5)
        model = Model([BayesFC(4, 4)])
        model.init_params(cfg)
        model.layers[0].mu = np.eye(4, dtype=np.float32)
        model.layers[0].sigma = np.zeros((4, 4), dtype=np.float32)
        trainer = Trainer(model, cfg)
        x = np.array([[0.1, -0.2, 0.3, 0.4]], dtype=np.float32)
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            passes = forward_passes(trainer, x, np.array([0]))
        # log q(w) of a point mass is unbounded
        assert all(l.log_posterior == np.inf for _, l in passes)
        # every sample ran with w = mu = I, so its logits were x itself
        _, expect = nn.softmax_xent(x, np.array([0]))
        for (_, dlogits), _ in passes:
            assert np.array_equal(dlogits, expect)

    @pytest.mark.parametrize("build", [build_toyconv, lambda: Model([
        BayesFC(100, 30), train.ReLU(), BayesFC(30, 4)], name="small-fc")])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_log_densities_match_elementwise_reference(self, build, dtype):
        cfg = TrainConfig(S=2, master_seed=8, kl_scale=0.3, dtype=dtype)
        model = build()
        model.init_params(cfg)
        rng = np.random.default_rng(1)
        for _, layer in model.bayes_layers():
            layer.sigma = rng.uniform(1e-3, 0.1, layer.sigma.shape).astype(dtype)
        x, y = synthetic_batch(count=4)
        if model.name == "small-fc":
            x = x.reshape(4, 100)
        for s, (_, loss) in enumerate(forward_passes(Trainer(model, cfg), x, y)):
            # the per-element float64 formulas, on independently drawn noise
            stream = grng_init(8, s, NOISE_TAPS)
            post = prior = 0.0
            for _, layer in model.bayes_layers():
                counts = stream.generate_block(layer.weight_count)
                eps = counts_to_eps(counts, stream.n).astype(dtype).reshape(layer.mu.shape)
                w = (layer.mu + eps * layer.sigma).astype(np.float64)
                sig = layer.sigma.astype(np.float64)
                post += float(np.sum(-np.log(sig * np.sqrt(2 * np.pi))
                                     - 0.5 * eps.astype(np.float64) ** 2))
                prior += float(np.sum(np.log(train.SIGMA_PRIOR * np.sqrt(2 * np.pi))
                                      + w ** 2 / (2 * train.SIGMA_PRIOR ** 2)))
            assert type(loss.log_posterior) is float
            assert type(loss.neg_log_prior) is float
            assert loss.log_posterior == pytest.approx(cfg.kl_scale * post, rel=1e-12)
            assert loss.neg_log_prior == pytest.approx(cfg.kl_scale * prior, rel=1e-12)

    def test_same_seed_bitwise_identical_losses(self):
        x, y = synthetic_batch()
        results = []
        for _ in range(2):
            cfg = TrainConfig(S=2, master_seed=9)
            model = build_toyconv()
            model.init_params(cfg)
            passes = forward_passes(Trainer(model, cfg), x[:4], y[:4])
            results.append([(l.likelihood_nll, l.log_posterior, l.neg_log_prior)
                            for _, l in passes])
        assert results[0] == results[1]

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_out_shape_matches_forward(self, name):
        # the cost model reads layer shapes from out_shape, not from a forward
        model = MODEL_BUILDERS[name]()
        model.init_params(TrainConfig())
        shape = model.input_shape
        a = np.zeros((2,) + shape, dtype=np.float32)
        for layer in model.layers:
            if isinstance(layer, train.BayesLayer):
                a = layer.forward(a, layer.mu)
            else:
                a, _ = layer.forward(a)
            shape = layer.out_shape(shape)
            assert a.shape == (2,) + shape, layer

    def test_forward_pass_makes_no_layer_sized_float64_array(self):
        # the log-density sums go through the trainer's 128 KiB float64
        # buffer; a float64 copy of fc1's sigma alone would be 2.39 MiB
        x = np.random.default_rng(0).random((8, 784), dtype=np.float32)
        y = np.arange(8) % 10
        cfg = TrainConfig(S=8, master_seed=0, epsilon_strategy="shift")
        model = build_bmlp()
        model.init_params(cfg)
        trainer = Trainer(model, cfg)
        trainer.train_step(x, y)  # warm-up
        tracemalloc.start()
        try:
            forward_passes(trainer, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 2 ** 20, peak / 2 ** 20

    def test_loss_total_is_component_sum(self):
        x, y = synthetic_batch()
        cfg = TrainConfig(S=2, master_seed=1)
        model = build_toyconv()
        model.init_params(cfg)
        for _, l in forward_passes(Trainer(model, cfg), x[:4], y[:4]):
            assert l.total == l.likelihood_nll + l.log_posterior + l.neg_log_prior


class TestStepFootprint:
    """tracemalloc peak of one steady step at batch 8.  Each sample runs its
    backward pass right after its forward pass, so only one sample's cache
    is alive at a time; backward reads only 1-byte ReLU masks and pool
    slots, SHIFT draws and retrieves each layer's counts into the front of
    the w buffer, the unpack of a retrieval's bits is one 64 KiB chunk at a
    time, and an fc likelihood gradient exists one block of ``GRAD_BLOCK``
    weights at a time.  At S=8, SHIFT: 0.19 MiB (b-mlp: one sample's
    caches and one gradient block) and 0.48 MiB (b-lenet: one sample's conv
    activations and conv1's weight gradient); STORE adds one sample's count
    log, as each block leaves the log when its backward pass reads it:
    0.98 and 0.48 MiB (b-lenet peaks in conv1's weight gradient, when only
    conv1's counts are logged).  A log of the whole step's counts read 7.48
    and 1.42 MiB.  All S forward passes before any backward pass,
    which keeps S samples' caches alive, read 0.41 and 1.05 MiB (SHIFT)
    and 7.70 and 2.00 MiB (STORE).  A new count array per SHIFT block and
    a whole unpack read 0.90 MiB (b-mlp).  A whole fc1 likelihood gradient
    per sample read 1.46 MiB (b-mlp SHIFT; 8.76 STORE), and a ReLU before
    each pool, which keeps a full-size mask, 1.33 MiB (b-lenet SHIFT; 2.28
    STORE).  Caching the ReLU inputs and the intp argmax read 3.24 MiB
    (b-lenet); keeping either the counts or the likelihood gradient of the
    layer above read 2.07 MiB (b-mlp).  The work buffers the trainer holds
    across steps (``scratch_bytes``) are pinned too, so no cut in a step
    comes from moving memory into set-up."""

    @pytest.mark.parametrize("name,bound_mib", [("b-lenet", 0.55), ("b-mlp", 0.22)],
                             ids=["b-lenet", "b-mlp"])
    def test_shift_step_peak(self, name, bound_mib):
        peak = self.step_peak(name, "shift")
        assert peak <= bound_mib * 2 ** 20, peak / 2 ** 20

    @pytest.mark.parametrize("name", ["b-lenet", "b-mlp"])
    def test_shift_step_peak_does_not_grow_with_samples(self, name):
        # one sample's cache at a time: S=8 peaks within 16 KiB of S=1 (it
        # read 1.7 KiB above on b-mlp, 6.8 KiB on b-lenet), where S caches
        # alive at once added 0.22 MiB (b-mlp) and 0.58 MiB (b-lenet)
        one, eight = self.step_peak(name, "shift", S=1), self.step_peak(name, "shift")
        assert eight - one <= 16 * 2 ** 10, (one, eight)

    @pytest.mark.parametrize("name,nbytes", [("b-mlp", 3_581_440), ("b-lenet", 702_192)])
    def test_work_buffers_held_across_steps(self, name, nbytes):
        model = MODEL_BUILDERS[name]()
        cfg = TrainConfig(S=8, master_seed=0)
        model.init_params(cfg)
        assert Trainer(model, cfg).scratch_bytes == nbytes

    @pytest.mark.parametrize("name,bound_mib", [("b-lenet", 0.55), ("b-mlp", 1.05)],
                             ids=["b-lenet", "b-mlp"])
    def test_store_step_peak(self, name, bound_mib):
        peak = self.step_peak(name, "store")
        assert peak <= bound_mib * 2 ** 20, peak / 2 ** 20

    @pytest.mark.parametrize("name", ["b-lenet", "b-mlp"])
    def test_store_step_peak_does_not_grow_with_samples(self, name):
        # a block leaves the log when its backward pass reads it: S=8 peaks
        # within 16 KiB of S=1 (it read 2.5 KiB above on b-mlp, 9.1 KiB on
        # b-lenet), where the whole step's log added 6.38 MiB (b-mlp) and
        # 0.84 MiB (b-lenet)
        one, eight = self.step_peak(name, "store", S=1), self.step_peak(name, "store")
        assert eight - one <= 16 * 2 ** 10, (one, eight)

    @staticmethod
    def step_peak(name, strategy, S=8) -> int:
        """Peak bytes of the second of two steps of an S-sample trainer."""
        model = MODEL_BUILDERS[name]()
        rng = np.random.default_rng(0)
        x = rng.random((16,) + model.input_shape, dtype=np.float32)
        y = np.arange(16) % 10
        cfg = TrainConfig(S=S, master_seed=0, epsilon_strategy=strategy)
        model.init_params(cfg)
        trainer = Trainer(model, cfg)
        trainer.train_step(x[:8], y[:8])  # warm-up
        tracemalloc.start()
        try:
            trainer.train_step(x[8:], y[8:])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestStreams:
    def test_streams_end_each_step_at_their_post_forward_register(self):
        # every step draws the next stretch of each stream, so no two steps
        # share their noise
        class DrawRecorder(Trainer):
            """Keeps copies of the counts each step drew, by (sample, layer id)."""

            def _counts(self, sample_id, layer_id, layer, backward):
                counts = super()._counts(sample_id, layer_id, layer, backward)
                if not backward:
                    self.drawn[(sample_id, layer_id)] = counts.copy()
                return counts

        x, y = synthetic_batch()
        for strategy in ("store", "shift"):
            cfg = TrainConfig(S=3, master_seed=2, epsilon_strategy=strategy)
            model = build_toyconv()
            model.init_params(cfg)
            trainer = DrawRecorder(model, cfg)
            per_step = sum(l.weight_count for _, l in model.bayes_layers())
            oracles = [grng_init(2, i, NOISE_TAPS) for i in range(cfg.S)]
            logs = []
            for _ in range(3):
                trainer.drawn = {}
                trainer.train_step(x[:4], y[:4])
                logs.append(trainer.drawn)
                for oracle in oracles:
                    oracle.generate_block(per_step)
                assert [s.lfsr for s in trainer.streams] == [o.lfsr for o in oracles], strategy
            keys = [(i, lid) for i in range(cfg.S) for lid, _ in model.bayes_layers()]
            for before, after in zip(logs, logs[1:]):
                assert sorted(before) == sorted(after) == keys, strategy
                for key in keys:
                    assert not np.array_equal(before[key], after[key]), (strategy, key)

    def test_shift_step_that_misses_its_start_register_raises(self):
        class Overshoot(Trainer):
            """Shifts each stream from ``first_miss`` on one draw on after its
            sample's backward pass, and records the passes that ran."""

            def forward_pass(self, x, y, sample_id, sigma_terms):
                self.ran.append(("forward", sample_id))
                return super().forward_pass(x, y, sample_id, sigma_terms)

            def backward_pass(self, cache, sample_id):
                super().backward_pass(cache, sample_id)
                self.ran.append(("backward", sample_id))
                if sample_id >= self.first_miss:
                    self.start = self.streams[sample_id].lfsr
                    self.streams[sample_id].generate_block(1)

        x, y = synthetic_batch()
        cfg = TrainConfig(S=3, master_seed=2, epsilon_strategy="shift")
        for first_miss in (0, 1):
            model = build_toyconv()
            model.init_params(cfg)
            before = [(l.mu.copy(), l.sigma.copy()) for _, l in model.bayes_layers()]
            trainer = Overshoot(model, cfg)
            trainer.first_miss, trainer.ran = first_miss, []
            with pytest.raises(RuntimeError, match=f"stream {first_miss} ") as caught:
                trainer.train_step(x[:4], y[:4])
            for state in (trainer.start, trainer.streams[first_miss].lfsr):
                assert f"{state.bits:#x}" in str(caught.value)
            # checked right after the missing sample's backward pass: no later
            # sample ran, and no parameter moved
            assert trainer.ran == [(p, i) for i in range(first_miss + 1)
                                   for p in ("forward", "backward")]
            for (mu, sigma), (_, layer) in zip(before, model.bayes_layers()):
                assert np.array_equal(layer.mu, mu) and np.array_equal(layer.sigma, sigma)

    def test_forward_pass_draws_every_weight_once(self):
        x, y = synthetic_batch()
        cfg = TrainConfig(S=2, master_seed=2)
        model = build_toyconv()
        model.init_params(cfg)
        trainer = Trainer(model, cfg)
        forward_passes(trainer, x[:4], y[:4])
        per_sample = sum(l.weight_count for _, l in model.bayes_layers())
        assert [s.position for s in trainer.streams] == [per_sample] * 2

    def test_each_layer_retrieves_what_it_drew(self):
        x, y = synthetic_batch()
        for strategy in ("store", "shift"):
            cfg = TrainConfig(S=2, master_seed=2, epsilon_strategy=strategy)
            model = build_toyconv()
            model.init_params(cfg)
            # each sample's stream draws its layers' counts in forward order
            drawn = {}
            for i in range(cfg.S):
                oracle = grng_init(2, i, NOISE_TAPS)
                for lid, layer in model.bayes_layers():
                    drawn[(i, lid)] = oracle.generate_block(layer.weight_count)
            trainer = _RetrievalRecorder(model, cfg)
            trainer.train_step(x[:4], y[:4])
            keys = [(i, lid) for i in range(2) for lid, _ in model.bayes_layers()]
            assert sorted(trainer.retrieved) == keys
            # STORE's backward passes took every block they read out of the log
            assert trainer.step_log == {}, strategy
            for i, lid in keys:
                assert trainer.retrieved[(i, lid)].size == model.layers[lid].weight_count
                assert np.array_equal(drawn[(i, lid)], trainer.retrieved[(i, lid)]), strategy

    def test_store_log_holds_one_samples_unread_blocks(self):
        class LogWatcher(Trainer):
            """Notes the log's keys after each forward and backward pass."""

            def forward_pass(self, x, y, sample_id, sigma_terms):
                out = super().forward_pass(x, y, sample_id, sigma_terms)
                self.seen.append(("forward", sample_id, sorted(self.step_log)))
                return out

            def backward_pass(self, cache, sample_id):
                super().backward_pass(cache, sample_id)
                self.seen.append(("backward", sample_id, sorted(self.step_log)))

        x, y = synthetic_batch()
        cfg = TrainConfig(S=3, master_seed=2, epsilon_strategy="store")
        model = build_toyconv()
        model.init_params(cfg)
        trainer = LogWatcher(model, cfg)
        lids = [lid for lid, _ in model.bayes_layers()]
        for step in range(2):
            trainer.seen = []
            trainer.train_step(x[:4], y[:4])
            assert trainer.seen == [entry for i in range(cfg.S) for entry in (
                ("forward", i, [(i, lid) for lid in lids]), ("backward", i, []))], step
            assert trainer.step_log == {}


class TestWorkBuffers:
    """A trainer keeps one set of work buffers across steps, shared by its
    streams and layers; the count arrays it is handed stay the caller's."""

    @pytest.mark.parametrize("strategy", ["store", "shift"])
    def test_counts_of_an_earlier_step_survive(self, strategy):
        class HandedOut(_RetrievalRecorder):
            """Also keeps a reference, not a copy, to each count array its
            latest step drew."""

            def train_step(self, x, y):
                self.handed = {}
                return super().train_step(x, y)

            def _counts(self, sample_id, layer_id, layer, backward):
                counts = super()._counts(sample_id, layer_id, layer, backward)
                if not backward:
                    self.handed[(sample_id, layer_id)] = counts
                return counts

        x, y = synthetic_batch()
        cfg = TrainConfig(S=2, master_seed=8, epsilon_strategy=strategy)
        model = build_toyconv()
        model.init_params(cfg)
        # copied before the trainer runs, so no buffer the trainer writes
        # can reach the expected counts
        expect = {}
        for i in range(cfg.S):
            oracle = grng_init(8, i, NOISE_TAPS)
            for lid, layer in model.bayes_layers():
                expect[(i, lid)] = oracle.generate_block(layer.weight_count).copy()
        trainer = HandedOut(model, cfg)
        trainer.train_step(x[:4], y[:4])
        handed, retrieved = trainer.handed, trainer.retrieved
        trainer.train_step(x[4:8], y[4:8])
        for key, counts in expect.items():
            assert np.array_equal(retrieved[key], counts), key
            # STORE's arrays are new ones; SHIFT's are views of the w buffer
            if strategy == "store":
                assert np.array_equal(handed[key], counts), key

    def test_one_set_sized_at_construction(self):
        x, y = synthetic_batch()
        cfg = TrainConfig(S=3, master_seed=8)
        model = build_toyconv()
        model.init_params(cfg)
        trainer = Trainer(model, cfg)
        assert all(s.scratch is trainer.scratch for s in trainer.streams)
        held = trainer.scratch_bytes
        trainer.train_step(x[:4], y[:4])
        assert trainer.scratch_bytes == held


#: three steady-state b-mlp steps at S=2 in a fresh interpreter; prints
#: their minor page faults
_FAULT_PROBE = """
import resource, sys
import numpy as np
from shiftbnn.train import TrainConfig, Trainer, build_bmlp
rng = np.random.default_rng(0)
x = rng.random((32, 784), dtype=np.float32)
y = rng.integers(0, 10, 32)
cfg = TrainConfig(S=2, batch=8, master_seed=0, epsilon_strategy=sys.argv[1])
model = build_bmlp()
model.init_params(cfg)
trainer = Trainer(model, cfg)
trainer.train_step(x[:8], y[:8])  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for lo in (8, 16, 24):
    trainer.train_step(x[lo:lo + 8], y[lo:lo + 8])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestPageFaults:
    """Steady-state steps fault in no fresh pages: the noise path reuses the
    trainer's buffers instead of allocating, and freeing, megabytes a step.
    The probe runs in a fresh interpreter because how much freed memory
    the allocator keeps depends on what the process freed before.  Before
    the buffers were reused the probe counted 8,168 (STORE) and 10,921
    (SHIFT) faults, the same in five runs each; each bound is a tenth."""

    @pytest.mark.parametrize("strategy,bound", [("store", 816), ("shift", 1_092)])
    def test_minor_faults_over_three_bmlp_steps(self, strategy, bound):
        pytest.importorskip("resource")
        src = str(Path(train.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", _FAULT_PROBE, strategy], env=env,
                             capture_output=True, text=True, check=True)
        faults = int(run.stdout)
        assert faults <= bound, faults


class TestTrainStep:
    def test_zero_lr_leaves_parameters_unchanged(self):
        x, y = synthetic_batch()
        cfg = TrainConfig(S=2, lr=0.0, master_seed=3)
        model = build_toyconv()
        model.init_params(cfg)
        before = [(l.mu.copy(), l.sigma.copy()) for _, l in model.bayes_layers()]
        Trainer(model, cfg).train_step(x[:4], y[:4])
        for (mu0, sig0), (_, l) in zip(before, model.bayes_layers()):
            assert np.array_equal(mu0, l.mu)
            assert np.array_equal(sig0, l.sigma)

    def test_scalar_step_matches_hand_calculation(self):
        # one fc layer, one input, two classes: every quantity is small
        # enough to recompute with explicit scalar arithmetic
        cfg = TrainConfig(S=1, lr=0.1, master_seed=4, kl_scale=1.0,
                          grad_mode="paper", dtype=np.float64)
        model = Model([BayesFC(1, 2)])
        model.init_params(cfg)
        mu0 = model.layers[0].mu.copy()
        sig0 = model.layers[0].sigma.copy()
        # independent replica of the noise the trainer will draw
        oracle = grng_init(4, 0, NOISE_TAPS)
        eps = counts_to_eps(oracle.generate_block(2), oracle.n).reshape(2, 1)

        x = np.array([[1.0]])
        y = np.array([0])
        trainer = Trainer(model, cfg)
        trainer.train_step(x, y)

        w = mu0 + eps * sig0
        logits = np.array([w[0, 0], w[1, 0]])
        p = np.exp(logits - logits.max())
        p /= p.sum()
        dlogits = p.copy()
        dlogits[0] -= 1.0
        dw_lik = dlogits.reshape(2, 1) * x[0, 0]
        dw_prime = dw_lik + 1.0 * (w / 0.25)
        mu_expect = mu0 - 0.1 * dw_prime
        sig_expect = np.maximum(sig0 - 0.1 * dw_prime * eps, train.SIGMA_MIN)
        assert np.allclose(model.layers[0].mu, mu_expect, atol=1e-12)
        assert np.allclose(model.layers[0].sigma, sig_expect, atol=1e-12)

    def test_sigma_clamped_at_minimum(self):
        x, y = synthetic_batch()
        cfg = TrainConfig(S=1, lr=1.0, master_seed=5)
        model = build_toyconv()
        model.init_params(cfg)
        trainer = Trainer(model, cfg)
        for _ in range(3):
            trainer.train_step(x[:4], y[:4])
        hit = 0
        for _, l in model.bayes_layers():
            assert np.all(l.sigma >= train.SIGMA_MIN)
            hit += int((l.sigma == train.SIGMA_MIN).sum())
        assert hit > 0  # the clamp actually engaged at this rate

    def test_update_scale_divides_by_samples(self):
        # one step moves mu by -(lr/S) * dmu, dmu summed over the S samples
        # by a twin trainer's own forward and backward passes
        x, y = synthetic_batch()
        cfg = TrainConfig(S=3, lr=0.4, master_seed=0, dtype=np.float64)
        stepped, twin = build_toyconv(), build_toyconv()
        stepped.init_params(cfg)
        twin.init_params(cfg)
        mu0 = {lid: l.mu.copy() for lid, l in stepped.bayes_layers()}
        trainer = Trainer(twin, cfg)
        dmu, _ = gradient_sums(trainer, x[:4], y[:4])
        Trainer(stepped, cfg).train_step(x[:4], y[:4])
        for lid, layer in stepped.bayes_layers():
            assert np.any(dmu[lid] != 0)
            assert np.array_equal(layer.mu, mu0[lid] - (cfg.lr / cfg.S) * dmu[lid])


class TestBackwardStopsAtFirstLayer:
    """The first Bayesian layer's input errors have no parameter to reach,
    so a step computes only its weight gradient."""

    @pytest.mark.parametrize("build,shape,kernel,calls", [
        (build_toyconv, (1, 10, 10), "conv_backward_data", 2),  # conv2 only
        (build_bmlp, (784,), "fc_backward_data", 4),  # fc3 and fc2
    ])
    def test_no_data_error_pass_below_first_layer(self, monkeypatch, build, shape,
                                                  kernel, calls):
        cfg = TrainConfig(S=2, master_seed=1)
        model = build()
        model.init_params(cfg)
        x = np.random.default_rng(2).random((4,) + shape).astype(np.float32)
        seen = []
        original = getattr(nn, kernel)

        def counting(*args, **kwargs):
            seen.append(kernel)
            return original(*args, **kwargs)

        monkeypatch.setattr(nn, kernel, counting)
        Trainer(model, cfg).train_step(x, np.array([0, 1, 2, 3]))
        assert len(seen) == calls

    @pytest.mark.parametrize("layer,x_shape,e_shape", [
        (train.BayesConv(2, 3, 3, pad=1), (4, 2, 6, 6), (4, 3, 6, 6)),
        (BayesFC(5, 3), (4, 5), (4, 3)),
    ])
    def test_need_dx_false_keeps_weight_gradient(self, layer, x_shape, e_shape):
        layer.init_params(np.random.default_rng(3), np.float64)
        rng = np.random.default_rng(4)
        x, e = rng.standard_normal(x_shape), rng.standard_normal(e_shape)
        dx, blocks = layer.backward(x, e, layer.mu)
        none, blocks_only = layer.backward(x, e, layer.mu, need_dx=False)
        assert dx.shape == x_shape
        assert none is None
        assert np.array_equal(_whole_gradient(layer, blocks_only),
                              _whole_gradient(layer, blocks))


def _whole_gradient(layer, blocks):
    """The likelihood dw that a layer's backward blocks make up, checking
    that they cover its rows once, in order."""
    dw = np.empty_like(layer.mu)
    covered = 0
    for rows, block in blocks:
        start, stop, _ = rows.indices(len(dw))
        assert start == covered and stop > start
        dw[rows] = block
        covered = stop
    assert covered == len(dw)
    return dw


def _bits(a):
    return a.view(np.uint32)  # float32


class TestBlockedWeightGradient:
    """BayesFC hands out its likelihood dw a block of rows at a time; every
    block has the bits of those rows of the whole product, and so have the
    (dmu, dsigma) the trainer builds from them."""

    # (n_in, n_out, example shape, rows of each block): 1000 inputs make
    # 32-row blocks, so 70 rows end in a 6-row block, and 65 rows in a
    # 33-row one (no one-row tail); 20 x 10 is smaller than one block;
    # a batch of one sums no products; 40,000 inputs make two rows a block
    CASES = [
        (1000, 70, (8, 1000), [32, 32, 6]),
        (1000, 65, (8, 1000), [32, 33]),
        (20, 10, (8, 20), [10]),
        (1000, 70, (1, 1000), [32, 32, 6]),
        (40000, 5, (2, 40000), [2, 3]),
    ]

    @pytest.mark.parametrize("n_in,n_out,x_shape,block_rows", CASES)
    def test_blocks_equal_the_whole_product(self, n_in, n_out, x_shape, block_rows):
        layer = BayesFC(n_in, n_out)
        layer.init_params(np.random.default_rng(1), np.float32)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(x_shape).astype(np.float32)
        e = rng.standard_normal(x_shape[:-1] + (n_out,)).astype(np.float32)
        _, blocks = layer.backward(x, e, layer.mu, need_dx=False)
        blocks = list(blocks)
        assert [len(block) for _, block in blocks] == block_rows
        assert np.array_equal(_bits(_whole_gradient(layer, blocks)),
                              _bits(nn.fc_backward_weights(x, e)))

    @pytest.mark.parametrize("grad_mode", ["paper", "exact"])
    @pytest.mark.parametrize("n_in,n_out,x_shape,block_rows", CASES[:4])
    def test_accumulators_equal_the_unblocked_formula(self, n_in, n_out, x_shape,
                                                      block_rows, grad_mode):
        cfg = TrainConfig(S=3, master_seed=5, grad_mode=grad_mode, kl_scale=0.25,
                          epsilon_strategy="store")
        model = Model([BayesFC(n_in, n_out)], name="fc", input_shape=(n_in,))
        model.init_params(cfg)
        layer = model.layers[0]
        layer.sigma[...] = 0.05
        rng = np.random.default_rng(6)
        x = rng.random(x_shape, dtype=np.float32)
        y = rng.integers(0, n_out, size=x_shape[:-1])
        trainer = Trainer(model, cfg)
        sigma_terms = trainer._sigma_terms()
        dmu, dsigma = np.zeros_like(layer.mu), np.zeros_like(layer.sigma)
        for i in range(cfg.S):
            cache, _ = trainer.forward_pass(x, y, i, sigma_terms)
            # the whole-layer formula, from the logged counts
            layer_cache, e = cache
            eps = counts_to_eps(trainer.step_log[(i, 0)].reshape(layer.mu.shape),
                                trainer.n, out=np.empty_like(layer.mu))
            w = eps * layer.sigma + layer.mu
            dw_prime = (dpu_grad(w, layer.sigma, eps, cfg)
                        + nn.fc_backward_weights(layer_cache[0], e))
            update_gradients(dw_prime, eps, dmu, dsigma)
            trainer.backward_pass(cache, i)
        got_mu, got_sigma = trainer.dmu, trainer.dsigma
        assert np.array_equal(_bits(got_mu[0]), _bits(dmu))
        assert np.array_equal(_bits(got_sigma[0]), _bits(dsigma))

    def test_fc1_backward_makes_no_weight_sized_array(self):
        layer = BayesFC(784, 400)
        layer.init_params(np.random.default_rng(1), np.float32)
        rng = np.random.default_rng(2)
        x = rng.random((8, 784), dtype=np.float32)
        e = rng.standard_normal((8, 400)).astype(np.float32)
        w = layer.mu
        tracemalloc.start()
        try:
            dx, blocks = layer.backward(x, e, w)
            for rows, block in blocks:
                del block
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 41-row block is a tenth of w's 1.2 MiB
        assert peak < w.nbytes // 4, peak


def _run_strategy(strategy, steps=5):
    x, y = synthetic_batch()
    cfg = TrainConfig(S=3, lr=1e-2, master_seed=7, epsilon_strategy=strategy)
    model = build_toyconv()
    model.init_params(cfg)
    trainer = Trainer(model, cfg)
    for i in range(steps):
        trainer.train_step(x[4 * i:4 * i + 4], y[4 * i:4 * i + 4])
    return [(l.mu.copy(), l.sigma.copy()) for _, l in model.bayes_layers()]


class TestStrategyEquivalence:
    def test_store_equals_shift(self):
        a = _run_strategy("store")
        b = _run_strategy("shift")
        for (mu_a, sig_a), (mu_b, sig_b) in zip(a, b):
            assert np.array_equal(mu_a, mu_b)
            assert np.array_equal(sig_a, sig_b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("S", [1, 2, 3])
    def test_store_equals_shift_with_conv_stride_and_padding(self, tmp_path, S, seed):
        """No built-in network strides or pads a conv: a 3x3 stride-2 pad-1
        conv on 9x9 inputs, a 3x3 pad-1 conv, a 2x2 conv, a pool and an fc
        layer write the same checkpoint bytes under both strategies after
        3 steps."""
        rng = np.random.default_rng(seed)
        x = rng.random((12, 1, 9, 9)).astype(np.float32)
        y = rng.integers(0, 10, 12)
        saved = {}
        for strategy in ("store", "shift"):
            model = Model([
                BayesConv(1, 3, 3, stride=2, pad=1), ReLU(),  # 9 -> 5
                BayesConv(3, 4, 3, pad=1), ReLU(),            # 5 -> 5
                BayesConv(4, 4, 2),                           # 5 -> 4
                MaxPool(2), ReLU(),                           # 4 -> 2
                BayesFC(4 * 2 * 2, 10),
            ], name="strided", input_shape=(1, 9, 9))
            cfg = TrainConfig(S=S, lr=0.01, master_seed=seed, epsilon_strategy=strategy)
            model.init_params(cfg)
            path = tmp_path / f"{strategy}.sbnn"
            save_checkpoint(path, model)
            start = path.read_bytes()
            trainer = Trainer(model, cfg)
            for step in range(3):
                trainer.train_step(x[4 * step:4 * step + 4], y[4 * step:4 * step + 4])
            save_checkpoint(path, model)
            saved[strategy] = path.read_bytes()
            assert saved[strategy] != start, strategy
        assert saved["store"] == saved["shift"]


class TestTrainingQuality:
    def test_loss_decreases_on_subset(self):
        # stand-in for the handwritten-digit subset check: 100 steps of
        # the mlp on a deterministic synthetic task
        rng = np.random.default_rng(0)
        templates = rng.random((10, 28, 28))
        y = rng.integers(0, 10, 200)
        x = np.clip(templates[y] + rng.normal(0, 0.1, (200, 28, 28)), 0, 1)
        x = x.reshape(200, 784).astype(np.float32)
        cfg = TrainConfig(S=4, lr=5e-3, master_seed=0, kl_scale=1e-3)
        model = build_bmlp()
        model.init_params(cfg)
        trainer = Trainer(model, cfg)
        first = last = None
        for i in range(100):
            lo = (i * 8) % 200
            loss = trainer.train_step(x[lo:lo + 8], y[lo:lo + 8])
            assert np.isfinite(loss.total)
            if first is None:
                first = loss.likelihood_nll
            last = loss.likelihood_nll
        assert last < first

    def test_validation_accuracy_improves(self):
        # 10 classes of 64-value templates plus noise; Trainer.accuracy
        # reads the posterior mean through Model.predict
        x, y = data.synthetic_dataset(0, 1800, (64,), 10)
        x_train, y_train = x[:1500], y[:1500]
        x_val, y_val = x[1500:], y[1500:]
        cfg = TrainConfig(S=4, lr=0.05, master_seed=1, kl_scale=1e-4)
        model = Model([BayesFC(64, 64), train.ReLU(), BayesFC(64, 10)],
                      name="mlp-64")
        model.init_params(cfg)
        trainer = Trainer(model, cfg)
        base = trainer.accuracy(x_val, y_val)
        for epoch in range(6):
            for lo in range(0, len(x_train), 32):
                trainer.train_step(x_train[lo:lo + 32], y_train[lo:lo + 32])
        acc = trainer.accuracy(x_val, y_val)
        assert acc > max(base, 0.8)


class TestGradientFiniteDifferences:
    def test_exact_mode_matches_fd(self):
        """EXACT-mode accumulators against central differences.

        The gradient flows through the sampled weight w = mu + eps*sigma
        with the density parameters of the posterior term frozen (that is
        what d/dw of the log densities means), so the comparison loss is
        written as an explicit function of w.
        """
        x, y = synthetic_batch(seed=3, count=4)
        cfg = TrainConfig(S=2, lr=1e-3, master_seed=11, grad_mode="exact",
                          kl_scale=1.0, dtype=np.float64)
        model = build_toyconv()
        model.init_params(cfg)
        for _, layer in model.bayes_layers():
            layer.sigma[...] = 0.01
        mu0 = {i: l.mu.copy() for i, l in model.bayes_layers()}
        sig0 = {i: l.sigma.copy() for i, l in model.bayes_layers()}

        # the noise each sample will use, replicated independently
        eps = {}
        for s in range(cfg.S):
            stream = grng_init(11, s, NOISE_TAPS)
            for lid, layer in model.bayes_layers():
                counts = stream.generate_block(layer.weight_count)
                eps[(s, lid)] = counts_to_eps(counts, stream.n).reshape(layer.mu.shape)

        from shiftbnn import nn

        def total_loss(mu, sigma):
            total = 0.0
            for s in range(cfg.S):
                weights = {lid: mu[lid] + eps[(s, lid)] * sigma[lid]
                           for lid, _ in model.bayes_layers()}
                logits = model.forward_with_weights(x[:4], weights)
                nll, _ = nn.softmax_xent(logits, y[:4])
                for lid, _ in model.bayes_layers():
                    w = weights[lid]
                    # log-density terms as functions of w, parameters frozen
                    total += cfg.kl_scale * float(
                        np.sum(-(w - mu0[lid]) ** 2 / (2 * sig0[lid] ** 2)))
                    total += cfg.kl_scale * float(
                        np.sum(w ** 2 / (2 * train.SIGMA_PRIOR ** 2)))
                total += nll
            return total

        dmu, dsigma = gradient_sums(Trainer(model, cfg), x[:4], y[:4])

        rng = np.random.default_rng(0)
        h = 1e-5
        for lid, layer in model.bayes_layers():
            flat = layer.mu.size
            for _ in range(3):
                idx = np.unravel_index(rng.integers(flat), layer.mu.shape)
                for accum_arr, param in ((dmu[lid], "mu"), (dsigma[lid], "sigma")):
                    mu_p = {k: v.copy() for k, v in mu0.items()}
                    mu_m = {k: v.copy() for k, v in mu0.items()}
                    sig_p = {k: v.copy() for k, v in sig0.items()}
                    sig_m = {k: v.copy() for k, v in sig0.items()}
                    if param == "mu":
                        mu_p[lid][idx] += h
                        mu_m[lid][idx] -= h
                    else:
                        sig_p[lid][idx] += h
                        sig_m[lid][idx] -= h
                    fd = (total_loss(mu_p, sig_p) - total_loss(mu_m, sig_m)) / (2 * h)
                    got = accum_arr[idx]
                    assert got == pytest.approx(fd, rel=1e-3, abs=1e-6), (
                        lid, idx, param)


class TestCheckpoints:
    def test_roundtrip_byte_identical(self, tmp_path):
        cfg = TrainConfig(S=1, master_seed=6)
        model = build_toyconv()
        model.init_params(cfg)
        p1 = tmp_path / "a.sbnn"
        p2 = tmp_path / "b.sbnn"
        save_checkpoint(p1, model)
        entries = load_checkpoint(p1)
        other = build_toyconv()
        other.init_params(TrainConfig(S=1, master_seed=99))
        apply_checkpoint(other, entries)
        save_checkpoint(p2, other)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loads_into_fresh_networks_that_share_no_array(self, tmp_path):
        source = build_toyconv()
        source.init_params(TrainConfig(S=1, master_seed=6))
        p1, p2 = tmp_path / "a.sbnn", tmp_path / "b.sbnn"
        save_checkpoint(p1, source)
        entries = load_checkpoint(p1)
        # never initialised: the load alone sets every (mu, sigma)
        first, second = build_toyconv(), build_toyconv()
        apply_checkpoint(first, entries)
        save_checkpoint(p2, first)
        assert p1.read_bytes() == p2.read_bytes()
        apply_checkpoint(second, entries)
        before = [(l.mu.copy(), l.sigma.copy()) for _, l in second.bayes_layers()]
        x, y = synthetic_batch()
        Trainer(first, TrainConfig(S=2, lr=0.1, master_seed=1)).train_step(x[:4], y[:4])
        for (_, layer), (mu, sigma), (_, stepped) in zip(second.bayes_layers(), before,
                                                         first.bayes_layers()):
            assert np.array_equal(layer.mu, mu) and np.array_equal(layer.sigma, sigma)
            assert not np.array_equal(stepped.mu, mu)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.sbnn"
        p.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(ValueError):
            load_checkpoint(p)

    @pytest.fixture
    def saved(self, tmp_path):
        model = build_toyconv()
        model.init_params(TrainConfig(S=1, master_seed=0))
        p = tmp_path / "a.sbnn"
        save_checkpoint(p, model)
        return p

    @pytest.mark.parametrize("keep,match", [
        (7, "truncated checkpoint header"),
        (12 + 9, "truncated checkpoint layer 0 header"),
        (12 + 17 + 4 * 36 + 10, "truncated checkpoint layer 0 sigma"),
        (-4, "truncated checkpoint layer 2 sigma"),
    ])
    def test_truncated_named(self, saved, keep, match):
        saved.write_bytes(saved.read_bytes()[:keep])
        with pytest.raises(ValueError, match=match):
            load_checkpoint(saved)

    def test_oversized_layer_claim_is_truncated(self, tmp_path):
        # every dim at 2^32 - 1: the layer claims 4 (2^32 - 1)^4 bytes of mu
        big = 2 ** 32 - 1
        p = tmp_path / "big.sbnn"
        p.write_bytes(train.SBNN_MAGIC + struct.pack("<II", 1, 1)
                      + struct.pack("<B4I", 0, big, big, big, big) + bytes(64))
        with pytest.raises(ValueError, match="truncated checkpoint layer 0 mu"):
            load_checkpoint(p)

    def test_unknown_kind_named(self, saved):
        raw = bytearray(saved.read_bytes())
        raw[12] = 7  # the first layer's kind code
        saved.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unknown kind code 7 of checkpoint layer 0"):
            load_checkpoint(saved)

    def test_fc_dims_beyond_two_named(self, tmp_path):
        # an fc layer is (n_out, n_in, 1, 1): dims 2, 3, 4, 1 claim 24
        # weights but an fc shape of 6
        p = tmp_path / "fc.sbnn"
        p.write_bytes(train.SBNN_MAGIC + struct.pack("<II", 1, 1)
                      + struct.pack("<B4I", 1, 2, 3, 4, 1) + bytes(2 * 4 * 24))
        with pytest.raises(ValueError,
                           match=r"fc checkpoint layer 0 has dims \(2, 3, 4, 1\)"):
            load_checkpoint(p)

    def test_layer_count_mismatch(self, tmp_path):
        cfg = TrainConfig(S=1, master_seed=0)
        model = build_toyconv()
        model.init_params(cfg)
        p = tmp_path / "a.sbnn"
        save_checkpoint(p, model)
        mlp = build_bmlp()
        mlp.init_params(cfg)
        with pytest.raises(ValueError):
            apply_checkpoint(mlp, load_checkpoint(p))

    @pytest.mark.parametrize("saved,model,match", [
        # an fc 4 -> 6 layer holds as many weights as an fc 6 -> 4 one
        (train.BayesFC(4, 6), train.BayesFC(6, 4),
         r"checkpoint layer 0 is fc \(6, 4\), but one-layer has fc \(4, 6\)"),
        # a 1x1x2x2 conv kernel holds as many weights as an fc 2 -> 2 layer
        (train.BayesConv(1, 1, 2), train.BayesFC(2, 2),
         r"checkpoint layer 0 is conv \(1, 1, 2, 2\), but one-layer has fc \(2, 2\)"),
    ])
    def test_layer_kind_or_shape_mismatch_named(self, tmp_path, saved, model, match):
        cfg = TrainConfig(S=1, master_seed=0)
        source = Model([saved], name="source")
        source.init_params(cfg)
        p = tmp_path / "a.sbnn"
        save_checkpoint(p, source)
        target = Model([model], name="one-layer")
        target.init_params(cfg)
        before = model.mu.copy()
        with pytest.raises(ValueError, match=match):
            apply_checkpoint(target, load_checkpoint(p))
        assert np.array_equal(model.mu, before)

    def test_bytes_after_the_last_layer_named(self, saved):
        saved.write_bytes(saved.read_bytes() + bytes(4))
        with pytest.raises(data.CountMismatch,
                           match="checkpoint has bytes after what its header counts"):
            load_checkpoint(saved)
