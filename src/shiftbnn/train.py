"""Bayes-by-backprop training with storage-free Gaussian noise retrieval.

Each training step draws one Gaussian variable per weight per ensemble
sample (w = mu + eps * sigma), runs forward/backward/gradient stages and
updates (mu, sigma) by plain SGD.  The samples run one at a time: each
sample's backward pass comes right after its own forward pass, so only
one sample's activations are alive at once, and the (dmu, dsigma) sums
add up in sample order.  The noise comes from per-sample reversible LFSR
streams and is handled by one of two strategies:

* STORE: the baseline; every drawn count is logged during the forward
  pass and read back, once, during the same sample's backward pass, which
  drops it from the log; so the log holds at most one sample's counts.
* SHIFT: nothing is logged; a sample's backward pass retrieves the exact
  same values by shifting its generator stream in reverse (the reverse
  recurrence of ``lfsr.extend_backward``, from the stream's current
  register alone), which walks the stream back to the register it began
  the step with; ``train_step`` checks that it did, right after that
  sample's backward pass.  Each layer's ``weight_count`` says how many
  draws to shift back; nothing about the draws is kept.

Both strategies produce bit-identical parameter trajectories; that
equality is the whole point and is asserted by the test suite.

The backward pass stops at the first Bayesian layer, which computes only
its weight gradient: the errors it would pass to the input image reach
no parameter.

Per-weight math: the streams hand out raw 1s counts, and only ``grng``
turns counts into eps.  In ``Trainer._sample``, for both passes,
``counts_to_eps`` standardizes them straight into the working dtype
(exactly, at every width a ``Trainer`` accepts) in the eps
buffer, with no temporary, and w = mu + eps * sigma is built in the w
buffer.  Each ``Trainer`` keeps the two buffers across steps, sized by
its largest layer and shared by its samples and layers; dw' is then
built in w's buffer.  The trainer also hands its S streams one
``BlockScratch`` (the generator's block buffer, sized the same way).
Under SHIFT the streams write each block's counts into a uint16 view of
the front of the w buffer, which is idle until ``_sample`` writes w,
after ``counts_to_eps`` has read them; STORE's counts are new arrays, as
they are its log.  So the SHIFT noise path allocates only a retrieval's
unpacked bits, 64 KiB at a time.  sigma is fixed within a step, so only
-sum log sigma is taken per layer per step; the sqrt(2 pi) terms and the
prior's normaliser are constants per weight.  sum log sigma and sum w^2
go through one float64 buffer of at most 16 Ki elements, a chunk at a
time, so only their float64 summation order differs from a float64 copy,
within 1e-12 relative.  sum(eps^2) needs no copy (``eps_square_sum``):
float32 dot products over rows of the eps buffer, each row short enough
that every partial sum is exact, added up in float64, so it equals the
integer formula.  That holds at the widths where sqrt(n/4) is a power of
two (n <= 2^13), the only ones a ``Trainer`` accepts.  The backward pass
forms dw' and the (dmu, dsigma) updates with in-place operations whose
bits equal the plain expressions (paper mode's prior gradient and its KL
weight in one multiply, ``dpu_grad``), one block of the likelihood
weight gradient at a time: an fc layer hands it out about ``GRAD_BLOCK``
(32 Ki) weights at a time, a block of whole rows, so no fc gradient
exists at full size; a conv layer's is one block.

Fresh noise every step: after each sample's backward pass,
``train_step`` sets its stream, under both strategies, to the register
it held at the end of the sample's forward pass (one n-bit register per
stream, as the hardware would keep), so the next step draws the stretch
of the stream that follows.  Neighbouring draws of one stream still
share n - 1 of their n bits.

The built-in networks (``MODEL_BUILDERS``) are also the cost model's
b-mlp and b-lenet: ``costmodel.spec_from_model`` reads their shapes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import expect_end, read_exact
from .grng import BlockScratch, GrngStream, counts_to_eps, exact_eps, grng_init
from .lfsr import TapSet

#: register width and taps of every stream the trainer draws from
NOISE_TAPS = TapSet.default(256)
#: stddev of the zero-mean Gaussian prior on every weight
SIGMA_PRIOR = 0.5
#: floor of sigma after each update: SGD on sigma itself can cross zero
SIGMA_MIN = 1e-6
#: sigma of every weight before training: consecutive draws from one stream
#: are strongly correlated (each shift replaces one bit of the counting
#: window), so per-row noise adds almost coherently; a small initial sigma
#: keeps early activations bounded
SIGMA_INIT = 0.005
LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)
#: -log p(w) per weight, less w^2 / (2 sigma_p^2): the prior's normaliser
LOG_PRIOR_NORM = math.log(SIGMA_PRIOR) + LOG_SQRT_2PI


@dataclass
class TrainConfig:
    S: int = 1  # ensemble samples per step
    lr: float = 1e-3
    batch: int = 1
    grad_mode: str = "paper"  # "paper" (w / SIGMA_PRIOR^2) | "exact"
    epsilon_strategy: str = "shift"  # "shift" | "store"
    master_seed: int = 0
    kl_scale: float = 1.0  # weight of the prior+posterior terms per step
    dtype: type = np.float32

    def __post_init__(self):
        if self.S < 1:
            raise ValueError(f"S must be >= 1, got {self.S}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.grad_mode not in ("paper", "exact"):
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")
        if self.epsilon_strategy not in ("shift", "store"):
            raise ValueError(f"unknown epsilon_strategy {self.epsilon_strategy!r}")


@dataclass
class LossBreakdown:
    """Eq-style decomposition; all three terms are minimized.

    ``log_posterior`` and ``neg_log_prior`` are stored already scaled by
    the configured KL weight so that total == sum of the three parts.
    """

    likelihood_nll: float
    log_posterior: float
    neg_log_prior: float

    @property
    def total(self) -> float:
        return self.likelihood_nll + self.log_posterior + self.neg_log_prior


# -- per-weight math, as used by the function units -------------------------


def dpu_grad(w, sigma, eps, cfg: TrainConfig, out=None):
    """d(posterior + prior terms)/dw for one sampled weight, times the KL
    weight ``cfg.kl_scale``.

    "paper" mode keeps only the dominant prior part w / SIGMA_PRIOR^2
    (a 2-bit left shift, SIGMA_PRIOR being 0.5), taken as one multiply
    w * (4 * kl_scale) in w's dtype: 4 * kl_scale is exact there, so the
    product rounds once, to the bits of w / SIGMA_PRIOR^2 * kl_scale
    (unless 4|w| overflows).  "exact" mode adds the posterior's through-w
    derivative -eps / sigma before it scales by kl_scale.  ``out`` (which
    may be ``w``) receives the result; exact mode still makes one
    temporary.
    """
    if cfg.grad_mode == "paper":
        dtype = np.result_type(w)
        return np.multiply(w, dtype.type(1 / SIGMA_PRIOR ** 2) * dtype.type(cfg.kl_scale),
                           out=out)
    g = np.divide(w, SIGMA_PRIOR ** 2, out=out)
    g -= eps / sigma
    g *= cfg.kl_scale
    return g


def update_gradients(dw_prime, eps, accum_mu, accum_sigma) -> None:
    """Chain rule through w = mu + eps * sigma: dmu += dw', dsigma += dw' * eps.

    An array ``dw_prime`` is overwritten with dw' * eps.
    """
    accum_mu += dw_prime
    dw_prime *= eps
    accum_sigma += dw_prime


#: float64 elements of the log-density sums' buffer: 128 KiB stays in cache
SQUARE_CHUNK = 1 << 14


def _float64_chunks(a: np.ndarray, buf: np.ndarray):
    """a's elements in order, copied ``buf.size`` at a time into the float64
    buffer ``buf``; yields the filled front of ``buf``."""
    flat = a.reshape(-1)
    for lo in range(0, flat.size, buf.size):
        part = flat[lo:lo + buf.size]
        chunk = buf[:part.size]
        np.copyto(chunk, part)
        yield chunk


def square_sum(a: np.ndarray, buf: np.ndarray) -> float:
    """Sum of squares in float64, one BLAS dot product (``np.dot``) per
    chunk of the float64 buffer ``buf``; the trainer's sum(w^2).

    Only the float64 summation order differs from a float64 copy of the
    whole of ``a``: the result agrees to about 1e-16 times the size, and
    equals it exactly when every partial sum is exact, as for the eps of
    n = 256 (multiples of 1/64 of at most 256), which ``eps_square_sum``
    sums without the copy.
    """
    total = 0.0
    for chunk in _float64_chunks(a, buf):
        total += float(np.dot(chunk, chunk))
    return total


def eps_square_sum(eps: np.ndarray, n: int) -> float:
    """sum(eps^2) of the eps of n-bit counts, with no float64 copy, exact
    for every width a ``Trainer`` accepts (``exact_eps(n)``, n <= 2^13).

    Each eps^2 = (c - n/2)^2 * 4/n is a multiple of 4/n, a power of two,
    and at most n.  So a row of 2^26 / n^2 of them (1,024 at n = 256) sums
    to at most 2^24 multiples of 4/n, and every partial sum of the row's
    dot product, taken in eps's dtype, is exact in float32.  The row sums
    add in float64, far below 2^53 multiples of 4/n.  The result is the
    integer formula, as ``square_sum``'s is.
    """
    flat = eps.reshape(-1)
    row = (1 << 26) // (n * n)
    whole = flat.size - flat.size % row
    rows = flat[:whole].reshape(-1, 1, row)
    tail = flat[whole:]
    # one (1, row) @ (row, 1) product per row
    row_sums = np.matmul(rows, rows.transpose(0, 2, 1))
    return float(row_sums.sum(dtype=np.float64)) + float(np.dot(tail, tail))


def log_sum(a: np.ndarray, buf: np.ndarray) -> float:
    """Sum of natural logs in float64, a chunk of the float64 buffer ``buf``
    at a time; agrees with a float64 copy's to about 1e-16 times the size."""
    total = 0.0
    for chunk in _float64_chunks(a, buf):
        total += float(np.log(chunk, out=chunk).sum())
    return total


# -- layers ------------------------------------------------------------------


#: likelihood-gradient weights a BayesFC backward makes at a time: 41 rows of
#: a 784-input layer (128 KiB of float32)
GRAD_BLOCK = 1 << 15


class BayesLayer:
    """(mu, sigma) of one weight array of shape ``weight_shape``, output axis
    first.  ``init_params`` draws mu from N(0, 1 / fan_in), fan_in being
    every other axis, and sets sigma to ``SIGMA_INIT``."""

    def __init__(self, weight_shape: tuple[int, ...]):
        self.weight_shape = weight_shape
        self.mu = self.sigma = None

    @property
    def weight_count(self) -> int:
        return math.prod(self.weight_shape)

    def init_params(self, rng: np.random.Generator, dtype):
        shape = self.weight_shape
        fan_in = math.prod(shape[1:])
        self.mu = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype)
        self.sigma = np.full(shape, SIGMA_INIT, dtype=dtype)


class BayesConv(BayesLayer):
    kind = "conv"

    def __init__(self, n_in: int, m_out: int, k: int, stride: int = 1, pad: int = 0):
        super().__init__((m_out, n_in, k, k))
        self.M, self.K = m_out, k
        self.stride, self.pad = stride, pad

    def out_shape(self, in_shape):
        return (self.M,) + tuple(nn.out_extent(n, self.K, self.stride, self.pad)
                                 for n in in_shape[-2:])

    def forward(self, x, w):
        return nn.conv_forward(x, w, self.stride, self.pad)

    def backward(self, x, e, w, need_dx=True):
        """(input errors or None when not ``need_dx``, likelihood dw blocks).

        A conv gradient is small (at most 2,400 weights in the built-in
        networks), so it is one block: ``[(slice(None), dw)]``.
        """
        dx = None
        if need_dx:
            dx = nn.conv_backward_data(e, w, self.stride, self.pad)
        return dx, [(slice(None), nn.conv_backward_weights(x, e, self.K, self.stride,
                                                           self.pad))]


class BayesFC(BayesLayer):
    kind = "fc"

    def __init__(self, n_in: int, n_out: int):
        super().__init__((n_out, n_in))
        self.n_in, self.n_out = n_in, n_out

    def out_shape(self, in_shape):
        return (self.n_out,)

    def forward(self, x, w):
        return nn.fc_forward(x.reshape(len(x), -1), w)

    def backward(self, x, e, w, need_dx=True):
        """(input errors in x's shape or None when not ``need_dx``,
        likelihood dw blocks).

        dx is made at once, since it reads all of w.  The blocks are
        (row slice, dw rows) pairs of about ``GRAD_BLOCK`` weights, each
        made only when the consumer asks for the next, so no full-size dw
        exists.  Each block reduces over the batch axis alone, so it holds
        the bits of those rows of the whole product.  A block has two rows
        at least (unless the layer has one): numpy hands a one-row product
        to gemv or dot, whose sums can round differently from gemm's.
        """
        dx = nn.fc_backward_data(e, w).reshape(x.shape) if need_dx else None
        return dx, self._weight_grad_blocks(x.reshape(len(x), -1), e)

    def _weight_grad_blocks(self, x, e):
        step = max(2, GRAD_BLOCK // self.n_in)
        lo = 0
        # a one-row tail joins the block before it
        for hi in [*range(step, self.n_out - 1, step), self.n_out]:
            yield slice(lo, hi), nn.fc_backward_weights(x, e[..., lo:hi])
            lo = hi


class ReLU:
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        return nn.relu_fwd(x)

    def backward(self, e, mask):
        return nn.relu_bwd(e, mask)


class MaxPool:
    def __init__(self, k: int = 2):
        self.k = k

    def out_shape(self, in_shape):
        return in_shape[:-2] + tuple(nn.out_extent(n, self.k, self.k, 0)
                                     for n in in_shape[-2:])

    def forward(self, x):
        return nn.maxpool_fwd(x, self.k)

    def backward(self, e, slot):
        return nn.maxpool_bwd(e, slot, self.k)


class Model:
    """Layers in forward order; ``input_shape`` is the shape of one input
    example.  Every layer takes a batch of examples, and an fc layer reads
    each of its input examples as a vector."""

    def __init__(self, layers, name: str = "model", input_shape: tuple[int, ...] = ()):
        self.layers = list(layers)
        self.name = name
        self.input_shape = input_shape

    def bayes_layers(self):
        """(layer_id, layer) for every parameterized layer; the id is the
        position in the layer list, which keys the per-layer arrays."""
        return [(i, l) for i, l in enumerate(self.layers) if isinstance(l, BayesLayer)]

    def init_params(self, cfg: TrainConfig):
        rng = np.random.default_rng(cfg.master_seed)
        for _, layer in self.bayes_layers():
            layer.init_params(rng, cfg.dtype)

    def forward_with_weights(self, x, weights: dict):
        """Deterministic forward with explicit per-layer weight arrays."""
        a = x
        for i, layer in enumerate(self.layers):
            if isinstance(layer, BayesLayer):
                a = layer.forward(a, weights[i])
            else:
                a, _ = layer.forward(a)
        return a

    def predict(self, x):
        """Posterior-mean forward (w = mu); used for validation accuracy."""
        return self.forward_with_weights(x, {i: l.mu for i, l in self.bayes_layers()})


# -- trainer -----------------------------------------------------------------


def _front(buf: np.ndarray, shape) -> np.ndarray:
    """The first prod(shape) elements of a flat buffer, shaped ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


class Trainer:
    """Bayes-by-backprop steps on one model under the configured strategy.

    ``step_log`` is STORE's count log: one new array per (sample, layer
    id), put in when the forward pass draws it and taken out when the
    same sample's backward pass reads it back.  So it holds only the
    current sample's unread blocks, and it is empty after each sample's
    backward pass and between steps; the arrays it handed out stay the
    caller's.  SHIFT leaves it empty.  ``dmu`` and ``dsigma`` hold the
    gradient sums per layer id that the latest step's backward passes
    added up, scaled in place by its update.
    """

    def __init__(self, model: Model, cfg: TrainConfig, taps: TapSet | None = None):
        self.model = model
        self.cfg = cfg
        self.step_log: dict[tuple[int, int], np.ndarray] = {}
        self.taps = taps or NOISE_TAPS
        self.n = self.taps.width
        if not exact_eps(self.n) or self.n > 1 << 13:
            raise ValueError(f"tap width {self.n}: sum(eps^2) is exact only for widths "
                             "up to 2^13 whose sqrt(n/4) is a power of two "
                             "(16, 64, 256, ...)")
        # one set of work buffers for every stream and layer, sized by the
        # largest layer: the streams draw one at a time
        largest = max((l.weight_count for _, l in model.bayes_layers()), default=0)
        self.scratch = BlockScratch()
        self.scratch.block(largest, self.taps)
        self.streams: list[GrngStream] = [
            grng_init(cfg.master_seed, i, self.taps, self.scratch) for i in range(cfg.S)
        ]
        self._eps_buf = np.empty(largest, cfg.dtype)
        self._w_buf = np.empty(largest, cfg.dtype)
        self._square_buf = np.empty(min(largest, SQUARE_CHUNK), np.float64)
        self.dmu = {i: np.zeros(l.weight_shape, cfg.dtype) for i, l in model.bayes_layers()}
        self.dsigma = {i: np.zeros(l.weight_shape, cfg.dtype) for i, l in model.bayes_layers()}

    @property
    def scratch_bytes(self) -> int:
        """Bytes of work buffers the trainer keeps across steps."""
        return (self.scratch.nbytes + self._eps_buf.nbytes + self._w_buf.nbytes
                + self._square_buf.nbytes)

    def _counts(self, sample_id: int, layer_id: int, layer, backward: bool) -> np.ndarray:
        """``layer``'s counts for sample ``sample_id`` in forward order, drawn or
        (``backward``) got back.  STORE draws a new array into ``step_log`` and
        takes it back out, so each block is read back once; SHIFT draws into
        a uint16 view of the front of the idle w buffer and retrieves into it
        by reverse shifting."""
        stream, k = self.streams[sample_id], layer.weight_count
        if self.cfg.epsilon_strategy == "store":
            if backward:
                return self.step_log.pop((sample_id, layer_id))
            counts = self.step_log[(sample_id, layer_id)] = stream.generate_block(k)
            return counts
        out = self._w_buf.view(np.uint16)[:k]
        if backward:
            # reverse retrieval order -> forward order
            return stream.retrieve_block(k, out=out)[::-1]
        return stream.generate_block(k, out=out)

    def _sample(self, counts: np.ndarray, layer):
        """(eps, w = mu + eps * sigma) of one layer from its counts, in the
        eps and w buffers."""
        shape = layer.weight_shape
        eps = counts_to_eps(counts.reshape(shape), self.n, out=_front(self._eps_buf, shape))
        w = np.multiply(eps, layer.sigma, out=_front(self._w_buf, shape))
        w += layer.mu
        return eps, w

    def _sigma_terms(self) -> dict:
        """Per Bayesian layer id, the sample-independent terms of
        log q(w) = -sum log sigma - |W| log sqrt(2 pi) - sum eps^2 / 2.
        sigma is fixed within a step, so they are taken once per layer per
        step; -log p(w) = |W| ``LOG_PRIOR_NORM`` + sum w^2 / (2 sigma_p^2)
        has no sigma term."""
        return {lid: -log_sum(layer.sigma, self._square_buf)
                - layer.weight_count * LOG_SQRT_2PI
                for lid, layer in enumerate(self.model.layers)
                if isinstance(layer, BayesLayer)}

    def forward_pass(self, x, y, sample_id: int, sigma_terms):
        """Sample ``sample_id``'s forward pass; returns (cache, LossBreakdown).

        ``sigma_terms`` are the step's ``_sigma_terms()``.  The cache holds
        what this sample's backward pass reads: each Bayesian layer's input,
        a ReLU's bool mask and a pool's slot indices (1 byte per element),
        and the logits' errors; the drawn counts are not kept (SHIFT) or go
        to ``step_log`` (STORE).
        """
        cfg = self.cfg
        a = x
        layer_cache = []
        p_s = 0.0
        p_r = 0.0
        for lid, layer in enumerate(self.model.layers):
            if isinstance(layer, BayesLayer):
                # eps and w in their buffers; the counts are dropped once read
                eps, w = self._sample(self._counts(sample_id, lid, layer, backward=False),
                                      layer)
                p_s += sigma_terms[lid] - 0.5 * eps_square_sum(eps, self.n)
                p_r += (layer.weight_count * LOG_PRIOR_NORM
                        + square_sum(w, self._square_buf) / (2 * SIGMA_PRIOR ** 2))
                layer_cache.append(a)
                a = layer.forward(a, w)
            else:
                a, aux = layer.forward(a)
                layer_cache.append(aux)
        nll, dlogits = nn.softmax_xent(a, y)
        return (layer_cache, dlogits), LossBreakdown(
            likelihood_nll=nll,
            log_posterior=cfg.kl_scale * p_s,
            neg_log_prior=cfg.kl_scale * p_r,
        )

    def backward_pass(self, cache, sample_id: int) -> None:
        """Sample ``sample_id``'s fused backward + gradient stage, layers last
        to first, from the ``cache`` of its forward pass; adds its (dmu,
        dsigma) into ``self.dmu`` and ``self.dsigma``.

        Per layer the retrieved noise reconstructs the sampled weights
        once, serving both the data-error propagation (the rot-180
        adjoint) and the (dmu, dsigma) updates; afterwards a SHIFT
        stream sits where the sample's forward pass began.  The pass ends
        at the first Bayesian layer, which computes only its weight
        gradient: no parameter lies below it, so the input errors would
        be thrown away.  A layer's counts are dropped before the layer
        below draws its own.  Its likelihood weight gradient comes from its
        ``backward`` call a block of rows at a time (after the input
        errors, which read all of w), and each block becomes its rows of
        dw' and of the (dmu, dsigma) sums before the next is made.  No
        other layer is called in between, so a tracer that credits time to
        the layer called last credits the blocks to their own layer.
        """
        cfg = self.cfg
        layer_cache, e = cache
        first = next(i for i, l in enumerate(self.model.layers) if isinstance(l, BayesLayer))
        for lid in range(len(self.model.layers) - 1, first - 1, -1):
            layer = self.model.layers[lid]
            payload = layer_cache[lid]
            if isinstance(layer, BayesLayer):
                eps, w = self._sample(self._counts(sample_id, lid, layer, backward=True),
                                      layer)
                e, dw_blocks = layer.backward(payload, e, w, need_dx=lid != first)
                # dw' = dw_lik + dpu_grad (already times kl_scale), one
                # block of rows and one in-place operation at a time (each
                # commutes, so the bits match), in w's buffer: backward has
                # read all of w, and a block's rows are not read again
                for rows, dw_lik in dw_blocks:
                    w_rows, eps_rows = w[rows], eps[rows]
                    dw_prime = dpu_grad(w_rows, layer.sigma[rows], eps_rows, cfg,
                                        out=w_rows)
                    dw_prime += dw_lik
                    del dw_lik
                    update_gradients(dw_prime, eps_rows,
                                     self.dmu[lid][rows], self.dsigma[lid][rows])
            else:
                e = layer.backward(e, payload)

    def train_step(self, x, y) -> LossBreakdown:
        """One step: each sample's forward pass and then its backward pass,
        samples 0 to S - 1, so only one sample's cache is alive at a time;
        then one SGD update from the (dmu, dsigma) sums.  Returns the
        samples' mean loss."""
        cfg = self.cfg
        for a in (*self.dmu.values(), *self.dsigma.values()):
            a[...] = 0
        sigma_terms = self._sigma_terms()
        losses = []
        for i, stream in enumerate(self.streams):
            start = stream.lfsr
            cache, loss = self.forward_pass(x, y, i, sigma_terms)
            drawn = stream.lfsr
            self.backward_pass(cache, i)
            del cache  # else it lives on through the next sample's forward pass
            # SHIFT's retrieval must walk the stream back to the register it
            # began the step with; the stream then goes on to where its draws
            # ended, so the next step draws fresh noise
            if cfg.epsilon_strategy == "shift" and stream.lfsr != start:
                raise RuntimeError(f"SHIFT stream {i} ended its retrieval at register "
                                   f"{stream.lfsr.bits:#x}, not at its start register "
                                   f"{start.bits:#x}")
            stream.reset_to(drawn)
            losses.append(loss)
        scale = cfg.dtype(cfg.lr / cfg.S)
        # SGD with no weight-sized temporary: the sums are scaled in place
        # (the bits of scale * sum) and then subtracted
        for lid, layer in self.model.bayes_layers():
            dmu, dsigma = self.dmu[lid], self.dsigma[lid]
            dmu *= scale
            layer.mu -= dmu
            dsigma *= scale
            layer.sigma -= dsigma
            np.maximum(layer.sigma, cfg.dtype(SIGMA_MIN), out=layer.sigma)
        k = len(losses)
        return LossBreakdown(
            likelihood_nll=sum(l.likelihood_nll for l in losses) / k,
            log_posterior=sum(l.log_posterior for l in losses) / k,
            neg_log_prior=sum(l.neg_log_prior for l in losses) / k,
        )

    def accuracy(self, x, y, batch: int = 512) -> float:
        hits = 0
        for lo in range(0, len(x), batch):
            logits = self.model.predict(x[lo:lo + batch])
            hits += int((logits.argmax(axis=-1) == y[lo:lo + batch]).sum())
        return hits / len(x)


# -- model presets -----------------------------------------------------------
# A max-pool comes before its ReLU: the two commute, and the ReLU then keeps
# a pool-sized mask, not a full-size one.


def build_bmlp() -> Model:
    """784-400-400-10 fully-connected classifier for 28x28 inputs."""
    return Model([
        BayesFC(784, 400), ReLU(),
        BayesFC(400, 400), ReLU(),
        BayesFC(400, 10),
    ], name="b-mlp", input_shape=(28, 28))


def build_toyconv() -> Model:
    """Small 2-conv + 1-fc net on 1x10x10 inputs; exercises every layer kind."""
    return Model([
        BayesConv(1, 4, 3),              # 10 -> 8
        MaxPool(2), ReLU(),              # 8 -> 4
        BayesConv(4, 8, 3), ReLU(),      # 4 -> 2
        BayesFC(8 * 2 * 2, 10),
    ], name="toy-conv", input_shape=(1, 10, 10))


def build_blenet() -> Model:
    """LeNet-style net for 3x32x32 inputs (CIFAR-10 scale)."""
    return Model([
        BayesConv(3, 6, 5),              # 32 -> 28
        MaxPool(2), ReLU(),              # 28 -> 14
        BayesConv(6, 16, 5),             # 14 -> 10
        MaxPool(2), ReLU(),              # 10 -> 5
        BayesFC(16 * 5 * 5, 120), ReLU(),
        BayesFC(120, 84), ReLU(),
        BayesFC(84, 10),
    ], name="b-lenet", input_shape=(3, 32, 32))


MODEL_BUILDERS = {
    "b-mlp": build_bmlp,
    "toy-conv": build_toyconv,
    "b-lenet": build_blenet,
}


# -- "SBNN" checkpoints --------------------------------------------------------

SBNN_MAGIC = b"SBNN"
_KIND_CODES = {"conv": 0, "fc": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def save_checkpoint(path, model: Model) -> None:
    bayes = model.bayes_layers()
    with open(path, "wb") as f:
        f.write(SBNN_MAGIC)
        f.write(struct.pack("<II", 1, len(bayes)))
        for _, layer in bayes:
            dims = list(layer.mu.shape) + [1] * (4 - layer.mu.ndim)
            f.write(struct.pack("<B4I", _KIND_CODES[layer.kind], *dims))
            f.write(np.ascontiguousarray(layer.mu, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(layer.sigma, dtype="<f4").tobytes())


def load_checkpoint(path) -> list[dict]:
    out = []
    with open(path, "rb") as f:
        if f.read(4) != SBNN_MAGIC:
            raise ValueError("bad checkpoint magic")
        version, count = struct.unpack("<II", read_exact(f, 8, "truncated checkpoint header"))
        if version != 1:
            raise ValueError(f"unsupported checkpoint version {version}")
        for i in range(count):
            kind_code, *dims = struct.unpack(
                "<B4I", read_exact(f, 17, f"truncated checkpoint layer {i} header"))
            if kind_code not in _KIND_NAMES:
                raise ValueError(f"unknown kind code {kind_code} of checkpoint layer {i}")
            kind = _KIND_NAMES[kind_code]
            if kind == "fc" and dims[2:] != [1, 1]:
                raise ValueError(f"fc checkpoint layer {i} has dims {tuple(dims)}; "
                                 "the last two must be 1")
            shape = tuple(dims) if kind == "conv" else tuple(dims[:2])
            size = math.prod(dims)
            mu, sigma = (
                np.frombuffer(read_exact(f, 4 * size, f"truncated checkpoint layer {i} {name}"),
                              dtype="<f4").reshape(shape)
                for name in ("mu", "sigma"))
            out.append({"kind": kind, "mu": mu, "sigma": sigma})
        expect_end(f, "checkpoint")
    return out


def apply_checkpoint(model: Model, entries: list[dict]) -> None:
    """Sets every Bayesian layer's (mu, sigma) to float32 copies of
    ``load_checkpoint``'s entries, once each entry's kind and shape match
    its layer's; the model's parameters need not be initialised first."""
    bayes = model.bayes_layers()
    if len(bayes) != len(entries):
        raise ValueError("checkpoint layer count mismatch")
    for i, ((_, layer), entry) in enumerate(zip(bayes, entries)):
        if (entry["kind"], entry["mu"].shape) != (layer.kind, layer.weight_shape):
            raise ValueError(f"checkpoint layer {i} is {entry['kind']} {entry['mu'].shape}, "
                             f"but {model.name} has {layer.kind} {layer.weight_shape}")
    for (_, layer), entry in zip(bayes, entries):
        layer.mu = np.array(entry["mu"], np.float32)
        layer.sigma = np.array(entry["sigma"], np.float32)
