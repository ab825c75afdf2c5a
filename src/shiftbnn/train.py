"""Bayes-by-backprop training with storage-free Gaussian noise retrieval.

Each training step draws one Gaussian variable per weight per ensemble
sample (w = mu + eps * sigma), runs forward/backward/gradient stages and
updates (mu, sigma) by plain SGD.  The noise comes from per-sample
reversible LFSR streams and is handled by one of two strategies:

* STORE: the baseline; every drawn count is logged during the forward
  pass and read back during the backward pass.
* SHIFT: nothing is logged; the backward pass retrieves the exact same
  values by shifting the generator streams in reverse (the reverse
  recurrence of ``lfsr.extend_backward``, from each stream's current
  register alone), restoring every stream to its pre-step state.  Each
  layer's ``weight_count`` says how many draws to shift back; nothing
  about the draws is kept.

Both strategies produce bit-identical parameter trajectories; that
equality is the whole point and is asserted by the test suite.

The backward pass stops at the first Bayesian layer, which computes only
its weight gradient: the errors it would pass to the input image reach
no parameter.

Per-weight math: the streams hand out raw 1s counts, and only ``grng``
turns counts into eps.  ``counts_to_eps`` standardizes them straight
into the working dtype (the float64 value rounded once), and the sampled
weight is built in that buffer in place.  The forward pass's w and the
backward pass's eps and w live in two buffers that each ``Trainer``
keeps across steps, sized by its largest layer and shared by its samples
and layers; dw' is then built in w's buffer.  The trainer also hands its
S streams one ``BlockScratch`` (the generator's block buffer, sized the
same way), so the noise path allocates only the count arrays the streams
hand out and a retrieval's unpacked bits.  sigma is fixed within a step,
so the sigma terms of the log densities (-sum log sigma and the
sqrt(2 pi) constants) are taken once per layer per step.  The three sums
of the log densities (sum log sigma, sum eps^2 and sum w^2) go through one
float64 buffer of at most 16 Ki elements, a chunk at a time, so only
their float64 summation order differs from a float64 copy, within 1e-12
relative.  sum(eps^2) is taken on the eps that ``counts_to_eps`` writes
into w's buffer, and at n = 256 it is exact: eps = (c - 128) / 8 is
exact in float32, every square is a multiple of 1/64 of at most 256, and
no partial sum of a layer comes near 2^53 / 64, so it equals the integer
formula in any order.  The backward pass forms dw' and the (dmu,
dsigma) updates with in-place operations whose bits equal the plain
expressions, one block of the likelihood weight gradient at a time: an
fc layer hands it out about ``GRAD_BLOCK`` (32 Ki) weights at a time,
a block of whole rows, so no fc gradient exists at full size; a conv
layer's is one block.

Note on pattern reuse: because SHIFT ends every step with the streams
restored to their pre-step state (that is what reversal means), the next
step's forward shifting regenerates the same per-step noise sequence.
The noise is therefore a fixed set of quadrature points per (sample,
weight) rather than fresh per step; STORE mirrors this so the two
strategies stay comparable.  Every step still draws its noise forward
and retrieves it by the configured strategy.

The built-in networks (``MODEL_BUILDERS``) are also the cost model's
b-mlp and b-lenet: ``costmodel.spec_from_model`` reads their shapes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import read_exact
from .grng import BlockScratch, GrngStream, counts_to_eps, grng_init
from .lfsr import TapSet

#: stddev of the zero-mean Gaussian prior on every weight
SIGMA_PRIOR = 0.5
#: floor of sigma after each update: SGD on sigma itself can cross zero
SIGMA_MIN = 1e-6
LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


@dataclass
class TrainConfig:
    S: int = 1  # ensemble samples per step
    lr: float = 1e-3
    batch: int = 1
    grad_mode: str = "paper"  # "paper" (w / SIGMA_PRIOR^2) | "exact"
    epsilon_strategy: str = "shift"  # "shift" | "store"
    master_seed: int = 0
    kl_scale: float = 1.0  # weight of the prior+posterior terms per step
    # consecutive draws from one stream are strongly correlated (each shift
    # replaces one bit of the counting window), so per-row noise adds almost
    # coherently; a small initial sigma keeps early activations bounded
    sigma_init: float = 0.005
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


def dpu_grad(w, mu, sigma, eps, cfg: TrainConfig, out=None):
    """d(posterior + prior terms)/dw for one sampled weight.

    "paper" mode keeps only the dominant prior part w / SIGMA_PRIOR^2
    (a 2-bit left shift, SIGMA_PRIOR being 0.5); "exact" mode adds the
    posterior's through-w derivative -eps / sigma.  ``out`` (which may
    be ``w``) receives the result; exact mode still makes one temporary.
    """
    g = np.divide(w, SIGMA_PRIOR ** 2, out=out)
    if cfg.grad_mode == "exact":
        g -= eps / sigma
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
    chunk of the float64 buffer ``buf``.

    Only the float64 summation order differs from a float64 copy of the
    whole of ``a``: the result agrees to about 1e-16 times the size, and
    equals it exactly when every partial sum is exact, as for the eps of
    n = 256 (multiples of 1/64 of at most 256).
    """
    total = 0.0
    for chunk in _float64_chunks(a, buf):
        total += float(np.dot(chunk, chunk))
    return total


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
    every other axis, and sets sigma to ``cfg.sigma_init``."""

    def __init__(self, weight_shape: tuple[int, ...]):
        self.weight_shape = weight_shape
        self.mu = self.sigma = None

    @property
    def weight_count(self) -> int:
        return math.prod(self.weight_shape)

    def init_params(self, rng: np.random.Generator, cfg: TrainConfig):
        shape = self.weight_shape
        fan_in = math.prod(shape[1:])
        self.mu = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(cfg.dtype)
        self.sigma = np.full(shape, cfg.sigma_init, dtype=cfg.dtype)


class BayesConv(BayesLayer):
    kind = "conv"

    def __init__(self, n_in: int, m_out: int, k: int, stride: int = 1, pad: int = 0):
        super().__init__((m_out, n_in, k, k))
        self.N, self.M, self.K = n_in, m_out, k
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
            dx = nn.conv_backward_data(e, w, x.shape[-2:], self.stride, self.pad)
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
        return nn.fc_forward(x, w)

    def backward(self, x, e, w, need_dx=True):
        """(input errors or None when not ``need_dx``, likelihood dw blocks).

        dx is made at once, since it reads all of w.  The blocks are
        (row slice, dw rows) pairs of about ``GRAD_BLOCK`` weights, each
        made only when the consumer asks for the next, so no full-size dw
        exists.  Each block reduces over the batch axis alone, so it holds
        the bits of those rows of the whole product.  A block has two rows
        at least (unless the layer has one): numpy hands a one-row product
        to gemv or dot, whose sums can round differently from gemm's.
        """
        dx = nn.fc_backward_data(e, w) if need_dx else None
        return dx, self._weight_grad_blocks(x, e)

    def _weight_grad_blocks(self, x, e):
        step = max(2, GRAD_BLOCK // self.n_in)
        lo = 0
        # a one-row tail joins the block before it
        for hi in [*range(step, self.n_out - 1, step), self.n_out]:
            yield slice(lo, hi), nn.fc_backward_weights(x, e[..., lo:hi])
            lo = hi


class ReLU:
    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        return nn.relu_fwd(x)

    def backward(self, e, mask):
        return nn.relu_bwd(e, mask)


class MaxPool:
    kind = "pool"

    def __init__(self, k: int = 2):
        self.k = k

    def out_shape(self, in_shape):
        return in_shape[:-2] + tuple(nn.out_extent(n, self.k, self.k, 0)
                                     for n in in_shape[-2:])

    def forward(self, x):
        out, slot = nn.maxpool_fwd(x, self.k)
        return out, (slot, x.shape[-2:])

    def backward(self, e, aux):
        slot, in_hw = aux
        return nn.maxpool_bwd(e, slot, in_hw, self.k)


class Flatten:
    kind = "flatten"

    def out_shape(self, in_shape):
        return (math.prod(in_shape),)

    def forward(self, x):
        lead = x.shape[:-3]
        return x.reshape(lead + (-1,)), x.shape

    def backward(self, e, aux):
        return e.reshape(aux)


BAYES_KINDS = ("conv", "fc")


class Model:
    """Layers in forward order; ``input_shape`` is the shape of one input
    example the network was written for (fc-first networks take it
    flattened)."""

    def __init__(self, layers, name: str = "model", input_shape: tuple[int, ...] = ()):
        self.layers = list(layers)
        self.name = name
        self.input_shape = input_shape

    @property
    def feed_shape(self) -> tuple[int, ...]:
        """One example's shape as the first layer takes it."""
        if self.layers[0].kind == "fc":
            return (math.prod(self.input_shape),)
        return self.input_shape

    def bayes_layers(self):
        """(layer_id, layer) for every parameterized layer; the id is the
        position in the layer list, which keys the per-layer arrays."""
        return [(i, l) for i, l in enumerate(self.layers) if l.kind in BAYES_KINDS]

    def init_params(self, cfg: TrainConfig):
        rng = np.random.default_rng(cfg.master_seed)
        for _, layer in self.bayes_layers():
            layer.init_params(rng, cfg)

    def forward_with_weights(self, x, weights: dict):
        """Deterministic forward with explicit per-layer weight arrays."""
        a = x
        for i, layer in enumerate(self.layers):
            if layer.kind in BAYES_KINDS:
                a = layer.forward(a, weights[i])
            else:
                a, _ = layer.forward(a)
        return a

    def predict(self, x):
        """Posterior-mean forward (w = mu); used for validation accuracy."""
        return self.forward_with_weights(x, {i: l.mu for i, l in self.bayes_layers()})


# -- trainer -----------------------------------------------------------------


class GradAccum:
    def __init__(self, model: Model, dtype):
        self.dmu = {i: np.zeros(l.mu.shape, dtype) for i, l in model.bayes_layers()}
        self.dsigma = {i: np.zeros(l.sigma.shape, dtype) for i, l in model.bayes_layers()}

    def zero(self):
        for a in self.dmu.values():
            a[...] = 0
        for a in self.dsigma.values():
            a[...] = 0


def _front(buf: np.ndarray, shape) -> np.ndarray:
    """The first prod(shape) elements of a flat buffer, shaped ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


class Trainer:
    """Bayes-by-backprop steps on one model under the configured strategy.

    ``step_log`` is STORE's count log: the counts of the latest step, one
    new array per (sample, layer id) in the order they were drawn, which
    the backward pass reads back.  Each forward pass starts a new dict, so
    a caller's reference to an earlier step's log stays intact.  SHIFT
    leaves it empty.
    """

    def __init__(self, model: Model, cfg: TrainConfig, taps: TapSet | None = None):
        self.model = model
        self.cfg = cfg
        self.step_log: dict[tuple[int, int], np.ndarray] = {}
        self.taps = taps or TapSet.default(256)
        self.n = self.taps.width
        # one set of work buffers for every stream and layer, sized by the
        # largest layer: the streams draw one at a time
        largest = max((l.weight_count for _, l in model.bayes_layers()), default=0)
        self.scratch = BlockScratch()
        self.scratch.reserve(largest, self.taps)
        self.streams: list[GrngStream] = [
            grng_init(cfg.master_seed, i, self.taps, self.scratch) for i in range(cfg.S)
        ]
        self._eps_buf = np.empty(largest, cfg.dtype)
        self._w_buf = np.empty(largest, cfg.dtype)
        self._square_buf = np.empty(min(largest, SQUARE_CHUNK), np.float64)
        self._accum = GradAccum(model, cfg.dtype)

    @property
    def scratch_bytes(self) -> int:
        """Bytes of work buffers the trainer keeps across steps."""
        return (self.scratch.nbytes + self._eps_buf.nbytes + self._w_buf.nbytes
                + self._square_buf.nbytes)

    def _draw_counts(self, sample_id: int, layer_id: int, layer) -> np.ndarray:
        counts = self.streams[sample_id].generate_block(layer.weight_count)
        if self.cfg.epsilon_strategy == "store":
            self.step_log[(sample_id, layer_id)] = counts
        return counts

    def _retrieve_counts(self, sample_id: int, layer_id: int, layer) -> np.ndarray:
        """Counts in forward order, recovered per the configured strategy."""
        if self.cfg.epsilon_strategy == "store":
            return self.step_log[(sample_id, layer_id)]
        # reverse retrieval order -> forward order
        return self.streams[sample_id].retrieve_block(layer.weight_count)[::-1]

    def forward_pass(self, x, y):
        """Returns (per-sample caches, per-sample LossBreakdown list).

        What backward reads is retained: each Bayesian layer's input, a
        ReLU's bool mask and a pool's slot indices (1 byte per element);
        the drawn counts are not (SHIFT) or go to ``step_log`` (STORE).
        """
        cfg = self.cfg
        self.step_log = {}
        self._prestep_states = [s.lfsr for s in self.streams]
        # sigma is fixed within a step, so the sample-independent terms of
        # log q(w) = -sum log sigma - |W| log sqrt(2 pi) - sum eps^2 / 2 and
        # of -log p(w) = |W| (log sigma_p + log sqrt(2 pi)) + sum w^2 / (2 sigma_p^2)
        # are taken once per layer
        post_const, prior_const = {}, {}
        for lid, layer in enumerate(self.model.layers):
            if layer.kind in BAYES_KINDS:
                log_sigma = log_sum(layer.sigma, self._square_buf)
                post_const[lid] = -log_sigma - layer.weight_count * LOG_SQRT_2PI
                prior_const[lid] = layer.weight_count * (math.log(SIGMA_PRIOR)
                                                         + LOG_SQRT_2PI)
        caches, losses = [], []
        for i in range(cfg.S):
            a = x
            layer_cache = []
            p_s = 0.0
            p_r = 0.0
            for lid, layer in enumerate(self.model.layers):
                if layer.kind in BAYES_KINDS:
                    # eps, then w = mu + eps * sigma over it, in w's buffer;
                    # the counts are dropped once read
                    shape = layer.mu.shape
                    eps = counts_to_eps(self._draw_counts(i, lid, layer).reshape(shape),
                                        self.n, out=_front(self._w_buf, shape))
                    p_s += post_const[lid] - 0.5 * square_sum(eps, self._square_buf)
                    w = np.multiply(eps, layer.sigma, out=eps)
                    w += layer.mu
                    p_r += prior_const[lid] + (square_sum(w, self._square_buf)
                                               / (2 * SIGMA_PRIOR ** 2))
                    layer_cache.append(a)
                    a = layer.forward(a, w)
                else:
                    a, aux = layer.forward(a)
                    layer_cache.append(aux)
            nll, dlogits = nn.softmax_xent(a, y)
            losses.append(LossBreakdown(
                likelihood_nll=nll,
                log_posterior=cfg.kl_scale * p_s,
                neg_log_prior=cfg.kl_scale * p_r,
            ))
            caches.append((layer_cache, dlogits))
        return caches, losses

    def backward_pass(self, caches) -> GradAccum:
        """Fused backward + gradient stage, layers last to first.

        Per layer the retrieved noise reconstructs the sampled weights
        once, serving both the data-error propagation (the rot-180
        adjoint) and the (dmu, dsigma) updates; afterwards the SHIFT
        streams sit exactly at their pre-step positions.  The pass ends
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
        accum = self._accum
        accum.zero()
        first = next(i for i, l in enumerate(self.model.layers) if l.kind in BAYES_KINDS)
        for i in range(cfg.S):
            layer_cache, e = caches[i]
            for lid in range(len(self.model.layers) - 1, first - 1, -1):
                layer = self.model.layers[lid]
                payload = layer_cache[lid]
                if layer.kind in BAYES_KINDS:
                    shape = layer.mu.shape
                    eps = counts_to_eps(self._retrieve_counts(i, lid, layer).reshape(shape),
                                        self.n, out=_front(self._eps_buf, shape))
                    w = np.multiply(eps, layer.sigma, out=_front(self._w_buf, shape))
                    w += layer.mu
                    e, dw_blocks = layer.backward(payload, e, w, need_dx=lid != first)
                    # dw' = dw_lik + kl_scale * dpu_grad, one block of rows
                    # and one in-place operation at a time (each commutes,
                    # so the bits match), in w's buffer: backward has read
                    # all of w, and a block's rows are not read again
                    for rows, dw_lik in dw_blocks:
                        w_rows, eps_rows = w[rows], eps[rows]
                        dw_prime = dpu_grad(w_rows, layer.mu[rows], layer.sigma[rows],
                                            eps_rows, cfg, out=w_rows)
                        dw_prime *= cfg.kl_scale
                        dw_prime += dw_lik
                        del dw_lik
                        update_gradients(dw_prime, eps_rows,
                                         accum.dmu[lid][rows], accum.dsigma[lid][rows])
                else:
                    e = layer.backward(e, payload)
        if cfg.epsilon_strategy == "store":
            # mirror SHIFT's stream restoration so both strategies start the
            # next step from identical generator states
            for stream, state in zip(self.streams, self._prestep_states):
                stream.reset_to(state)
        return accum

    def train_step(self, x, y) -> LossBreakdown:
        cfg = self.cfg
        caches, losses = self.forward_pass(x, y)
        accum = self.backward_pass(caches)
        scale = cfg.dtype(cfg.lr / cfg.S)
        # SGD with no weight-sized temporary: the accumulators are scaled in
        # place (the bits of scale * accum) and then subtracted
        for lid, layer in self.model.bayes_layers():
            dmu, dsigma = accum.dmu[lid], accum.dsigma[lid]
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
        Flatten(),
        BayesFC(8 * 2 * 2, 10),
    ], name="toy-conv", input_shape=(1, 10, 10))


def build_blenet() -> Model:
    """LeNet-style net for 3x32x32 inputs (CIFAR-10 scale)."""
    return Model([
        BayesConv(3, 6, 5),              # 32 -> 28
        MaxPool(2), ReLU(),              # 28 -> 14
        BayesConv(6, 16, 5),             # 14 -> 10
        MaxPool(2), ReLU(),              # 10 -> 5
        Flatten(),
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
                              dtype="<f4").reshape(shape).copy()
                for name in ("mu", "sigma"))
            out.append({"kind": kind, "dims": tuple(dims), "mu": mu, "sigma": sigma})
    return out


def apply_checkpoint(model: Model, entries: list[dict]) -> None:
    bayes = model.bayes_layers()
    if len(bayes) != len(entries):
        raise ValueError("checkpoint layer count mismatch")
    for (_, layer), entry in zip(bayes, entries):
        layer.mu = entry["mu"].reshape(layer.mu.shape).astype(layer.mu.dtype)
        layer.sigma = entry["sigma"].reshape(layer.sigma.shape).astype(layer.sigma.dtype)
