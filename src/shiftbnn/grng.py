"""Central-limit-theorem Gaussian generator over a reversible LFSR.

Counting the 1-bits of an n-bit register whose bits are i.i.d. fair coins
gives B(n, 0.5) ~ N(n/2, n/4); standardizing the count yields a unit
Gaussian surrogate.  Because the register supports exact reverse
shifting, every variable drawn forward can later be retrieved backward
in reverse order instead of being stored.

The count is tracked incrementally: a forward shift changes the popcount
by head_in - tail_out, a reverse shift by tail_in - head_out, so no
draw re-counts the register; a block takes one running sum of its bits,
and each count is the difference of two of its entries
(``popcount_state`` stays the independent oracle in the tests).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .data import read_exact
from .lfsr import (
    LfsrState,
    TapSet,
    backward_span,
    extend_backward,
    extend_forward,
    new_lfsr,
    popcount_state,
    shift_forward,
    shift_reverse,
    state_to_window,
    window_to_state,
)


class UnderflowBeforeSeed(RuntimeError):
    """More retrievals than generations since init: a caller shifted back
    further than it drew."""


def counts_to_eps(counts: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Standardize raw 1s counts: (count - n/2) / sqrt(n/4).

    The values are the float64 ones rounded once to out's dtype (a float
    array of the counts' shape; without ``out``, a new float64 array),
    written there without a float64 temporary: count - n/2 is exact in
    any float dtype, and the quotient is taken in float64, or in out's
    dtype when sqrt(n/4) is a power of two (n = 16, 64, 256, ...) and the
    division is exact there too.
    """
    if out is None:
        out = np.empty(np.shape(counts), np.float64)
    scale = np.sqrt(n / 4.0)
    np.subtract(counts, n / 2.0, out=out, dtype=out.dtype)
    exact = math.frexp(scale)[0] == 0.5
    np.divide(out, scale, out=out, dtype=out.dtype if exact else np.float64,
              casting="same_kind")
    return out


def _window_counts(full: np.ndarray, n: int, k: int, prefix: np.ndarray) -> np.ndarray:
    """1s counts of the k windows full[i+1 : i+1+n], i < k, as a new uint16 array.

    Window i counts P[i+n] - P[i], where P, the running sum of the n + k
    bits, goes into the int32 buffer ``prefix`` (n + k long).
    """
    np.cumsum(full, dtype=np.int32, out=prefix)
    counts = np.empty(k, np.uint16)
    np.subtract(prefix[n:], prefix[:k], out=counts, casting="unsafe")
    return counts


class BlockScratch:
    """Work buffers that ``generate_block`` and ``retrieve_block`` reuse:
    one block's stream bits plus its look-ahead window, and the int32
    running sum of the block's bits and counting window.

    Streams that draw one at a time can share one set.  Each buffer grows
    to the largest request and is never handed out: the count arrays the
    blocks return are always new.
    """

    def __init__(self):
        self._bits = np.empty(0, np.uint8)
        self._prefix = np.empty(0, np.int32)

    def reserve(self, k: int, taps: TapSet) -> None:
        """Grow the buffers to serve k-draw blocks in both directions."""
        self.bits(backward_span(k, taps))  # >= n + k, the forward need
        self.prefix(taps.width + k)

    def bits(self, size: int) -> np.ndarray:
        if self._bits.size < size:
            self._bits = np.empty(size, np.uint8)
        return self._bits[:size]

    def prefix(self, size: int) -> np.ndarray:
        if self._prefix.size < size:
            self._prefix = np.empty(size, np.int32)
        return self._prefix[:size]

    @property
    def nbytes(self) -> int:
        return self._bits.nbytes + self._prefix.nbytes


_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """64-bit avalanche finalizer (murmur3 constants)."""
    x &= _MASK64
    x = ((x ^ (x >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    x = ((x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    return x ^ (x >> 33)


def derive_seed(master_seed: int, stream_id: int, width: int) -> int:
    """Deterministic nonzero register seed from (master_seed, stream_id).

    Mixes ``master_seed + stream_id * golden_gamma + j`` for each 64-bit
    word j and concatenates, word 0 in the low bits.
    """
    base = (master_seed + stream_id * 0x9E3779B97F4A7C15) & _MASK64
    words = (width + 63) // 64
    seed = 0
    for j in range(words):
        seed |= mix64((base + j) & _MASK64) << (64 * j)
    seed &= (1 << width) - 1
    if seed == 0:
        seed = 1
    return seed


class GrngStream:
    """One logical stream of Gaussian draws over a reversible LFSR.

    Every draw is the 1s count of the register after a forward shift;
    ``counts_to_eps`` standardizes counts.  Exclusively owned by one worker
    at a time; streams for different ensemble samples run independently
    and may share one ``BlockScratch`` (without one, a stream keeps its own).
    """

    def __init__(self, lfsr: LfsrState, scratch: BlockScratch | None = None):
        self.lfsr = lfsr
        self.n = lfsr.taps.width
        self.running_sum = popcount_state(lfsr)
        self.scratch = scratch if scratch is not None else BlockScratch()

    # -- single-draw API ----------------------------------------------------

    def generate_forward(self) -> int:
        self.lfsr, head_in, tail_out = shift_forward(self.lfsr)
        self.running_sum += head_in - tail_out
        return self.running_sum

    def retrieve_backward(self) -> int:
        if self.lfsr.position <= 0:
            raise UnderflowBeforeSeed(
                f"retrieve at position {self.lfsr.position}: nothing left to retrieve"
            )
        count = self.running_sum
        self.lfsr, tail_in, head_out = shift_reverse(self.lfsr)
        self.running_sum += tail_in - head_out
        return count

    @property
    def position(self) -> int:
        return self.lfsr.position

    def reset_to(self, state: LfsrState) -> None:
        """Restore a previously captured register state (bookkeeping hook)."""
        self.lfsr = state
        self.running_sum = popcount_state(state)

    # -- block API (bit-identical to repeated single draws) ------------------

    def generate_block(self, k: int) -> np.ndarray:
        """k forward draws at once; returns the raw counts as a new uint16 array."""
        if k < 0:
            raise ValueError("k must be >= 0")
        window = state_to_window(self.lfsr)
        # full holds the window and then the k new bits, in stream order
        full = self.scratch.bits(self.n + k)
        extend_forward(window, k, self.lfsr.taps, out=full)
        counts = _window_counts(full, self.n, k, self.scratch.prefix(self.n + k))
        self.reset_to(window_to_state(full[k:], self.lfsr.taps, self.lfsr.position + k))
        return counts

    def retrieve_block(self, k: int) -> np.ndarray:
        """k backward retrievals at once; counts in retrieval (reverse) order.

        Runs the reverse recurrence (``extend_backward``) from the current
        register alone and leaves the stream k positions earlier.  The
        result is a reversed view of a new forward-order array, so
        ``[::-1]`` of it is contiguous and costs no copy.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.lfsr.position - k < 0:
            raise UnderflowBeforeSeed(
                f"retrieve {k} draws at position {self.lfsr.position}"
            )
        window = state_to_window(self.lfsr)
        buf = self.scratch.bits(backward_span(k, self.lfsr.taps))
        extend_backward(window, k, self.lfsr.taps, out=buf)
        # the k older bits, then the window, in stream order
        full = buf[: k + self.n]
        counts = _window_counts(full, self.n, k, self.scratch.prefix(self.n + k))
        self.reset_to(window_to_state(full[:self.n], self.lfsr.taps, self.lfsr.position - k))
        return counts[::-1]


def grng_init(master_seed: int, stream_id: int, taps: TapSet,
              scratch: BlockScratch | None = None) -> GrngStream:
    seed = derive_seed(master_seed, stream_id, taps.width)
    return GrngStream(new_lfsr(taps.width, taps, seed), scratch)


# ---------------------------------------------------------------------------
# "EPSL" debug dump: raw counts, not floats, so cross-strategy comparisons
# are independent of float formatting.
# ---------------------------------------------------------------------------

EPSL_MAGIC = b"EPSL"


def write_epsilon_header(f, n: int, count: int) -> None:
    """The header of a log of ``count`` counts; the counts follow as "<u2"."""
    f.write(EPSL_MAGIC)
    f.write(struct.pack("<IIQ", 1, n, count))


def write_epsilon_log(path, n: int, counts: np.ndarray) -> None:
    counts = np.ascontiguousarray(counts, dtype="<u2")
    with open(path, "wb") as f:
        write_epsilon_header(f, n, counts.size)
        f.write(counts.tobytes())


def read_epsilon_log(path) -> tuple[int, np.ndarray]:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != EPSL_MAGIC:
            raise ValueError(f"bad epsilon log magic: {magic!r}")
        header = read_exact(f, 16, "truncated epsilon log header")
        version, n, count = struct.unpack("<IIQ", header)
        if version != 1:
            raise ValueError(f"unsupported epsilon log version {version}")
        raw = read_exact(f, 2 * count, "truncated epsilon log counts")
        return n, np.frombuffer(raw, dtype="<u2").copy()
