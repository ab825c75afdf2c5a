"""Central-limit-theorem Gaussian generator over a reversible LFSR.

Counting the 1-bits of an n-bit register whose bits are i.i.d. fair coins
gives B(n, 0.5) ~ N(n/2, n/4); standardizing the count yields a unit
Gaussian surrogate.  Because the register supports exact reverse
shifting, every variable drawn forward can later be retrieved backward
in reverse order instead of being stored.

The count is tracked incrementally: a forward shift changes the popcount
by head_in - tail_out, a reverse shift by tail_in - head_out, so no
draw re-counts the register; a block counts only its first window
(``popcount_state`` stays the independent oracle in the tests).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .lfsr import (
    LfsrState,
    TapSet,
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


@dataclass(frozen=True)
class Epsilon:
    """A standardized draw plus the raw 1s count that produced it."""

    value: float
    count: int


def counts_to_eps(counts: np.ndarray, n: int) -> np.ndarray:
    """Standardize raw 1s counts: (count - n/2) / sqrt(n/4)."""
    return (np.asarray(counts, dtype=np.float64) - n / 2.0) / np.sqrt(n / 4.0)


def _window_counts(full: np.ndarray, n: int, k: int) -> np.ndarray:
    """1s counts of the k windows full[i+1 : i+1+n], i < k, as uint16.

    Each shift changes the count by full[n+i] - full[i]; the cumulative
    sum of those changes stays within +-n.  It runs in int32: numpy
    accumulates int32 several times faster than int16.
    """
    steps = full[n : n + k].astype(np.int32)
    steps -= full[:k]
    np.cumsum(steps, out=steps)
    steps += int(full[:n].sum())
    return steps.astype(np.uint16)


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

    Exclusively owned by one worker at a time; streams for different
    ensemble samples run independently.
    """

    def __init__(self, lfsr: LfsrState):
        self.lfsr = lfsr
        self.n = lfsr.taps.width
        self.running_sum = popcount_state(lfsr)

    # -- single-draw API ----------------------------------------------------

    def _epsilon(self, count: int) -> Epsilon:
        return Epsilon(value=(count - self.n / 2.0) / np.sqrt(self.n / 4.0), count=count)

    def generate_forward(self) -> Epsilon:
        self.lfsr, head_in, tail_out = shift_forward(self.lfsr)
        self.running_sum += head_in - tail_out
        return self._epsilon(self.running_sum)

    def retrieve_backward(self) -> Epsilon:
        if self.lfsr.position <= 0:
            raise UnderflowBeforeSeed(
                f"retrieve at position {self.lfsr.position}: nothing left to retrieve"
            )
        eps = self._epsilon(self.running_sum)
        self.lfsr, tail_in, head_out = shift_reverse(self.lfsr)
        self.running_sum += tail_in - head_out
        return eps

    @property
    def position(self) -> int:
        return self.lfsr.position

    def reset_to(self, state: LfsrState) -> None:
        """Restore a previously captured register state (bookkeeping hook)."""
        self.lfsr = state
        self.running_sum = popcount_state(state)

    # -- block API (bit-identical to repeated single draws) ------------------

    def generate_block(self, k: int) -> np.ndarray:
        """k forward draws at once; returns the raw counts as uint16."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if k == 0:
            return np.zeros(0, dtype=np.uint16)
        window = state_to_window(self.lfsr)
        ext = extend_forward(window, k, self.lfsr.taps)
        full = np.concatenate([window, ext])
        counts = _window_counts(full, self.n, k)
        self.lfsr = window_to_state(full[k:], self.lfsr.taps, self.lfsr.position + k)
        self.running_sum = int(counts[-1])
        return counts

    def retrieve_block(self, k: int) -> np.ndarray:
        """k backward retrievals at once; counts in retrieval (reverse) order.

        Runs the reverse recurrence (``extend_backward``) from the current
        register alone and leaves the stream k positions earlier.  The
        result is a reversed view of a forward-order array, so ``[::-1]``
        of it is contiguous and costs no copy.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if k == 0:
            return np.zeros(0, dtype=np.uint16)
        if self.lfsr.position - k < 0:
            raise UnderflowBeforeSeed(
                f"retrieve {k} draws at position {self.lfsr.position}"
            )
        window = state_to_window(self.lfsr)
        older = extend_backward(window, k, self.lfsr.taps)
        full = np.concatenate([older, window])
        counts = _window_counts(full, self.n, k)
        self.reset_to(window_to_state(full[:self.n], self.lfsr.taps, self.lfsr.position - k))
        return counts[::-1]


def grng_init(master_seed: int, stream_id: int, taps: TapSet) -> GrngStream:
    seed = derive_seed(master_seed, stream_id, taps.width)
    return GrngStream(new_lfsr(taps.width, taps, seed))


# ---------------------------------------------------------------------------
# "EPSL" debug dump: raw counts, not floats, so cross-strategy comparisons
# are independent of float formatting.
# ---------------------------------------------------------------------------

EPSL_MAGIC = b"EPSL"


def write_epsilon_log(path, n: int, counts: np.ndarray) -> None:
    counts = np.ascontiguousarray(counts, dtype="<u2")
    with open(path, "wb") as f:
        f.write(EPSL_MAGIC)
        f.write(struct.pack("<IIQ", 1, n, counts.size))
        f.write(counts.tobytes())


def read_epsilon_log(path) -> tuple[int, np.ndarray]:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != EPSL_MAGIC:
            raise ValueError(f"bad epsilon log magic: {magic!r}")
        version, n, count = struct.unpack("<IIQ", f.read(16))
        if version != 1:
            raise ValueError(f"unsupported epsilon log version {version}")
        raw = f.read(2 * count)
        if len(raw) != 2 * count:
            raise ValueError("truncated epsilon log")
        return n, np.frombuffer(raw, dtype="<u2").copy()
