"""Central-limit-theorem Gaussian generator over a reversible LFSR.

Counting the 1-bits of an n-bit register whose bits are i.i.d. fair coins
gives B(n, 0.5) ~ N(n/2, n/4); standardizing the count yields a unit
Gaussian surrogate.  Because the register supports exact reverse
shifting, every variable drawn forward can later be retrieved backward
in reverse order instead of being stored.

A stream moves only by blocks, as the hardware's layer-wide shifts do:
``generate_block`` draws k counts forward and ``retrieve_block`` takes
the k before the register back.  A block, either way
(``GrngStream._block``), counts its windows by doubling: the sums over
every 2-, 4-, ..., 128-bit window of its bits, each level one uint8 add
of the level below, and each count adds the levels of n's binary form
(the popcount of a register stepped by single shifts stays the
independent oracle in the tests).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .data import expect_end, read_exact
from .lfsr import (
    LfsrState,
    TapSet,
    backward_span,
    extend_backward,
    extend_forward,
    new_lfsr,
    state_to_window,
    window_to_state,
)


class UnderflowBeforeSeed(RuntimeError):
    """More retrievals than generations since init: a caller shifted back
    further than it drew."""


def exact_eps(n: int) -> bool:
    """Whether sqrt(n/4) is a power of two (n = 4, 16, 64, 256, ...): then
    every eps of an n-bit count is (count - n/2) times a power of two, exact
    in any float dtype that holds the count."""
    return math.frexp(math.sqrt(n / 4))[0] == 0.5


def counts_to_eps(counts: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Standardize raw 1s counts: (count - n/2) / sqrt(n/4), for widths with
    ``exact_eps(n)``; any other width raises ``ValueError``.

    The counts are cast into ``out`` (a float array of the counts' shape;
    without it, a new float64 array) and scaled in place, count *
    (1/sqrt(n/4)) - (n/2)/sqrt(n/4): each step is exact in out's dtype, so
    the bits are the quotient's.  The two factors are Python floats, which
    numpy applies in out's dtype; a numpy float64 one would make the
    arithmetic float64, through a cast buffer.
    """
    if not exact_eps(n):
        raise ValueError(f"width {n}: sqrt(n/4) is not a power of two, so eps is not exact")
    if out is None:
        out = np.empty(np.shape(counts), np.float64)
    scale = math.sqrt(n / 4)
    np.copyto(out, counts)
    out *= 1 / scale
    out -= n / 2 / scale
    return out


def _window_counts(full: np.ndarray, n: int, work: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """1s counts of the k = len(full) - n windows full[i+1 : i+1+n], i < k,
    as uint16: in ``out`` (k long) when given, else in a new array.

    Counting by doubling: level w holds every w-bit window sum of full[1:],
    level_w[j] = level_{w/2}[j] + level_{w/2}[j + w/2], one uint8 add into
    the half of ``work`` (uint8, at least 2(n + k) long) that level w/2
    does not hold.  Levels stop at width 128, so no sum passes 128 and
    uint8 cannot wrap.  An n-bit window is one window of each lower level
    in n's binary form, then adjacent windows of the top level (two of 128
    bits at n = 256); the counts add them up.  The adds are integer adds,
    so their order does not change the result.
    """
    k, top = len(full) - n, min(128, 1 << (n.bit_length() - 1))
    level = full[1:]
    halves = work[: level.size], work[level.size : 2 * level.size]
    counts = np.empty(k, np.uint16) if out is None else out
    w, at = 1, 0
    while True:
        # this level's parts: n // top windows of the top level, else n's bit w
        for _ in range(n // top if w == top else (n & w) // w):
            part = level[at : at + k]
            if at:
                np.add(counts, part, out=counts)
            else:  # the first part starts the counts
                np.copyto(counts, part)
            at += w
        if w == top:
            return counts
        level = np.add(level[:-w], level[w:], out=halves[w.bit_length() % 2][: level.size - w])
        w *= 2


class BlockScratch:
    """The work buffer that ``generate_block`` and ``retrieve_block`` reuse.

    A k-draw block keeps its n + k stream bits at the front, and its window
    sums double in the 2(n + k) bytes after them.  A retrieval first fills
    that region with ``extend_backward``'s look-ahead window, which is dead
    once the bits are reconstructed, so both directions touch the same
    memory.  Streams that draw in turn can share one scratch.  The
    buffer grows to the largest request and is never handed out: the counts
    go to the caller's ``out`` array, or to a new one.
    """

    def __init__(self):
        self._buf = np.empty(0, np.uint8)

    def block(self, k: int, taps: TapSet) -> np.ndarray:
        """The buffer for one k-draw block in either direction, grown to fit."""
        size = max(backward_span(k, taps), 3 * (taps.width + k))
        if self._buf.size < size:
            self._buf = np.empty(size, np.uint8)
        return self._buf[:size]

    @property
    def nbytes(self) -> int:
        return self._buf.nbytes


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
        self.scratch = scratch if scratch is not None else BlockScratch()

    @property
    def position(self) -> int:
        return self.lfsr.position

    def reset_to(self, state: LfsrState) -> None:
        """Set the register to ``state``: how ``_block`` moves the stream, and
        how ``train_step`` sends a stream to where its forward draws ended."""
        self.lfsr = state

    def generate_block(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """k forward draws at once; returns the raw uint16 counts, written
        into ``out`` (a uint16 array of shape (k,)) when given, else into a
        new array."""
        return self._block(k, backward=False, out=out)

    def retrieve_block(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """k backward retrievals at once; counts in retrieval (reverse) order.

        Runs the reverse recurrence (``extend_backward``) from the current
        register alone and leaves the stream k positions earlier.  The
        result is a reversed view of a forward-order array, ``out`` when
        given (as in ``generate_block``), else a new one, so ``[::-1]`` of
        it costs no copy.
        """
        return self._block(k, backward=True, out=out)[::-1]

    def _block(self, k: int, backward: bool, out: np.ndarray | None) -> np.ndarray:
        """k draws forward, or the k before the register backward, as uint16
        counts in stream order, in ``out`` or a new array: the k windows past
        the first of the n + k stream bits in the scratch.  The register ends
        at their far end, the last n bits forward and the first n backward.
        A bad k or ``out`` raises before the stream moves."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if out is not None and (out.dtype != np.uint16 or out.shape != (k,)):
            raise ValueError(f"out must be uint16 of shape ({k},), "
                             f"got {out.dtype} of shape {out.shape}")
        position = self.lfsr.position + (-k if backward else k)
        if position < 0:
            raise UnderflowBeforeSeed(f"retrieve {k} draws at position {self.lfsr.position}")
        n, taps = self.n, self.lfsr.taps
        buf = self.scratch.block(k, taps)
        extend = extend_backward if backward else extend_forward
        extend(state_to_window(self.lfsr), k, taps, out=buf)
        full = buf[: n + k]
        counts = _window_counts(full, n, buf[n + k :], out)
        self.reset_to(window_to_state(full[:n] if backward else full[k:], taps, position))
        return counts


def grng_init(master_seed: int, stream_id: int, taps: TapSet,
              scratch: BlockScratch | None = None) -> GrngStream:
    seed = derive_seed(master_seed, stream_id, taps.width)
    return GrngStream(new_lfsr(taps, seed), scratch)


# ---------------------------------------------------------------------------
# "EPSL" debug dump: raw counts, not floats, so cross-strategy comparisons
# are independent of float formatting.
# ---------------------------------------------------------------------------

EPSL_MAGIC = b"EPSL"


def write_epsilon_header(f, n: int, count: int) -> None:
    """The header of a log of ``count`` counts; the counts follow as "<u2"."""
    f.write(EPSL_MAGIC)
    f.write(struct.pack("<IIQ", 1, n, count))


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
        expect_end(f, "epsilon log")
    counts = np.frombuffer(raw, dtype="<u2").copy()
    above = np.flatnonzero(counts > n)
    if above.size:  # an n-bit register holds at most n ones
        i = int(above[0])
        raise ValueError(f"epsilon log count {i} is {counts[i]}, above the register width {n}")
    return n, counts
