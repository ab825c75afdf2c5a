"""Parametric-width Fibonacci LFSR with exact reverse shifting.

The register chain is indexed R_1 (head) .. R_n (tail).  A forward shift
feeds XOR(taps) into R_1 and drops R_n; a reverse shift slides everything
back and reconstructs the dropped tail bit from the head and the shifted
tap registers.  Forward followed by reverse is an exact involution, which
is what makes the generated bit patterns retrievable without storage.

States are value objects: every shift returns a new ``LfsrState``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class InvalidTaps(ValueError):
    """Tap set is malformed: tail missing, duplicate or out-of-range index."""


class ZeroSeed(ValueError):
    """The all-zero register content is a fixed point and cannot be seeded."""


#: Known maximal-length tap sets, register-index form (tail n always included).
#: Widths <= 24 are re-verified by brute force in the test suite; the 256-bit
#: set is the published 4-tap maximal configuration.
DEFAULT_TAPS = {
    8: (4, 5, 6, 8),
    12: (1, 4, 6, 12),
    16: (11, 13, 14, 16),
    24: (17, 22, 23, 24),
    256: (246, 251, 254, 256),
}


@dataclass(frozen=True)
class TapSet:
    """Feedback tap positions for an n-bit register.

    ``taps`` are register indices in [1, n]; the tail index n is mandatory
    because the recurrence must consume the bit that falls off the end.
    """

    width: int
    taps: tuple[int, ...]

    def __post_init__(self):
        n = self.width
        if n < 4:
            raise InvalidTaps(f"width must be >= 4, got {n}")
        taps = tuple(sorted(self.taps))
        if len(set(taps)) != len(taps):
            raise InvalidTaps(f"duplicate tap indices in {self.taps}")
        if any(t < 1 or t > n for t in taps):
            raise InvalidTaps(f"tap index out of range [1, {n}]: {self.taps}")
        if n not in taps:
            raise InvalidTaps(f"tail index {n} must be a tap, got {self.taps}")
        object.__setattr__(self, "taps", taps)

    @classmethod
    def default(cls, width: int) -> "TapSet":
        try:
            return cls(width, DEFAULT_TAPS[width])
        except KeyError:
            raise InvalidTaps(f"no default tap set shipped for width {width}")

    @property
    def mask(self) -> int:
        """Bitmask with a 1 at every tap register (R_1 = MSB convention)."""
        return sum(1 << (self.width - t) for t in self.taps)


@dataclass(frozen=True)
class LfsrState:
    """Register contents plus a signed net-forward-shift counter.

    ``bits`` packs R_1..R_n with R_1 as the most significant bit, so the
    tail R_n is bit 0.  ``position`` counts forward shifts since seeding
    and may go negative if reversed past the seed (the GRNG layer forbids
    that; the raw register does not care).
    """

    bits: int
    taps: TapSet
    position: int = 0

    def register(self, i: int) -> int:
        """Value of R_i, 1-indexed."""
        return (self.bits >> (self.taps.width - i)) & 1


def new_lfsr(width: int, taps: TapSet, seed: int) -> LfsrState:
    if taps.width != width:
        raise InvalidTaps(f"tap width {taps.width} != requested width {width}")
    if seed == 0:
        raise ZeroSeed("all-zero seed is a fixed point of the recurrence")
    if seed < 0 or seed >> width:
        raise ValueError(f"seed does not fit in {width} bits")
    return LfsrState(bits=seed, taps=taps, position=0)


def shift_forward(state: LfsrState) -> tuple[LfsrState, int, int]:
    """One forward shift; returns (new state, head_in, tail_out)."""
    n = state.taps.width
    head_in = (state.bits & state.taps.mask).bit_count() & 1
    tail_out = state.bits & 1
    bits = (head_in << (n - 1)) | (state.bits >> 1)
    return LfsrState(bits, state.taps, state.position + 1), head_in, tail_out


def shift_reverse(state: LfsrState) -> tuple[LfsrState, int, int]:
    """One reverse shift; returns (new state, tail_in, head_out).

    The reconstructed tail bit is R_1 XOR (XOR of R_{t+1} for every
    non-tail tap t): solving the forward feedback equation for the bit
    that was dropped, using (A ^ B) ^ B == A.
    """
    n = state.taps.width
    head_out = state.bits >> (n - 1)
    tail_in = head_out
    for t in state.taps.taps:
        if t != n:
            tail_in ^= state.register(t + 1)
    bits = ((state.bits << 1) & ((1 << n) - 1)) | tail_in
    return LfsrState(bits, state.taps, state.position - 1), tail_in, head_out


def popcount_state(state: LfsrState) -> int:
    """Number of 1-bits in the register; oracle for the GRNG running sum."""
    return state.bits.bit_count()


# ---------------------------------------------------------------------------
# Bulk bit-stream engine.
#
# Viewing the LFSR as a sliding window over one bit stream s (s[p] is the
# tail R_n at position p, s[p + n - 1] the head R_1), a forward shift
# appends s[p + n] = XOR(s[p + n - j] for j in taps) and a reverse shift
# prepends s[p - 1] via the solved-for-tail form of the same equation.
# Both directions vectorize over whole blocks and over batches of
# independent registers, which the training loop and the large randomized
# checks rely on.
#
# Over GF(2), p(x)^(2^e) = p(x^(2^e)) (Golomb, "Shift Register Sequences",
# 1967), so s also obeys the recurrence with every tap scaled by 2^e.  The
# scaled recurrence makes min(taps) * 2^e consecutive bits independent of
# each other, which lets one numpy pass write a block that doubles with
# the known prefix instead of a fixed min(taps) bits.
# ---------------------------------------------------------------------------

# extend_backward's cost model: one _fill pass costs as much as writing this
# many window bits.  Fitted on a 2-core x86 host (numpy 2.4) to extend_backward
# at every scale for the b-mlp and b-lenet segment sizes: 3.3 us per pass,
# 0.059 ns per bit.
_BITS_PER_PASS = 56_000


def state_to_window(state: LfsrState) -> np.ndarray:
    """Bit window s[p : p+n) as uint8, index 0 = R_n, index n-1 = R_1."""
    n = state.taps.width
    nbytes = (n + 7) // 8
    raw = state.bits.to_bytes(nbytes, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[:n].copy()


def window_to_state(window: np.ndarray, taps: TapSet, position: int) -> LfsrState:
    bits = int.from_bytes(np.packbits(window.astype(np.uint8), bitorder="little").tobytes(), "little")
    return LfsrState(bits, taps, position)


def _fill(buf: np.ndarray, known: int, taps: TapSet) -> int:
    """Fill buf[..., known:] from the stream bits buf[..., :known], known >= n;
    returns the number of passes.

    Each pass takes the largest scale 2^e with n * 2^e <= known, so every
    bit the scaled recurrence reads lies in the buffer, and writes the next
    min(taps) * 2^e bits, which read only known bits.  The scale doubles
    every ceil(n / min(taps)) passes, so k bits take about that many times
    log2(k / n) passes (``_fill_passes`` counts them exactly).
    """
    n, total, passes = taps.width, buf.shape[-1], 0
    while known < total:
        e = (known // n).bit_length() - 1
        blk = min(taps.taps[0] << e, total - known)
        dst = buf[..., known : known + blk]
        first, *rest = (known - (j << e) for j in taps.taps)
        np.copyto(dst, buf[..., first : first + blk])
        for lo in rest:
            dst ^= buf[..., lo : lo + blk]
        known += blk
        passes += 1
    return passes


def _fill_passes(known: int, total: int, taps: TapSet) -> int:
    """Number of passes ``_fill`` makes from ``known`` to ``total`` bits,
    one step per scale instead of one per pass."""
    n, passes = taps.width, 0
    while known < total:
        e = (known // n).bit_length() - 1
        step = taps.taps[0] << e
        todo = -(-(min(total, n << (e + 1)) - known) // step)
        passes += todo
        known = min(total, known + todo * step)
    return passes


def _mirror(taps: TapSet) -> TapSet:
    """Taps of the time-reversed stream: s[i] = s[i+n] ^ XOR(s[i+n-j], j != n)
    read from the other end is a forward recurrence with taps n and n - j."""
    n = taps.width
    return TapSet(n, (n,) + tuple(n - j for j in taps.taps if j != n))


@functools.lru_cache(maxsize=256)
def _reverse_scale(k: int, taps: TapSet) -> tuple[TapSet, int]:
    """(mirror taps, scale exponent m) of extend_backward's look-ahead window
    n * 2^m for k bits.

    m minimises the cost of the two fills: the forward passes that build
    the window, the reverse passes over k bits, whose scale starts at 2^m,
    and the window's n * 2^m bits at ``_BITS_PER_PASS`` bits per pass.
    The bits do not depend on m (see the note above ``state_to_window``).
    """
    n, mirror = taps.width, _mirror(taps)

    def cost(m):
        ahead = n << m
        return (_fill_passes(n, ahead, taps) + _fill_passes(ahead, ahead + k, mirror)
                + ahead / _BITS_PER_PASS)

    best, least, m = 0, cost(0), 1
    # the window term alone grows without bound: stop once it outweighs the best
    while (n << m) / _BITS_PER_PASS < least:
        c = cost(m)
        if c < least:
            best, least = m, c
        m += 1
    return mirror, best


def backward_span(k: int, taps: TapSet) -> int:
    """Bits of the buffer ``extend_backward`` fills for k bits: the k bits,
    then the look-ahead window that starts with the given one."""
    return k + (taps.width << _reverse_scale(k, taps)[1])


def extend_forward(history: np.ndarray, k: int, taps: TapSet,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Append k stream bits after ``history`` (last axis holds >= n bits).

    Works on shape (..., n); returns (..., k).  With ``out`` (last axis
    at least n + k long) nothing is allocated: out[..., :n + k] receives
    history's last n bits followed by the k new ones, and the result is
    a view of it.
    """
    n = taps.width
    if k < 0:
        raise ValueError("k must be >= 0")
    if history.shape[-1] < n:
        raise ValueError("history must contain at least n bits")
    if out is None:
        out = np.empty(history.shape[:-1] + (n + k,), dtype=np.uint8)
    elif out.shape[-1] < n + k:
        raise ValueError(f"out holds {out.shape[-1]} bits, needs {n + k}")
    buf = out[..., : n + k]
    buf[..., :n] = history[..., -n:]
    _fill(buf, n, taps)
    return buf[..., n:]


def extend_backward(window: np.ndarray, k: int, taps: TapSet,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct the k stream bits preceding ``window``.

    ``window`` is s[p : p+n) (shape (..., n)); the result is s[p-k : p)
    in stream order.  This is the vectorized form of ``shift_reverse``:
    s[m] = s[m+n] XOR (XOR of s[m+n-j] for non-tail taps j).  The window
    is first extended forward to n * 2^m bits so that the reverse
    recurrence can run with every tap scaled by 2^m.  With ``out`` (last
    axis at least ``backward_span(k, taps)`` long) nothing is allocated:
    out[..., :k + n] receives s[p-k : p+n) and the result is a view of it.
    """
    n = taps.width
    if k < 0:
        raise ValueError("k must be >= 0")
    if window.shape[-1] != n:
        raise ValueError("window must be exactly n bits")
    mirror, m = _reverse_scale(k, taps)
    ahead = n << m
    if out is None:
        out = np.empty(window.shape[:-1] + (k + ahead,), dtype=np.uint8)
    elif out.shape[-1] < k + ahead:
        raise ValueError(f"out holds {out.shape[-1]} bits, needs {k + ahead}")
    buf = out[..., : k + ahead]
    buf[..., k : k + n] = window
    _fill(buf[..., k:], n, taps)
    _fill(buf[..., ::-1], ahead, mirror)
    return buf[..., :k]


def orbit_period(taps: TapSet, seed: int = 1) -> int:
    """Length of the state orbit from ``seed`` (brute force; small widths)."""
    state = new_lfsr(taps.width, taps, seed)
    start = state.bits
    steps = 0
    while True:
        state, _, _ = shift_forward(state)
        steps += 1
        if state.bits == start:
            return steps
        if steps > (1 << taps.width):
            raise RuntimeError("orbit longer than state space; broken recurrence")


def transition_matrix(taps: TapSet) -> np.ndarray:
    """GF(2) next-state matrix M with state as the R_1..R_n column vector."""
    n = taps.width
    m = np.zeros((n, n), dtype=np.uint8)
    for t in taps.taps:
        m[0, t - 1] = 1  # new R_1 = XOR of taps
    for i in range(1, n):
        m[i, i - 1] = 1  # R_{i+1} <- R_i
    return m


def _gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float64 products are exact for n < 2^53 and run on BLAS
    return (a.astype(np.float64) @ b.astype(np.float64) % 2).astype(np.uint8)


def gf2_matpow(m: np.ndarray, e: int) -> np.ndarray:
    result = np.eye(m.shape[0], dtype=np.uint8)
    base = m
    while e:
        if e & 1:
            result = _gf2_matmul(result, base)
        base = _gf2_matmul(base, base)
        e >>= 1
    return result


def is_maximal(taps: TapSet) -> bool:
    """Whether the nonzero orbit has the full period 2^n - 1.

    Uses the standard divisor test: the period divides 2^n - 1, so the
    tap set is maximal iff M^(2^n - 1) = I and M^((2^n - 1)/p) != I for
    every prime factor p.  Factoring 2^n - 1 needs sympy, imported lazily.
    """
    from sympy import factorint

    n = taps.width
    order = (1 << n) - 1
    m = transition_matrix(taps)
    eye = np.eye(n, dtype=np.uint8)
    if not np.array_equal(gf2_matpow(m, order), eye):
        return False
    return all(
        not np.array_equal(gf2_matpow(m, order // p), eye) for p in factorint(order)
    )
