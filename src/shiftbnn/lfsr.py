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
import math
from dataclasses import dataclass

import numpy as np


class InvalidTaps(ValueError):
    """Tap set is malformed: tail missing, duplicate or out-of-range index."""


class ZeroSeed(ValueError):
    """The all-zero register content is a fixed point and cannot be seeded."""


class UnfactoredWidth(ValueError):
    """``is_maximal`` has no prime factors of 2^n - 1 for this width."""


#: Maximal-length tap sets, register-index form; the tests prove each with is_maximal.
DEFAULT_TAPS = {
    8: (4, 5, 6, 8),
    12: (1, 4, 6, 12),
    16: (11, 13, 14, 16),
    24: (17, 22, 23, 24),
    256: (246, 251, 254, 256),
}

#: The distinct primes dividing 2^n - 1 for every width in DEFAULT_TAPS.
ORDER_PRIMES = {
    8: (3, 5, 17), 12: (3, 5, 7, 13), 16: (3, 5, 17, 257), 24: (3, 5, 7, 13, 17, 241),
    256: (3, 5, 17, 257, 641, 65537, 274177, 6700417, 67280421310721,
          59649589127497217, 5704689200685129054721),
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

    @property
    def poly(self) -> int:
        """Characteristic polynomial x^n + sum of x^(n-j) over taps j; bit i is x^i."""
        return (1 << self.width) | self.mask


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


def new_lfsr(taps: TapSet, seed: int) -> LfsrState:
    """A register of ``taps.width`` bits holding ``seed``, at position 0."""
    if seed == 0:
        raise ZeroSeed("all-zero seed is a fixed point of the recurrence")
    if seed < 0 or seed >> taps.width:
        raise ValueError(f"seed does not fit in {taps.width} bits")
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
    """Number of 1-bits in the register; the tests' oracle for a GRNG block's counts."""
    return state.bits.bit_count()


# ---------------------------------------------------------------------------
# Bulk bit-stream engine.
#
# Viewing the LFSR as a sliding window over one bit stream s (s[p] is the
# tail R_n at position p, s[p + n - 1] the head R_1), a forward shift
# appends s[p + n] = XOR(s[p + n - j] for j in taps) and a reverse shift
# prepends s[p - 1] via the solved-for-tail form of the same equation.
# Both directions vectorize over whole blocks and over batches of
# independent registers.  The training loop moves one register at a time;
# only the large randomized checks batch registers.
#
# Over GF(2), p(x)^(2^e) = p(x^(2^e)) (Golomb, "Shift Register Sequences",
# 1967), so s also obeys the recurrence with every tap scaled by 2^e.  The
# scaled recurrence makes min(taps) * 2^e consecutive bits independent of
# each other, which lets one numpy pass write a block that doubles with
# the known prefix instead of a fixed min(taps) bits.
#
# At a scale 2^e >= 8 every tap offset j * 2^e is a whole number of bytes,
# and bit b of a byte depends only on bit b of the bytes it reads.  So the
# stream packed 8 bits to a byte (little bit order) obeys the recurrence
# with every tap scaled by 2^(e-3), byte by byte: ``_fill`` runs unchanged
# on packed bytes, n known bytes standing for 8n known bits.
# extend_backward runs both of its fills that way.
# ---------------------------------------------------------------------------

# extend_backward's cost model: one _fill pass costs as much as writing this
# many window bytes.  Fitted on a 2-core x86 host (numpy 2.4, one BLAS
# thread) by least squares on relative error to extend_backward's best-of-60
# time at every scale for the b-mlp and b-lenet segment sizes, with one
# intercept per size: 4.8 us per pass, 0.11 ns per window byte.
_BYTES_PER_PASS = 44_000

#: packed bytes extend_backward unpacks at a time, into a 64 KiB temporary
_UNPACK_CHUNK = 1 << 13


def state_to_window(state: LfsrState) -> np.ndarray:
    """Bit window s[p : p+n) as uint8, index 0 = R_n, index n-1 = R_1."""
    n = state.taps.width
    nbytes = (n + 7) // 8
    raw = state.bits.to_bytes(nbytes, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[:n].copy()


def window_to_state(window: np.ndarray, taps: TapSet, position: int) -> LfsrState:
    bits = int.from_bytes(np.packbits(window.astype(np.uint8), bitorder="little").tobytes(), "little")
    return LfsrState(bits, taps, position)


def _fill(buf: np.ndarray, known: int, taps: TapSet) -> None:
    """Fill buf[..., known:] from the stream bits buf[..., :known], known >= n.

    Each pass takes the largest scale 2^e with n * 2^e <= known, so every
    bit the scaled recurrence reads lies in the buffer, and writes the next
    min(taps) * 2^e bits, which read only known bits.  The scale doubles
    every ceil(n / min(taps)) passes, so k bits take about that many times
    log2(k / n) passes.
    """
    n, total = taps.width, buf.shape[-1]
    while known < total:
        e = (known // n).bit_length() - 1
        blk = min(taps.taps[0] << e, total - known)
        dst = buf[..., known : known + blk]
        first, *rest = (known - (j << e) for j in taps.taps)
        np.copyto(dst, buf[..., first : first + blk])
        for lo in rest:
            dst ^= buf[..., lo : lo + blk]
        known += blk


def _mirror(taps: TapSet) -> TapSet:
    """Taps of the time-reversed stream: s[i] = s[i+n] ^ XOR(s[i+n-j], j != n)
    read from the other end is a forward recurrence with taps n and n - j."""
    n = taps.width
    return TapSet(n, (n,) + tuple(n - j for j in taps.taps if j != n))


@functools.lru_cache(maxsize=256)
def _reverse_scale(k: int, taps: TapSet) -> tuple[TapSet, int]:
    """(mirror taps, scale exponent m >= 3) of extend_backward's look-ahead
    window of n * 2^m bits, held as n * S packed bytes with S = 2^(m-3),
    for k bits.

    With t = min(taps), r = min(mirror taps) and B = ceil(k / 8), the two
    byte fills cost about (n / t) * log2 S forward passes to build the
    window from its first n bytes, B / (r * S) reverse passes over the
    bytes before it, and n * S / ``_BYTES_PER_PASS`` passes' worth of
    window bytes.  That cost is least at the positive root of
    (n / _BYTES_PER_PASS) * S^2 + (n / (t ln 2)) * S - B / r = 0, and m is
    3 plus its log2, rounded and at least 0.  The bits do not depend on m.
    """
    n, mirror = taps.width, _mirror(taps)
    a, b, c = n / _BYTES_PER_PASS, n / (taps.taps[0] * math.log(2)), -(-k // 8) / mirror.taps[0]
    # the positive root of a S^2 + b S - c, written so it does not cancel when c is small
    root = 2 * c / (b + math.sqrt(b * b + 4 * a * c))
    return mirror, 3 + round(math.log2(max(root, 1)))


def backward_span(k: int, taps: TapSet) -> int:
    """Bytes of the buffer ``extend_backward`` fills for k bits: the k bits
    and the given window extended forward to 8n bits, one bit per byte,
    then the ceil(k / 8) packed bytes before the window and the packed
    look-ahead window."""
    n = taps.width
    return k + 8 * n + -(-k // 8) + (n << (_reverse_scale(k, taps)[1] - 3))


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
    is extended forward to 8n bits and packed into n bytes, which are
    extended forward to the n * 2^(m-3)-byte look-ahead window; the
    reverse recurrence then runs on the reversed bytes with every tap
    scaled by 2^(m-3), and the ceil(k / 8) bytes before the window are
    unpacked ``_UNPACK_CHUNK`` bytes at a time.  With ``out`` (last axis at
    least ``backward_span(k, taps)`` long) only the n packed bytes and one
    chunk of unpacked bits (64 KiB per row) are allocated: out[..., :k + n]
    receives s[p-k : p+n) and the result is a view of it.
    """
    n = taps.width
    if k < 0:
        raise ValueError("k must be >= 0")
    if window.shape[-1] != n:
        raise ValueError("window must be exactly n bits")
    mirror, m = _reverse_scale(k, taps)
    span, before, ahead = backward_span(k, taps), -(-k // 8), n << (m - 3)
    if out is None:
        out = np.empty(window.shape[:-1] + (span,), dtype=np.uint8)
    elif out.shape[-1] < span:
        raise ValueError(f"out holds {out.shape[-1]} bytes, needs {span}")
    bits = out[..., k : k + 8 * n]
    extend_forward(window, 7 * n, taps, out=bits)
    packed = out[..., k + 8 * n : span]
    packed[..., before : before + n] = np.packbits(bits, axis=-1, bitorder="little")
    _fill(packed[..., before:], n, taps)
    _fill(packed[..., ::-1], ahead, mirror)
    # unpacked bit j is s[p - k - skip + j]: the first chunk drops skip bits
    skip = 8 * before - k
    for lo in range(0, before, _UNPACK_CHUNK):
        hi, at = min(lo + _UNPACK_CHUNK, before), 8 * lo - skip
        # unnamed, so each chunk's bits are freed before the next is unpacked
        out[..., max(at, 0) : 8 * hi - skip] = np.unpackbits(
            packed[..., lo:hi], axis=-1, bitorder="little")[..., max(-at, 0):]
    return out[..., :k]


def orbit_period(taps: TapSet, seed: int = 1) -> int:
    """Length of the state orbit from ``seed`` (brute force; small widths)."""
    state = new_lfsr(taps, seed)
    start = state.bits
    steps = 0
    while True:
        state, _, _ = shift_forward(state)
        steps += 1
        if state.bits == start:
            return steps
        if steps > (1 << taps.width):
            raise RuntimeError("orbit longer than state space; broken recurrence")


def poly_mulmod(a: int, b: int, p: int) -> int:
    """a(x) * b(x) mod p(x) over GF(2), on ints with bit i for x^i; deg a < deg p."""
    top, r = 1 << (p.bit_length() - 1), 0
    while b:
        if b & 1:
            r ^= a
        a, b = a << 1, b >> 1
        if a & top:
            a ^= p
    return r


def x_pow_mod(e: int, p: int) -> int:
    """x^e mod p(x) over GF(2), by square-and-multiply."""
    r = 1
    for bit in bin(e)[2:]:
        r = poly_mulmod(r, r << int(bit), p)
    return r


def is_maximal(taps: TapSet) -> bool:
    """Whether the nonzero orbit has the full period 2^n - 1, the order of x
    modulo ``taps.poly``: x^(2^n - 1) = 1 and x^((2^n - 1)/q) != 1 for every
    prime q | 2^n - 1 in ``ORDER_PRIMES``."""
    n, p = taps.width, taps.poly
    if n not in ORDER_PRIMES:
        raise UnfactoredWidth(f"no prime factors of 2^{n} - 1 on record")
    order = (1 << n) - 1
    return x_pow_mod(order, p) == 1 and all(
        x_pow_mod(order // q, p) != 1 for q in ORDER_PRIMES[n])
