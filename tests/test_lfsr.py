"""Register-level shift/reverse behavior and tap-set validation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbnn import lfsr
from shiftbnn.lfsr import (
    DEFAULT_TAPS,
    ORDER_PRIMES,
    InvalidTaps,
    TapSet,
    UnfactoredWidth,
    ZeroSeed,
    backward_span,
    extend_backward,
    extend_forward,
    is_maximal,
    new_lfsr,
    orbit_period,
    popcount_state,
    shift_forward,
    shift_reverse,
    state_to_window,
    window_to_state,
    x_pow_mod,
)
from shiftbnn.train import MODEL_BUILDERS

#: per-sample noise segment sizes of b-mlp (fc1 first) and b-lenet
SEGMENT_SIZES = tuple(layer.weight_count for name in ("b-mlp", "b-lenet")
                      for _, layer in MODEL_BUILDERS[name]().bayes_layers())
#: shipped defaults plus the wrong-tap negative control of verify-equivalence
SCALE_TAPS = [TapSet.default(w) for w in sorted(DEFAULT_TAPS)] + [TapSet(256, (1, 2, 3, 256))]


def block_sizes(n: int) -> list[int]:
    """Segment sizes, plus n * 2^j - 1, n * 2^j and n * 2^j + 1 up to fc1's."""
    edges = {(n << j) + d for j in range(SEGMENT_SIZES[0].bit_length())
             if n << j <= SEGMENT_SIZES[0] for d in (-1, 0, 1)}
    return sorted(edges | set(SEGMENT_SIZES))


def stream_of(windows: np.ndarray, taps: TapSet) -> np.ndarray:
    """s[p : p+2n) for each row's window s[p : p+n); the last n bits come
    from single ``shift_forward`` steps."""
    n = taps.width
    stream = np.concatenate([windows, np.empty_like(windows)], axis=1)
    for row in stream:
        state = window_to_state(row[:n], taps, 0)
        for i in range(n, 2 * n):
            state, row[i], _ = shift_forward(state)
    return stream


def jump(stream: np.ndarray, k: int, taps: TapSet) -> np.ndarray:
    """The window k shifts on, s[p+k : p+k+n), from s[p : p+2n): with
    x^k mod p(x) = sum of c_i x^i, it is the XOR of s[p+i : p+i+n) over
    c_i = 1.  This is M^k for the register's companion matrix M."""
    n, c = taps.width, x_pow_mod(k, taps.poly)
    windows = np.lib.stride_tricks.sliding_window_view(stream, n, axis=-1)
    return np.bitwise_xor.reduce(windows[:, [i for i in range(n) if c >> i & 1]], axis=1)


#: deterministic Miller-Rabin with the first 13 prime bases is exact below
#: this bound (Sorenson and Webster, Math. Comp. 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for m < ``MR_EXACT_BELOW``."""
    if m < 2 or any(m % a == 0 for a in MR_BASES):
        return m in MR_BASES
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class TestTapSet:
    def test_tail_must_be_tapped(self):
        with pytest.raises(InvalidTaps):
            TapSet(8, (4, 5, 6))

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidTaps):
            TapSet(8, (4, 4, 8))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidTaps):
            TapSet(8, (0, 5, 8))
        with pytest.raises(InvalidTaps):
            TapSet(8, (4, 9, 8))

    def test_minimum_width(self):
        with pytest.raises(InvalidTaps):
            TapSet(3, (1, 3))

    def test_taps_sorted(self):
        ts = TapSet(8, (8, 4, 6, 5))
        assert ts.taps == (4, 5, 6, 8)

    def test_default_widths(self):
        for width in DEFAULT_TAPS:
            ts = TapSet.default(width)
            assert ts.width == width
            assert width in ts.taps

    def test_no_default_for_odd_width(self):
        with pytest.raises(InvalidTaps):
            TapSet.default(13)

    def test_mask_msb_convention(self):
        # R_1 is the MSB: tap 1 sets the top bit, tap n bit zero
        ts = TapSet(8, (1, 8))
        assert ts.mask == 0b10000001


class TestSeeding:
    def test_zero_seed_rejected(self):
        with pytest.raises(ZeroSeed):
            new_lfsr(8, TapSet.default(8), 0)

    def test_oversized_seed_rejected(self):
        with pytest.raises(ValueError):
            new_lfsr(8, TapSet.default(8), 1 << 8)

    def test_width_mismatch(self):
        with pytest.raises(InvalidTaps):
            new_lfsr(12, TapSet.default(8), 1)


class TestShifting:
    def test_forward_drops_tail_feeds_head(self):
        ts = TapSet(8, (4, 5, 6, 8))
        s = new_lfsr(8, ts, 0b0000_0001)  # only R_8 set
        s2, head_in, tail_out = shift_forward(s)
        assert tail_out == 1
        assert head_in == 1  # XOR over R4,R5,R6,R8 = 1
        assert s2.register(1) == 1
        assert s2.position == 1

    def test_exhaustive_involution_width8(self):
        ts = TapSet.default(8)
        for seed in range(1, 256):
            s = new_lfsr(8, ts, seed)
            f, head_in, tail_out = shift_forward(s)
            b, tail_in, head_out = shift_reverse(f)
            assert b.bits == s.bits
            assert b.position == 0
            assert tail_in == tail_out
            assert head_out == head_in

    def test_zero_is_invariant_under_dynamics(self):
        # the all-zero word maps to itself; no nonzero seed may reach it
        ts = TapSet.default(8)
        state = new_lfsr(8, ts, 1)
        for _ in range(300):
            state, _, _ = shift_forward(state)
            assert state.bits != 0

    @given(seed=st.integers(min_value=1, max_value=(1 << 24) - 1),
           k=st.integers(min_value=1, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_forward_then_reverse_restores(self, seed, k):
        ts = TapSet.default(24)
        s = new_lfsr(24, ts, seed)
        trace = []
        for _ in range(k):
            s, head_in, _ = shift_forward(s)
            trace.append(head_in)
        back = []
        for _ in range(k):
            s, _, head_out = shift_reverse(s)
            back.append(head_out)
        assert s.bits == seed and s.position == 0
        assert back == trace[::-1]


class TestWindowCodec:
    def test_roundtrip(self):
        ts = TapSet.default(16)
        s = new_lfsr(16, ts, 0xBEEF)
        w = state_to_window(s)
        assert w.shape == (16,)
        assert w[0] == s.register(16)  # index 0 is the tail
        assert w[15] == s.register(1)
        assert window_to_state(w, ts, s.position).bits == s.bits


class TestBulkEngine:
    @pytest.mark.parametrize("width", [8, 16, 24, 256])
    def test_extend_forward_matches_scalar(self, width):
        ts = TapSet.default(width)
        s = new_lfsr(width, ts, (1 << width) - 3)
        k = 700
        bits = extend_forward(state_to_window(s), k, ts)
        scalar = []
        for _ in range(k):
            s, head_in, _ = shift_forward(s)
            scalar.append(head_in)
        assert bits.tolist() == scalar

    @pytest.mark.parametrize("width", [8, 12, 16, 24, 256])
    def test_extend_backward_matches_scalar(self, width):
        ts = TapSet.default(width)
        s = new_lfsr(width, ts, 12345 % ((1 << width) - 1) + 1)
        for _ in range(900):
            s, _, _ = shift_forward(s)
        window = state_to_window(s)
        scalar = []
        for _ in range(703):
            s, tail_in, _ = shift_reverse(s)
            scalar.append(tail_in)
        # the bits come back through whole bytes: k % 8 in {0, 1, 7}, and k < 8
        for k in (1, 7, 8, 9, 696, 697, 703):
            bits = extend_backward(window, k, ts)
            # scalar reverse yields stream bits newest-first
            assert bits.tolist() == scalar[:k][::-1], k

    def test_batched_extension(self):
        ts = TapSet.default(16)
        seeds = [1, 77, 40000]
        windows = np.stack([state_to_window(new_lfsr(16, ts, sd)) for sd in seeds])
        batched = extend_forward(windows, 64, ts)
        for row, sd in zip(batched, seeds):
            single = extend_forward(state_to_window(new_lfsr(16, ts, sd)), 64, ts)
            assert np.array_equal(row, single)

    def test_negative_k_rejected(self):
        ts = TapSet.default(256)
        window = state_to_window(new_lfsr(256, ts, 5))
        for extend in (extend_forward, extend_backward):
            with pytest.raises(ValueError, match="k must be >= 0"):
                extend(window, -3, ts)

    @pytest.mark.parametrize("taps", SCALE_TAPS, ids=lambda ts: f"{ts.width}-{ts.taps[0]}")
    def test_every_scale_against_matrix_power(self, taps):
        """Every block size the scaled recurrences see in training, and both
        sides of each point where the scale 2^j changes: the forward register
        equals M^k applied to the start register, taken as the jump x^k mod
        p(x), and extending backward then forward gives back the same bits.
        Written into a caller's buffer that is longer than needed and holds
        the previous block's bits, both directions return the bits of a
        fresh call."""
        n = taps.width
        rng = np.random.default_rng(n)
        window = rng.integers(0, 2, size=(3, n), dtype=np.uint8)
        stream = stream_of(window, taps)
        sizes = block_sizes(n)
        # backward_span(k) >= n + k covers the forward need too
        longest = max(backward_span(k, taps) for k in sizes)
        dirty = rng.integers(0, 2, size=(3, longest + 1), dtype=np.uint8)
        for k in sizes:
            ext = extend_forward(window, k, taps)
            final = np.concatenate([window, ext], axis=1)[:, -n:]
            assert np.array_equal(final, jump(stream, k, taps)), k
            back = extend_backward(window, k, taps)
            full = np.concatenate([back, window], axis=1)
            assert np.array_equal(extend_forward(full[:, :n], k, taps), full[:, n:]), k

            got = extend_forward(window, k, taps, out=dirty)
            assert np.shares_memory(got, dirty), k
            assert np.array_equal(dirty[:, : n + k], np.concatenate([window, ext], axis=1)), k
            got = extend_backward(window, k, taps, out=dirty)
            assert np.shares_memory(got, dirty), k
            assert np.array_equal(dirty[:, : k + n], full), k

    def test_reverse_scale(self):
        """``extend_backward``'s look-ahead scale m: with taps (1, 2, 3, 256),
        whose forward passes write one byte each, m stays 3 at every block
        size; with the shipped taps m never falls as k grows and is 14 at
        b-mlp fc1."""
        sizes = block_sizes(256)
        assert {lfsr._reverse_scale(k, TapSet(256, (1, 2, 3, 256)))[1] for k in sizes} == {3}
        scales = [lfsr._reverse_scale(k, TapSet.default(256))[1] for k in sizes]
        assert scales == sorted(scales)
        assert lfsr._reverse_scale(SEGMENT_SIZES[0], TapSet.default(256))[1] == 14

    def test_short_buffer_rejected(self):
        ts = TapSet.default(256)
        window = state_to_window(new_lfsr(256, ts, 5))
        with pytest.raises(ValueError, match="needs 1256"):
            extend_forward(window, 1000, ts, out=np.zeros(1255, np.uint8))
        span = backward_span(1000, ts)
        with pytest.raises(ValueError, match=f"needs {span}"):
            extend_backward(window, 1000, ts, out=np.zeros(span - 1, np.uint8))

    def test_forward_backward_inverse(self):
        ts = TapSet.default(256)
        s = new_lfsr(256, ts, 3 << 100)
        w0 = state_to_window(s)
        ext = extend_forward(w0, 1000, ts)
        stream = np.concatenate([w0, ext])
        recon = extend_backward(stream[-256:], 1000, ts)
        assert np.array_equal(recon, stream[:1000])


class TestMaximality:
    @pytest.mark.parametrize("width", [8, 12, 16])
    def test_default_taps_full_period_brute_force(self, width):
        assert orbit_period(TapSet.default(width)) == (1 << width) - 1

    @pytest.mark.parametrize("width", sorted(DEFAULT_TAPS))
    def test_divisor_test_agrees(self, width):
        assert is_maximal(TapSet.default(width))

    def test_divisor_test_rejects_non_maximal(self):
        # x^8 + x^4 + 1 style taps split the state space into short orbits
        assert not is_maximal(TapSet(8, (4, 8)))
        # verify-equivalence's wrong-tap control
        assert not is_maximal(TapSet(256, (1, 2, 3, 256)))

    def test_width_without_factors_rejected(self):
        with pytest.raises(UnfactoredWidth, match="2\\^13 - 1"):
            is_maximal(TapSet(13, (1, 3, 4, 13)))

    def test_poly_one_step(self):
        """x^n mod p(x) is the feedback: with the state's bit i holding
        s[p+i], the head bit is the parity of the state AND x^n mod p(x)."""
        ts = TapSet.default(8)
        feedback = x_pow_mod(8, ts.poly)
        assert feedback == ts.mask
        for seed in range(1, 256):
            _, head_in, _ = shift_forward(new_lfsr(8, ts, seed))
            assert head_in == (seed & feedback).bit_count() & 1

    def test_poly_power_order(self):
        ts = TapSet.default(8)
        assert x_pow_mod(255, ts.poly) == 1
        assert x_pow_mod(85, ts.poly) != 1

    def test_jump_matches_single_shifts(self):
        """From every nonzero width-8 register, the jump by k equals k
        single shifts for every k < 255."""
        ts = TapSet.default(8)
        states = [new_lfsr(8, ts, seed) for seed in range(1, 256)]
        stream = stream_of(np.stack([state_to_window(s) for s in states]), ts)
        for k in range(255):
            assert np.array_equal(jump(stream, k, ts),
                                  np.stack([state_to_window(s) for s in states])), k
            states = [shift_forward(s)[0] for s in states]


class TestOrderPrimes:
    """``ORDER_PRIMES`` is checked, not trusted."""

    def test_every_shipped_width_has_primes(self):
        assert set(ORDER_PRIMES) == set(DEFAULT_TAPS)

    @pytest.mark.parametrize("width", sorted(ORDER_PRIMES))
    def test_primes_factor_the_order(self, width):
        order = rest = (1 << width) - 1
        for q in ORDER_PRIMES[width]:
            assert order % q == 0, q
            assert q < MR_EXACT_BELOW and is_prime(q), q
            while rest % q == 0:
                rest //= q
        assert rest == 1

    def test_miller_rabin_against_trial_division(self):
        sieve = [m for m in range(2, 5_000) if all(m % d for d in range(2, int(m ** 0.5) + 1))]
        assert [m for m in range(5_000) if is_prime(m)] == sieve
        # strong pseudoprimes to bases 2, 3, 5 and 7, and a product of two
        # of the 256-bit primes
        for composite in (3_215_031_751, 641 * 6_700_417, 274_177 * 67_280_421_310_721):
            assert not is_prime(composite), composite


def test_is_maximal_does_not_import_sympy():
    code = ("import sys\n"
            "from shiftbnn.lfsr import DEFAULT_TAPS, TapSet, is_maximal\n"
            "assert all(is_maximal(TapSet.default(w)) for w in DEFAULT_TAPS)\n"
            "print('sympy' in sys.modules)\n")
    src = str(Path(lfsr.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


def test_popcount_oracle():
    ts = TapSet.default(16)
    s = new_lfsr(16, ts, 0b1010_1100_0011_0101)
    assert popcount_state(s) == 8
