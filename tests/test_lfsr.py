"""Register-level shift/reverse behavior and tap-set validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbnn import lfsr
from shiftbnn.lfsr import (
    DEFAULT_TAPS,
    InvalidTaps,
    TapSet,
    ZeroSeed,
    backward_span,
    extend_backward,
    extend_forward,
    gf2_matpow,
    is_maximal,
    new_lfsr,
    orbit_period,
    popcount_state,
    shift_forward,
    shift_reverse,
    state_to_window,
    transition_matrix,
    window_to_state,
)

#: per-sample noise segment sizes of b-mlp (fc1 first) and b-lenet
SEGMENT_SIZES = (313_600, 160_000, 4_000, 450, 2_400, 48_000, 10_080, 840)
#: shipped defaults plus the wrong-tap negative control of verify-equivalence
SCALE_TAPS = [TapSet.default(w) for w in (8, 16, 24, 256)] + [TapSet(256, (1, 2, 3, 256))]


def block_sizes(n: int) -> list[int]:
    """Segment sizes, plus n * 2^j - 1, n * 2^j and n * 2^j + 1 up to fc1's."""
    edges = {(n << j) + d for j in range(SEGMENT_SIZES[0].bit_length())
             if n << j <= SEGMENT_SIZES[0] for d in (-1, 0, 1)}
    return sorted(edges | set(SEGMENT_SIZES))


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

    @pytest.mark.parametrize("width", [8, 16, 24, 256])
    def test_extend_backward_matches_scalar(self, width):
        ts = TapSet.default(width)
        s = new_lfsr(width, ts, 12345 % ((1 << width) - 1) + 1)
        for _ in range(900):
            s, _, _ = shift_forward(s)
        k = 700
        bits = extend_backward(state_to_window(s), k, ts)
        scalar = []
        for _ in range(k):
            s, tail_in, _ = shift_reverse(s)
            scalar.append(tail_in)
        # scalar reverse yields stream bits newest-first
        assert bits.tolist() == scalar[::-1]

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
        equals M^k applied to the start register, and extending backward
        then forward gives back the same bits.  Written into a caller's
        buffer that is longer than needed and holds the previous block's
        bits, both directions return the bits of a fresh call."""
        n = taps.width
        rng = np.random.default_rng(n)
        window = rng.integers(0, 2, size=(3, n), dtype=np.uint8)
        m = transition_matrix(taps)
        sizes = block_sizes(n)
        # backward_span(k) >= n + k covers the forward need too
        longest = max(backward_span(k, taps) for k in sizes)
        dirty = rng.integers(0, 2, size=(3, longest + 1), dtype=np.uint8)
        for k in sizes:
            ext = extend_forward(window, k, taps)
            final = np.concatenate([window, ext], axis=1)[:, -n:]
            # R_1..R_n is the window read from its end
            expect = gf2_matpow(m, k).astype(np.int64) @ window[:, ::-1].T % 2
            assert np.array_equal(final[:, ::-1], expect.T), k
            back = extend_backward(window, k, taps)
            full = np.concatenate([back, window], axis=1)
            assert np.array_equal(extend_forward(full[:, :n], k, taps), full[:, n:]), k

            got = extend_forward(window, k, taps, out=dirty)
            assert np.shares_memory(got, dirty), k
            assert np.array_equal(dirty[:, : n + k], np.concatenate([window, ext], axis=1)), k
            got = extend_backward(window, k, taps, out=dirty)
            assert np.shares_memory(got, dirty), k
            assert np.array_equal(dirty[:, : k + n], full), k

    def test_fill_passes_counts_fill(self, monkeypatch):
        """Every pass count ``_reverse_scale`` weighs, for both fills of
        ``extend_backward`` at every scale it tries, is the number of
        passes ``_fill`` makes."""
        passes, asked = lfsr._fill_passes, set()

        def recording(known, total, taps):
            asked.add((known, total, taps))
            return passes(known, total, taps)

        monkeypatch.setattr(lfsr, "_fill_passes", recording)
        for taps in SCALE_TAPS:
            for k in block_sizes(taps.width):
                lfsr._reverse_scale.__wrapped__(k, taps)
        monkeypatch.undo()
        assert {ts for _, _, ts in asked} >= set(SCALE_TAPS)
        buf = np.zeros(max(total for _, total, _ in asked), np.uint8)
        for known, total, taps in asked:
            assert lfsr._fill(buf[:total], known, taps) == passes(known, total, taps), (
                known, total, taps)

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

    @pytest.mark.parametrize("width", [8, 12, 16, 24])
    def test_divisor_test_agrees(self, width):
        assert is_maximal(TapSet.default(width))

    def test_divisor_test_rejects_non_maximal(self):
        # x^8 + x^4 + 1 style taps split the state space into short orbits
        assert not is_maximal(TapSet(8, (4, 8)))

    def test_transition_matrix_one_step(self):
        ts = TapSet.default(8)
        s = new_lfsr(8, ts, 0b1011_0010)
        vec = np.array([s.register(i) for i in range(1, 9)], dtype=np.uint8)
        m = transition_matrix(ts)
        nxt, _, _ = shift_forward(s)
        expect = np.array([nxt.register(i) for i in range(1, 9)], dtype=np.uint8)
        assert np.array_equal((m @ vec) % 2, expect)

    def test_matrix_power_order(self):
        ts = TapSet.default(8)
        m = transition_matrix(ts)
        assert np.array_equal(gf2_matpow(m, 255), np.eye(8, dtype=np.uint8))
        assert not np.array_equal(gf2_matpow(m, 85), np.eye(8, dtype=np.uint8))


def test_popcount_oracle():
    ts = TapSet.default(16)
    s = new_lfsr(16, ts, 0b1010_1100_0011_0101)
    assert popcount_state(s) == 8
