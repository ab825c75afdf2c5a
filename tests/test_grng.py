"""Gaussian stream behavior: block counts against a popcount of the register
stepped by single shifts, retrieval, the block engine."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbnn.data import CountMismatch, TruncatedFile
from shiftbnn.grng import (
    BlockScratch,
    GrngStream,
    UnderflowBeforeSeed,
    counts_to_eps,
    derive_seed,
    grng_init,
    _window_counts,
    mix64,
    read_epsilon_log,
    write_epsilon_header,
)
from shiftbnn.lfsr import (
    DEFAULT_TAPS,
    TapSet,
    new_lfsr,
    popcount_state,
    shift_forward,
    shift_reverse,
)


@pytest.fixture
def stream():
    return grng_init(master_seed=0, stream_id=0, taps=TapSet.default(256))


class TestSeedDerivation:
    def test_mix64_zero_fixed_point(self):
        assert mix64(0) == 0

    def test_mix64_avalanche(self):
        # flipping any single input bit should flip roughly half the output
        base = mix64(0xDEADBEEFCAFEF00D)
        flips = [bin(base ^ mix64(0xDEADBEEFCAFEF00D ^ (1 << i))).count("1")
                 for i in range(64)]
        assert min(flips) > 10
        assert 24 < sum(flips) / 64 < 40

    def test_nonzero_and_in_range(self):
        for master in (0, 1, 2**63):
            for sid in range(8):
                seed = derive_seed(master, sid, 256)
                assert 0 < seed < (1 << 256)

    def test_streams_disjoint(self):
        seeds = {derive_seed(0, i, 256) for i in range(64)}
        assert len(seeds) == 64

    def test_word_zero_in_low_bits(self):
        base = 5 + 2 * 0x9E3779B97F4A7C15
        assert derive_seed(5, 2, 256) & ((1 << 64) - 1) == mix64(base & ((1 << 64) - 1))

    @pytest.mark.xfail(strict=True, reason=(
        "mix64(0) == 0 leaves master seed 0's stream 0 a zero low word; "
        "ROADMAP item 2b changes the seed derivation with every stream"))
    @pytest.mark.parametrize("width", [64, 256])
    def test_every_word_of_seed_zero_has_16_ones(self, width):
        """Master seeds 1-49 on streams 0-7 have at least 20 ones in every
        64-bit word; master seed 0's stream 0 has 0 (width 256) or 1 (width
        64, where the all-zero word becomes seed 1)."""
        seed = derive_seed(0, 0, width)
        assert min((seed >> (64 * j) & (1 << 64) - 1).bit_count()
                   for j in range(width // 64)) >= 16


class TestStandardization:
    def test_midpoint_maps_to_zero(self):
        assert counts_to_eps(np.array([128]), 256)[0] == 0.0

    def test_quantization_step(self):
        eps = counts_to_eps(np.array([128, 129, 127]), 256)
        assert eps[1] == pytest.approx(0.125)
        assert eps[2] == pytest.approx(-0.125)

    def test_extremes(self):
        eps = counts_to_eps(np.array([0, 256]), 256)
        assert eps[0] == -16.0 and eps[1] == 16.0

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_without_out_is_float64(self, n):
        counts = np.arange(n + 1, dtype=np.uint16)
        eps = counts_to_eps(counts, n)
        assert eps.dtype == np.float64
        expect = (counts.astype(np.float64) - n / 2) / np.sqrt(n / 4)
        assert eps.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", [8, 12, 24])
    def test_inexact_width_rejected(self, n):
        # sqrt(n/4) is not a power of two, so no eps would be exact
        with pytest.raises(ValueError, match=f"^width {n}: "):
            counts_to_eps(np.arange(n + 1, dtype=np.uint16), n)

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_exact_widths_equal_the_quotient(self, n, dtype, order):
        # every count, as a plain array and as the reversed view SHIFT
        # hands over; the scaled form must give the quotient's bits
        counts = np.arange(n + 1, dtype=np.uint16)
        if order == "reversed":
            counts = counts[::-1]
        eps = counts_to_eps(counts, n, out=np.empty(counts.shape, dtype))
        expect = ((counts.astype(np.float64) - n / 2) / np.sqrt(n / 4)).astype(dtype)
        assert eps.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_exact_width_allocates_nothing_block_sized(self, order):
        # an fc1 block into a float32 out: no cast buffer (a float64 scale
        # made one of 128 KiB) and no temporary (one of 32 KiB before)
        counts = np.random.default_rng(1).integers(0, 257, 313_600).astype(np.uint16)
        if order == "reversed":
            counts = counts[::-1]
        out = np.empty(counts.size, np.float32)
        tracemalloc.start()
        try:
            counts_to_eps(counts, 256, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024, peak


class TestWindowCounts:
    """Counting by doubling against a direct sum over every window."""

    @pytest.mark.parametrize("n", sorted(DEFAULT_TAPS))
    @pytest.mark.parametrize("fill", ["random", "ones", "zeros"])
    def test_matches_sliding_window_sum(self, n, fill):
        rng = np.random.default_rng(n)
        for k in (0, 1, n - 1, n, n + 1, 4099):
            if fill == "random":
                full = rng.integers(0, 2, n + k, dtype=np.uint8)
            else:
                full = np.full(n + k, fill == "ones", np.uint8)
            # all ones makes every count n: a wrapped uint8 level shows
            expect = np.lib.stride_tricks.sliding_window_view(full, n)[1:].sum(axis=1)
            work = np.full(2 * (n + k), 0xFF, np.uint8)
            counts = _window_counts(full, n, work)
            assert counts.dtype == np.uint16, k
            assert np.array_equal(counts, expect), k


class TestBlockEngine:
    def test_generate_block_matches_scalar(self):
        """Draw i is the popcount of the register after i + 1 single
        forward shifts."""
        a = grng_init(3, 1, TapSet.default(256))
        state, scalar = a.lfsr, []
        for _ in range(777):
            state, _, _ = shift_forward(state)
            scalar.append(popcount_state(state))
        assert np.array_equal(a.generate_block(777), scalar)
        assert a.lfsr == state

    def test_retrieve_block_matches_scalar(self):
        """Retrieval i is the popcount of the register before the (i + 1)th
        single reverse shift: the draws come back last first."""
        a = grng_init(3, 2, TapSet.default(256))
        a.generate_block(500)
        state, scalar = a.lfsr, []
        for _ in range(500):
            scalar.append(popcount_state(state))
            state, _, _ = shift_reverse(state)
        assert np.array_equal(a.retrieve_block(500), scalar)
        assert a.lfsr == state and a.position == 0

    @pytest.mark.parametrize("k", [313_600, 450])  # b-mlp fc1, b-lenet conv1
    def test_round_trip_restores_start(self, k):
        a = grng_init(9, 0, TapSet.default(256))
        start = a.lfsr
        drawn = a.generate_block(k)
        back = a.retrieve_block(k)
        assert np.array_equal(back, drawn[::-1])
        assert a.lfsr == start

    def test_negative_block_size_rejected(self):
        a = grng_init(0, 0, TapSet.default(256))
        a.generate_block(10)
        before = a.lfsr
        for block in (a.generate_block, a.retrieve_block):
            with pytest.raises(ValueError, match="k must be >= 0"):
                block(-3)
        assert a.lfsr == before

    def test_empty_blocks_change_nothing(self):
        a = grng_init(0, 0, TapSet.default(256))
        a.generate_block(10)
        before = a.lfsr
        for block in (a.generate_block, a.retrieve_block):
            counts = block(0)
            assert counts.dtype == np.uint16 and counts.size == 0
            assert a.lfsr == before

    def test_stream_keeps_one_scratch(self):
        a = grng_init(0, 0, TapSet.default(256))
        scratch = a.scratch
        sizes = [4_000, 313_600, 450]

        def round_trip():
            for k in sizes:
                a.generate_block(k)
            for k in reversed(sizes):
                a.retrieve_block(k)

        round_trip()
        buf = scratch._buf
        round_trip()
        assert a.scratch is scratch
        assert scratch._buf is buf

    def test_block_peaks(self):
        """With its scratch grown, a block allocates little beyond its
        2-byte counts, and with ``out`` next to nothing: numpy's 16 KiB
        casting buffer as uint8 window sums add into the uint16 counts, and
        in a retrieval one 64 KiB chunk of unpacked bits."""
        k, taps, scratch = 313_600, TapSet.default(256), BlockScratch()
        scratch.block(k, taps)
        a = grng_init(0, 0, taps, scratch)
        out = np.empty(k, np.uint16)
        for block, into, bound in ((a.generate_block, None, 1.1 * 2 * k),
                                   (a.retrieve_block, None, 1.1 * 2 * k),
                                   (a.generate_block, out, 24 << 10),
                                   (a.retrieve_block, out, 80 << 10)):
            tracemalloc.start()
            try:
                block(k, out=into)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (block.__name__, into is None, peak)

    @pytest.mark.parametrize("width", [256, 24])
    @pytest.mark.parametrize("k", [1, 450, 2 * 65_536 + 3, 313_600])
    def test_out_holds_the_new_arrays_counts(self, width, k):
        """2 * 65,536 + 3 draws unpack in three chunks of packed bytes, the
        first with bits to drop (k is not a multiple of 8)."""
        taps = TapSet.default(width)
        a, b = grng_init(5, 1, taps), grng_init(5, 1, taps)
        for name in ("generate_block", "retrieve_block"):
            out = np.full(k, 0xFFFF, np.uint16)
            got = getattr(a, name)(k, out=out)
            assert np.shares_memory(got, out), name
            assert np.array_equal(got, getattr(b, name)(k)), name
            assert a.lfsr == b.lfsr, name

    @pytest.mark.parametrize("out", [np.zeros(10, np.int16), np.zeros(10, np.float32),
                                     np.zeros(9, np.uint16), np.zeros(11, np.uint16),
                                     np.zeros((10, 1), np.uint16)])
    def test_bad_out_rejected_before_the_stream_moves(self, out):
        a = grng_init(0, 0, TapSet.default(256))
        a.generate_block(20)
        before = a.lfsr
        for block in (a.generate_block, a.retrieve_block):
            with pytest.raises(ValueError, match="out must be uint16 of shape"):
                block(10, out=out)
            assert a.lfsr == before

    def test_block_underflow(self):
        a = grng_init(0, 0, TapSet.default(256))
        a.generate_block(5)
        with pytest.raises(UnderflowBeforeSeed):
            a.retrieve_block(6)

    @pytest.mark.parametrize("k", [1, 450])
    def test_retrieval_stops_at_the_seed(self, stream, k):
        """All k draws come back, ending at position 0; one more raises
        and leaves the register as it was."""
        seed = stream.lfsr
        stream.generate_block(k)
        stream.retrieve_block(k)
        assert stream.position == 0 and stream.lfsr == seed
        at_seed = stream.lfsr
        with pytest.raises(UnderflowBeforeSeed):
            stream.retrieve_block(1)
        assert stream.lfsr is at_seed

    @given(splits=st.lists(st.integers(min_value=1, max_value=200),
                           min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_block_sizes_compose(self, splits):
        total = sum(splits)
        a = grng_init(11, 4, TapSet.default(256))
        b = grng_init(11, 4, TapSet.default(256))
        whole = a.generate_block(total)
        parts = np.concatenate([b.generate_block(k) for k in splits])
        assert np.array_equal(whole, parts)


class TestMoments:
    def test_large_sample_near_standard(self):
        # documented default stream; window counts are autocorrelated so
        # the variance estimate is noisy across seeds
        stream = grng_init(0, 0, TapSet.default(256))
        eps = counts_to_eps(stream.generate_block(1_000_000), 256)
        assert abs(eps.mean()) <= 0.01
        assert 0.98 <= eps.var() <= 1.02

    def test_full_period_counts_width16(self):
        # over one full period the window contents enumerate every nonzero
        # 16-bit word exactly once, so the count histogram must equal the
        # popcount histogram of 1..65535
        taps = TapSet.default(16)
        stream = GrngStream(new_lfsr(taps, 1))
        period = (1 << 16) - 1
        counts = stream.generate_block(period)
        observed = np.bincount(counts, minlength=17)
        words = np.arange(1, 1 << 16, dtype=np.uint32)
        expected = np.bincount(
            np.unpackbits(words.view(np.uint8).reshape(-1, 4), axis=1)[:, :].sum(axis=1),
            minlength=17)
        assert np.array_equal(observed, expected)


def write_log(path, n, counts):
    """An EPSL log as ``verify-equivalence`` writes one: the header, then
    the counts as "<u2"."""
    with open(path, "wb") as f:
        write_epsilon_header(f, n, counts.size)
        f.write(np.ascontiguousarray(counts, "<u2"))


class TestEpsilonLog:
    def test_roundtrip(self, tmp_path):
        counts = np.array([1, 2, 255, 130], dtype=np.uint16)
        path = tmp_path / "x.epsl"
        write_log(path, 256, counts)
        n, back = read_epsilon_log(path)
        assert n == 256
        assert np.array_equal(back, counts)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.epsl"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_epsilon_log(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.epsl"
        write_log(path, 256, np.arange(10, dtype=np.uint16))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError):
            read_epsilon_log(path)

    def test_truncated_header_named(self, tmp_path):
        path = tmp_path / "t.epsl"
        write_log(path, 256, np.arange(10, dtype=np.uint16))
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated epsilon log header"):
            read_epsilon_log(path)

    def test_bytes_after_the_counts_named(self, tmp_path):
        path = tmp_path / "t.epsl"
        write_log(path, 256, np.arange(10, dtype=np.uint16))
        path.write_bytes(path.read_bytes() + bytes(2))
        with pytest.raises(CountMismatch,
                           match="epsilon log has bytes after what its header counts"):
            read_epsilon_log(path)

    def test_oversized_count_is_truncated(self, tmp_path):
        # a count of 2^63 claims 2^64 bytes; the file holds 8
        path = tmp_path / "t.epsl"
        path.write_bytes(b"EPSL" + struct.pack("<IIQ", 1, 256, 2 ** 63) + bytes(8))
        with pytest.raises(TruncatedFile, match="truncated epsilon log counts"):
            read_epsilon_log(path)

    def test_count_above_width_named(self, tmp_path):
        # no 256-bit register holds 257 ones
        path = tmp_path / "t.epsl"
        write_log(path, 256, np.array([128, 256, 257, 300], dtype=np.uint16))
        with pytest.raises(ValueError, match="epsilon log count 2 is 257, above the "
                                             "register width 256"):
            read_epsilon_log(path)
