"""Gaussian stream behavior: incremental sums, retrieval, block engine."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbnn.data import TruncatedFile
from shiftbnn.grng import (
    GrngStream,
    UnderflowBeforeSeed,
    counts_to_eps,
    derive_seed,
    grng_init,
    mix64,
    read_epsilon_log,
    write_epsilon_log,
)
from shiftbnn.lfsr import TapSet, new_lfsr, popcount_state


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

    @pytest.mark.parametrize("n", [8, 12, 256])
    def test_without_out_is_float64(self, n):
        counts = np.arange(n + 1, dtype=np.uint16)
        eps = counts_to_eps(counts, n)
        assert eps.dtype == np.float64
        expect = (counts.astype(np.float64) - n / 2) / np.sqrt(n / 4)
        assert eps.tobytes() == expect.tobytes()


class TestIncrementalSum:
    def test_forward_updates_match_popcount(self, stream):
        for _ in range(500):
            count = stream.generate_forward()
            assert stream.running_sum == popcount_state(stream.lfsr)
            assert count == stream.running_sum

    def test_mixed_walk_matches_popcount(self, stream):
        rng = np.random.default_rng(42)
        for _ in range(5000):
            if stream.position == 0 or rng.random() < 0.6:
                stream.generate_forward()
            else:
                stream.retrieve_backward()
            assert stream.running_sum == popcount_state(stream.lfsr)

    def test_retrieval_returns_last_generated(self, stream):
        forward = [stream.generate_forward() for _ in range(100)]
        backward = [stream.retrieve_backward() for _ in range(100)]
        assert backward == forward[::-1]
        assert stream.position == 0

    def test_underflow_guard(self, stream):
        stream.generate_forward()
        stream.retrieve_backward()
        with pytest.raises(UnderflowBeforeSeed):
            stream.retrieve_backward()


class TestBlockEngine:
    def test_generate_block_matches_scalar(self):
        a = grng_init(3, 1, TapSet.default(256))
        b = grng_init(3, 1, TapSet.default(256))
        block = a.generate_block(777)
        scalar = np.array([b.generate_forward() for _ in range(777)])
        assert np.array_equal(block, scalar)
        assert a.lfsr == b.lfsr
        assert a.running_sum == b.running_sum

    def test_retrieve_block_matches_scalar(self):
        a = grng_init(3, 2, TapSet.default(256))
        b = grng_init(3, 2, TapSet.default(256))
        a.generate_block(500)
        for _ in range(500):
            b.generate_forward()
        block = a.retrieve_block(500)
        scalar = np.array([b.retrieve_backward() for _ in range(500)])
        assert np.array_equal(block, scalar)
        assert a.lfsr == b.lfsr

    @pytest.mark.parametrize("k", [313_600, 450])  # b-mlp fc1, b-lenet conv1
    def test_round_trip_restores_start(self, k):
        a = grng_init(9, 0, TapSet.default(256))
        start = a.lfsr
        drawn = a.generate_block(k)
        back = a.retrieve_block(k)
        assert np.array_equal(back, drawn[::-1])
        assert a.lfsr == start
        assert a.running_sum == popcount_state(start)

    def test_negative_block_size_rejected(self):
        a = grng_init(0, 0, TapSet.default(256))
        a.generate_block(10)
        before = (a.lfsr, a.running_sum)
        for block in (a.generate_block, a.retrieve_block):
            with pytest.raises(ValueError, match="k must be >= 0"):
                block(-3)
        assert (a.lfsr, a.running_sum) == before

    def test_empty_blocks_change_nothing(self):
        a = grng_init(0, 0, TapSet.default(256))
        a.generate_block(10)
        before = (a.lfsr, a.running_sum)
        for block in (a.generate_block, a.retrieve_block):
            counts = block(0)
            assert counts.dtype == np.uint16 and counts.size == 0
            assert (a.lfsr, a.running_sum) == before

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
        bits, steps = scratch._bits, scratch._steps
        round_trip()
        assert a.scratch is scratch
        assert scratch._bits is bits and scratch._steps is steps

    def test_block_underflow(self):
        a = grng_init(0, 0, TapSet.default(256))
        a.generate_block(5)
        with pytest.raises(UnderflowBeforeSeed):
            a.retrieve_block(6)

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
        stream = GrngStream(new_lfsr(16, taps, 1))
        period = (1 << 16) - 1
        counts = stream.generate_block(period)
        observed = np.bincount(counts, minlength=17)
        words = np.arange(1, 1 << 16, dtype=np.uint32)
        expected = np.bincount(
            np.unpackbits(words.view(np.uint8).reshape(-1, 4), axis=1)[:, :].sum(axis=1),
            minlength=17)
        assert np.array_equal(observed, expected)


class TestEpsilonLog:
    def test_roundtrip(self, tmp_path):
        counts = np.array([1, 2, 255, 130], dtype=np.uint16)
        path = tmp_path / "x.epsl"
        write_epsilon_log(path, 256, counts)
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
        write_epsilon_log(path, 256, np.arange(10, dtype=np.uint16))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError):
            read_epsilon_log(path)

    def test_truncated_header_named(self, tmp_path):
        path = tmp_path / "t.epsl"
        write_epsilon_log(path, 256, np.arange(10, dtype=np.uint16))
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated epsilon log header"):
            read_epsilon_log(path)

    def test_oversized_count_is_truncated(self, tmp_path):
        # a count of 2^63 claims 2^64 bytes; the file holds 8
        path = tmp_path / "t.epsl"
        path.write_bytes(b"EPSL" + struct.pack("<IIQ", 1, 256, 2 ** 63) + bytes(8))
        with pytest.raises(TruncatedFile, match="truncated epsilon log counts"):
            read_epsilon_log(path)
