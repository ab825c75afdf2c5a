"""IDX parsing, synthetic generation and dataset-level validation."""

import gzip
import struct

import numpy as np
import pytest

from shiftbnn.data import (
    BadMagic,
    CountMismatch,
    TruncatedFile,
    load_idx,
    read_idx_images,
    read_idx_labels,
    synthetic_dataset,
    write_idx_images,
    write_idx_labels,
)


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.random((12, 5, 5)).astype(np.float32)
    labels = rng.integers(0, 10, 12)
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "lbls.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp, labels


class TestIdx:
    def test_roundtrip(self, idx_pair):
        ip, lp, labels = idx_pair
        images = read_idx_images(ip)
        assert images.shape == (12, 5, 5)
        assert images.dtype == np.float32
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert np.array_equal(read_idx_labels(lp), labels)

    def test_gzip_transparent(self, idx_pair, tmp_path):
        ip, _, _ = idx_pair
        gz = tmp_path / "imgs.idx.gz"
        gz.write_bytes(gzip.compress(ip.read_bytes()))
        assert np.array_equal(read_idx_images(gz), read_idx_images(ip))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">IIII", 0x12345678, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(BadMagic):
            read_idx_images(p)
        with pytest.raises(BadMagic):
            read_idx_labels(p)

    def test_truncated(self, idx_pair):
        ip, lp, _ = idx_pair
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-10])
        with pytest.raises(TruncatedFile):
            read_idx_images(ip)
        raw = lp.read_bytes()
        lp.write_bytes(raw[:4])
        with pytest.raises(TruncatedFile):
            read_idx_labels(lp)

    def test_count_mismatch(self, idx_pair, tmp_path):
        ip, lp, labels = idx_pair
        assert np.array_equal(load_idx(ip, lp)[1], labels)
        lp = tmp_path / "short.idx"
        write_idx_labels(lp, np.zeros(5, dtype=np.int64))
        with pytest.raises(CountMismatch):
            load_idx(ip, lp)


class TestSynthetic:
    def test_deterministic(self):
        a = synthetic_dataset(7, 64, (6, 6), 3)
        b = synthetic_dataset(7, 64, (6, 6), 3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_seed_changes_data(self):
        a = synthetic_dataset(7, 64, (6, 6), 3)
        c = synthetic_dataset(8, 64, (6, 6), 3)
        assert not np.array_equal(a[0], c[0])

    def test_ranges(self):
        x, y = synthetic_dataset(0, 100, (4, 4), 5)
        assert x.shape == (100, 4, 4)
        assert x.min() >= 0 and x.max() <= 1
        assert set(np.unique(y)) <= set(range(5))
