"""IDX parsing, synthetic generation and dataset-level validation."""

import gzip
import io
import struct

import numpy as np
import pytest

from shiftbnn import data
from shiftbnn.data import (
    IDX_IMAGES_MAGIC,
    BadMagic,
    CountMismatch,
    TruncatedFile,
    load_idx,
    read_exact,
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

    @pytest.mark.parametrize("labels,first", [([300, 3], "300 at index 0"),
                                              ([3, -1, 999], "-1 at index 1")])
    def test_labels_outside_a_byte_rejected(self, tmp_path, labels, first):
        lp = tmp_path / "lbls.idx"
        with pytest.raises(ValueError, match=f"label {first} is outside 0-255"):
            write_idx_labels(lp, np.array(labels))
        assert not lp.exists()

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

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("which", ["image", "label"])
    def test_bytes_after_the_data_named(self, idx_pair, which, gz):
        path = idx_pair[0 if which == "image" else 1]
        raw = path.read_bytes() + b"\x00"
        if gz:
            path = path.with_name(path.name + ".gz")
            raw = gzip.compress(raw)
        path.write_bytes(raw)
        read = read_idx_images if which == "image" else read_idx_labels
        with pytest.raises(CountMismatch,
                           match=f"{which} file has bytes after what its header counts"):
            read(path)

    @pytest.mark.parametrize("name", ["imgs.idx", "imgs.idx.gz"])
    def test_oversized_claim_is_truncated(self, tmp_path, name):
        # the header claims (2^32 - 1)^3 pixels; the file holds 16
        big = 2 ** 32 - 1
        raw = struct.pack(">IIII", IDX_IMAGES_MAGIC, big, big, big) + bytes(16)
        path = tmp_path / name
        path.write_bytes(gzip.compress(raw) if name.endswith(".gz") else raw)
        with pytest.raises(TruncatedFile, match=f"image data: wanted {big ** 3} bytes, got 16"):
            read_idx_images(path)

    @pytest.mark.parametrize("which", ["image", "label"])
    @pytest.mark.parametrize("cut,where", [("half", "data"), ("trailer", "file")])
    def test_gzip_cut_short_is_truncated(self, idx_pair, tmp_path, which, cut, where):
        # half the stream ends inside the data; without its 8-byte trailer,
        # the data reads whole and the check for its end hits the cut
        raw = gzip.compress(idx_pair[0 if which == "image" else 1].read_bytes())
        path = tmp_path / "cut.idx.gz"
        path.write_bytes(raw[:len(raw) // 2] if cut == "half" else raw[:-8])
        read = read_idx_images if which == "image" else read_idx_labels
        with pytest.raises(TruncatedFile, match=f"{which} {where}: Compressed file ended"):
            read(path)

    @pytest.mark.parametrize("which", ["image", "label"])
    def test_corrupt_deflate_data_is_bad_gzip(self, idx_pair, tmp_path, which):
        raw = bytearray(gzip.compress(idx_pair[0 if which == "image" else 1].read_bytes()))
        raw[10] = 0xFF  # the first deflate byte: an invalid block type
        path = tmp_path / "bad.idx.gz"
        path.write_bytes(raw)
        read = read_idx_images if which == "image" else read_idx_labels
        with pytest.raises(gzip.BadGzipFile, match=f"{which} header: .*invalid block type"):
            read(path)

    @pytest.mark.parametrize("which", ["image", "label"])
    @pytest.mark.parametrize("damage,message", [
        pytest.param("crc", "file: CRC check failed 0x0 != 0x", id="crc"),
        pytest.param("magic", "header: Not a gzipped file", id="magic")])
    def test_gzip_rejected_by_gzip_is_named(self, idx_pair, tmp_path, which, damage, message):
        # gzip's own checks: the CRC trailer fails once the data is read
        # whole, the magic bytes on the first read
        raw = bytearray(gzip.compress(idx_pair[0 if which == "image" else 1].read_bytes()))
        if damage == "crc":
            raw[-8:-4] = bytes(4)
        else:
            raw[:2] = bytes(2)
        path = tmp_path / "bad.idx.gz"
        path.write_bytes(raw)
        read = read_idx_images if which == "image" else read_idx_labels
        with pytest.raises(gzip.BadGzipFile, match=f"^{which} {message}"):
            read(path)

    def test_reads_in_bounded_chunks(self):
        asked = []

        class Source(io.BytesIO):
            def read(self, size=-1):
                asked.append(size)
                return super().read(size)

        claim = 2 ** 30
        with pytest.raises(TruncatedFile, match=f"wanted {claim} bytes, got 5"):
            read_exact(Source(bytes(5)), claim, "claim")
        assert max(asked) <= data._READ_CHUNK < claim

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
