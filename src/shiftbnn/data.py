"""Dataset ingestion: IDX image/label files and a synthetic generator.

IDX is the little big-endian format used by the classic handwritten-digit
distribution: u32 magic, u32 count, then for images u32 rows and u32
cols followed by raw u8 pixels.  Pixels are normalized to [0, 1] floats;
labels come back as int64 class indices.

The synthetic source exists so the pipeline can be exercised without any
files on disk: class k's examples are noisy renditions of a fixed random
template, which a small network separates easily.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class BadMagic(ValueError):
    pass


class TruncatedFile(ValueError):
    pass


class CountMismatch(ValueError):
    pass


def _open_binary(path):
    """Plain or gzip-compressed file, picked by extension."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


# read_exact's largest single read: a header may claim far more bytes than
# its file holds, and one read of the claim would allocate all of it first
_READ_CHUNK = 1 << 20


def read_exact(f, nbytes: int, what: str) -> bytes:
    """``nbytes`` bytes of ``f``, or TruncatedFile when the file ends first."""
    chunks = []
    left = nbytes
    while left:
        chunk = f.read(min(left, _READ_CHUNK))
        if not chunk:
            raise TruncatedFile(f"{what}: wanted {nbytes} bytes, got {nbytes - left}")
        chunks.append(chunk)
        left -= len(chunk)
    return b"".join(chunks)


def read_idx_images(path) -> np.ndarray:
    """[count, rows, cols] float32 array scaled to [0, 1]."""
    with _open_binary(path) as f:
        magic, count, rows, cols = struct.unpack(">IIII", read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise BadMagic(f"image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        raw = read_exact(f, count * rows * cols, "image data")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    return pixels.astype(np.float32) / 255.0


def read_idx_labels(path) -> np.ndarray:
    with _open_binary(path) as f:
        magic, count = struct.unpack(">II", read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise BadMagic(f"label magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        raw = read_exact(f, count, "label data")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def write_idx_images(path, images: np.ndarray) -> None:
    """Inverse of read_idx_images (u8 quantized); used by tests and tools."""
    arr = np.clip(np.asarray(images) * 255.0, 0, 255).astype(np.uint8)
    count, rows, cols = arr.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, count, rows, cols))
        f.write(arr.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, arr.size))
        f.write(arr.tobytes())


def synthetic_dataset(seed: int, count: int, dims: tuple[int, ...],
                      classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic template-plus-noise classification set in [0, 1]."""
    rng = np.random.default_rng(seed)
    templates = rng.random((classes,) + tuple(dims))
    labels = rng.integers(0, classes, size=count)
    noise = rng.normal(0.0, 0.15, size=(count,) + tuple(dims))
    images = np.clip(templates[labels] + noise, 0.0, 1.0).astype(np.float32)
    return images, labels.astype(np.int64)


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """(examples in [0,1], integer labels) from an IDX pair; counts are
    cross-checked."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if len(images) != len(labels):
        raise CountMismatch(f"{len(images)} images vs {len(labels)} labels")
    return images, labels
