"""Generation-order bookkeeping and reverse scheduling for noise retrieval.

The forward pass draws one Gaussian variable per weight in a frozen
canonical order (conv: output channel m outer, input channel n, then
row-major kernel slot; fc: out-major, in-minor).  The ledger records one
segment per (layer, sample) so the backward pass can retrieve exactly the
same draws in reverse, mapping each retrieved position to its
180-degree-flipped kernel slot.  A segment holds only counts and
geometry: the draws themselves come back by shifting the stream in
reverse (``GrngStream.retrieve_block``), so nothing about them is stored.

Because the backward traversal reorganizes kernels across the channel
dimensions, contributions to one input-channel error map arrive in
bursts separated by other output channels; ``replay_conv_backward_data``
demonstrates the required intermittent accumulation into persistent
per-channel buffers and must agree with ``nn.conv_backward_data``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np


class NonContiguousSegment(ValueError):
    """Segment does not follow the previous one in stream position."""


class LedgerMismatch(RuntimeError):
    """Retrieved draw count disagrees with the recorded segment."""


@dataclass(frozen=True)
class SegmentRecord:
    layer_id: int
    sample_id: int
    kind: str  # "conv" | "fc"
    counts: int
    geometry: tuple[int, ...]  # (K, M, N) for conv, (out, in) for fc
    traversal: str  # order tag, e.g. "m-n-rowmajor" / "out-in"
    # stream position before the segment's first draw, for the contiguity
    # check; no register state is kept, the backward pass recovers every
    # draw by reverse shifting
    start_position: int = 0

    def __post_init__(self):
        if self.kind == "conv":
            k, m, n = self.geometry
            expect = k * k * m * n
        elif self.kind == "fc":
            out, in_ = self.geometry
            expect = out * in_
        else:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.counts != expect:
            raise NonContiguousSegment(
                f"counts {self.counts} inconsistent with geometry {self.geometry}"
            )


@dataclass
class GenerationLedger:
    """Ordered, contiguous segments per sample stream."""

    segments: dict[int, list[SegmentRecord]] = field(default_factory=dict)

    def record_segment(self, record: SegmentRecord) -> None:
        chain = self.segments.setdefault(record.sample_id, [])
        expected = chain[-1].start_position + chain[-1].counts if chain else record.start_position
        if record.start_position != expected:
            raise NonContiguousSegment(
                f"segment starts at {record.start_position}, expected {expected}"
            )
        chain.append(record)

    def sample_segments(self, sample_id: int) -> list[SegmentRecord]:
        return self.segments.get(sample_id, [])

    def layer_segment(self, layer_id: int, sample_id: int) -> SegmentRecord:
        for rec in self.segments.get(sample_id, []):
            if rec.layer_id == layer_id:
                return rec
        raise LedgerMismatch(f"no segment for layer {layer_id}, sample {sample_id}")

    def total(self, sample_id: int) -> int:
        return sum(r.counts for r in self.segments.get(sample_id, []))

    def clear(self) -> None:
        self.segments.clear()

    def dump_lines(self) -> list[str]:
        lines = []
        for sample_id in sorted(self.segments):
            for r in self.segments[sample_id]:
                geom = "x".join(str(g) for g in r.geometry)
                lines.append(f"{r.layer_id},{r.sample_id},{r.kind},{r.counts},{geom}")
        return lines


def canonical_forward_order(kind: str, geometry: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Draw order of the forward pass, one tuple per Gaussian variable.

    conv geometry (K, M, N) yields (m, n, k) with k the row-major kernel
    slot in [0, K^2); fc geometry (out, in) yields (out_idx, in_idx).
    All indices 0-based.
    """
    if kind == "conv":
        k, m, n = geometry
        for mi in range(m):
            for ni in range(n):
                for ki in range(k * k):
                    yield (mi, ni, ki)
    elif kind == "fc":
        out, in_ = geometry
        for oi in range(out):
            for ii in range(in_):
                yield (oi, ii)
    else:
        raise ValueError(f"unknown kind {kind!r}")


def reverse_schedule(ledger: GenerationLedger, layer_id: int,
                     sample_id: int = 0) -> Iterator[tuple[int, int, int]]:
    """Retrieval slots for a conv layer, in exact reverse draw order.

    Yields (m, n, flipped_k) where flipped_k = K^2 - 1 - k is the
    180-degree-rotated kernel slot: consuming the retrieved values in
    arrival order writes the rotated kernel directly.
    """
    rec = ledger.layer_segment(layer_id, sample_id)
    if rec.kind != "conv":
        raise LedgerMismatch(f"layer {layer_id} is {rec.kind}, expected conv")
    k, m, n = rec.geometry
    kk = k * k
    produced = 0
    for mi in range(m - 1, -1, -1):
        for ni in range(n - 1, -1, -1):
            for ki in range(kk - 1, -1, -1):
                yield (mi, ni, kk - 1 - ki)
                produced += 1
    if produced != rec.counts:
        raise LedgerMismatch(f"retrieved {produced}, recorded {rec.counts}")


def fc_reverse_schedule(ledger: GenerationLedger, layer_id: int,
                        sample_id: int = 0) -> Iterator[tuple[int, int]]:
    """Retrieval slots for an fc layer: reversed traversal, no flipping."""
    rec = ledger.layer_segment(layer_id, sample_id)
    if rec.kind != "fc":
        raise LedgerMismatch(f"layer {layer_id} is {rec.kind}, expected fc")
    out, in_ = rec.geometry
    produced = 0
    for oi in range(out - 1, -1, -1):
        for ii in range(in_ - 1, -1, -1):
            yield (oi, ii)
            produced += 1
    if produced != rec.counts:
        raise LedgerMismatch(f"retrieved {produced}, recorded {rec.counts}")


def assemble_reverse_conv(ledger: GenerationLedger, layer_id: int, sample_id: int,
                          retrieved: np.ndarray) -> np.ndarray:
    """Scatter retrieved values (reverse order) into a [M,N,K,K] array.

    Reading the retrieval stream in arrival order and writing through the
    flipped slots produces the 180-degree-rotated kernels; this helper
    instead un-flips so the result equals the forward-sampled kernels,
    which is the handy form for reconstruction checks.
    """
    rec = ledger.layer_segment(layer_id, sample_id)
    k, m, n = rec.geometry
    if len(retrieved) != rec.counts:
        raise LedgerMismatch(f"got {len(retrieved)} values, recorded {rec.counts}")
    out = np.empty((m, n, k, k), dtype=np.asarray(retrieved).dtype)
    flat = out.reshape(m, n, k * k)
    for value, (mi, ni, fki) in zip(retrieved, reverse_schedule(ledger, layer_id, sample_id)):
        flat[mi, ni, k * k - 1 - fki] = value
    return out


def replay_conv_backward_data(ledger: GenerationLedger, layer_id: int, sample_id: int,
                              retrieved_weights: np.ndarray, errors: np.ndarray,
                              in_hw: tuple[int, int], stride: int = 1,
                              pad: int = 0) -> np.ndarray:
    """Input-error maps driven directly by the reverse schedule.

    ``retrieved_weights`` are the sampled weights in retrieval order (as
    the function units would reconstruct them from retrieved epsilons).
    Each arrival contributes one flipped-kernel slot's worth of partial
    sums; per-input-channel buffers persist across the M-separated bursts
    (intermittent accumulation).  Must equal nn.conv_backward_data on the
    materialized forward kernels.
    """
    rec = ledger.layer_segment(layer_id, sample_id)
    k, _, n_ch = rec.geometry
    h, w = in_hw
    r, c = errors.shape[-2:]
    acc = np.zeros((n_ch, h + 2 * pad, w + 2 * pad), dtype=errors.dtype)
    for value, (mi, ni, fki) in zip(retrieved_weights,
                                    reverse_schedule(ledger, layer_id, sample_id)):
        # flipped slot fki corresponds to forward slot k^2-1-fki
        ki = k * k - 1 - fki
        kr, kc = divmod(ki, k)
        acc[ni, kr : kr + r * stride : stride, kc : kc + c * stride : stride] += (
            value * errors[mi]
        )
    if pad:
        acc = acc[:, pad:-pad, pad:-pad]
    return acc
