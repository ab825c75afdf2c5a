"""The generation ledger: contiguous per-sample segments of draws.

Nothing in the package uses it.  The trainer keeps no record of its
draws: each layer's weight count says how many to shift back, and a conv
layer's draws, taken back by reverse shifting, arrive as its
180-degree-rotated kernels.  The ledger stays because the benchmark's
tracer (perfbench/tracer.py) wraps ``record_segment``, ``layer_segment``
and ``clear`` by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
