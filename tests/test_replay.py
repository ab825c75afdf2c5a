"""The generation ledger, which only the benchmark's tracer still wraps."""

import pytest

from shiftbnn.replay import (
    GenerationLedger,
    LedgerMismatch,
    NonContiguousSegment,
    SegmentRecord,
)


def conv_record(layer_id=0, sample_id=0, k=3, m=2, n=2, start=0):
    return SegmentRecord(layer_id=layer_id, sample_id=sample_id, kind="conv",
                         counts=k * k * m * n, geometry=(k, m, n),
                         start_position=start)


class TestLedger:
    def test_counts_validated_against_geometry(self):
        with pytest.raises(NonContiguousSegment):
            SegmentRecord(0, 0, "conv", 17, (3, 2, 2))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SegmentRecord(0, 0, "pool", 4, (2, 2))

    def test_contiguity_enforced(self):
        ledger = GenerationLedger()
        ledger.record_segment(conv_record(layer_id=0, start=0))
        with pytest.raises(NonContiguousSegment):
            ledger.record_segment(conv_record(layer_id=1, start=17))

    def test_chain_and_total(self):
        ledger = GenerationLedger()
        ledger.record_segment(conv_record(layer_id=0, start=0))
        ledger.record_segment(conv_record(layer_id=1, start=36))
        assert ledger.total(0) == 72
        assert ledger.layer_segment(1, 0).start_position == 36
        with pytest.raises(LedgerMismatch):
            ledger.layer_segment(5, 0)

    def test_samples_independent(self):
        ledger = GenerationLedger()
        ledger.record_segment(conv_record(sample_id=0))
        ledger.record_segment(conv_record(sample_id=1))
        assert len(ledger.sample_segments(0)) == 1
        assert len(ledger.sample_segments(1)) == 1
