"""Reverse schedules, kernel-flip reconstruction and the (unused) ledger."""

import numpy as np
import pytest

from shiftbnn import nn
from shiftbnn.train import TrainConfig, build_toyconv
from shiftbnn.replay import (
    GenerationLedger,
    LedgerMismatch,
    NonContiguousSegment,
    SegmentRecord,
    assemble_reverse_conv,
    canonical_forward_order,
    fc_reverse_schedule,
    replay_conv_backward_data,
    reverse_schedule,
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


class TestSchedules:
    def test_forward_order_conv(self):
        order = list(canonical_forward_order("conv", (2, 2, 1)))
        # m outer, n, then row-major kernel slot
        assert order[:4] == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3)]
        assert order[4] == (1, 0, 0)
        assert len(order) == 8

    def test_forward_order_fc(self):
        assert list(canonical_forward_order("fc", (2, 3))) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_reverse_schedule_flips_slots(self):
        slots = list(reverse_schedule((3, 1, 1)))
        # reverse of draw order k=8..0, reported as flipped slot 8-k
        assert [s[2] for s in slots] == list(range(9))

    def test_reverse_is_reversed_forward(self):
        fwd = list(canonical_forward_order("conv", (2, 3, 2)))
        rev = list(reverse_schedule((2, 3, 2)))
        assert [(m, n, 3 - fk) for m, n, fk in rev] == fwd[::-1]

    def test_fc_reverse(self):
        assert list(fc_reverse_schedule((2, 3))) == [
            (1, 2), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0)]

    def test_trainer_layers_draw_in_canonical_order(self):
        # a layer's block of counts is reshaped to mu's shape in C order
        model = build_toyconv()
        model.init_params(TrainConfig())
        for _, layer in model.bayes_layers():
            order = list(canonical_forward_order(layer.kind, layer.geometry))
            if layer.kind == "conv":
                order = [(m, n) + divmod(ki, layer.K) for m, n, ki in order]
                schedule = reverse_schedule
            else:
                schedule = fc_reverse_schedule
            assert order == list(np.ndindex(layer.mu.shape))
            assert len(list(schedule(layer.geometry))) == layer.weight_count

    def test_kind_mismatch(self):
        # an fc geometry has no kernel extent for the conv schedule
        with pytest.raises(ValueError):
            list(reverse_schedule((2, 3)))


class TestKernelFlip:
    def test_assembled_kernel_is_rot180_of_arrival_order(self):
        rng = np.random.default_rng(0)
        k, m, n = 3, 2, 2
        forward = rng.standard_normal((m, n, k, k))
        flat = forward.reshape(m, n, k * k)
        drawn = np.array([flat[mi, ni, ki]
                          for mi, ni, ki in canonical_forward_order("conv", (k, m, n))])
        retrieved = drawn[::-1]
        # writing arrivals straight through the schedule's flipped slots
        # produces the rotated kernels
        rotated = np.empty_like(forward)
        rflat = rotated.reshape(m, n, k * k)
        for value, (mi, ni, fki) in zip(retrieved, reverse_schedule((k, m, n))):
            rflat[mi, ni, fki] = value
        assert np.array_equal(rotated, forward[:, :, ::-1, ::-1])
        # the helper un-flips back to the forward kernels
        assert np.array_equal(assemble_reverse_conv((k, m, n), retrieved), forward)

    @pytest.mark.parametrize("stride,pad,hw", [(1, 0, 8), (1, 1, 8), (2, 1, 7)])
    def test_replay_backward_data_matches_direct(self, stride, pad, hw):
        rng = np.random.default_rng(1)
        k, m, n = 3, 4, 3
        w = rng.standard_normal((m, n, k, k))
        x = rng.standard_normal((n, hw, hw))
        e = rng.standard_normal(nn.conv_forward(x, w, stride, pad).shape)
        drawn = np.array([w.reshape(m, n, k * k)[mi, ni, ki]
                          for mi, ni, ki in canonical_forward_order("conv", (k, m, n))])
        replayed = replay_conv_backward_data((k, m, n), drawn[::-1], e,
                                             (hw, hw), stride, pad)
        direct = nn.conv_backward_data(e, w, (hw, hw), stride, pad)
        assert np.allclose(replayed, direct, atol=1e-12)

    def test_length_mismatch_detected(self):
        with pytest.raises(ValueError):
            assemble_reverse_conv((3, 2, 2), np.zeros(5))
