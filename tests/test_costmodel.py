"""Traffic/footprint/latency accounting and the mapping comparator."""

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbnn.costmodel import (
    CSV_HEADER,
    MAPPINGS,
    MODEL_PRESETS,
    CostParams,
    LayerCost,
    ModelSpec,
    conv_cost,
    dnn_traffic,
    fc_cost,
    footprint,
    latency_energy,
    mapping_overhead,
    read_csv,
    report_rows,
    spec_from_model,
    traffic_per_iteration,
    write_csv,
    _build_vgg16,
)
from shiftbnn.train import MODEL_BUILDERS, TrainConfig, Trainer

P = CostParams()


class TestPresets:
    def test_all_five_present(self):
        assert set(MODEL_PRESETS) == {"b-mlp", "b-lenet", "b-alexnet",
                                      "b-vgg", "b-resnet"}

    def test_mlp_weight_count(self):
        assert MODEL_PRESETS["b-mlp"].total_weights == 784 * 400 + 400 * 400 + 400 * 10

    def test_lenet_layer_consistency(self):
        lenet = MODEL_PRESETS["b-lenet"]
        conv1 = lenet.layers[0]
        assert conv1.weights == 6 * 3 * 5 * 5
        assert conv1.out_acts == 6 * 28 * 28
        assert conv1.macs == conv1.weights * 28 * 28

    @pytest.mark.parametrize("name,layers", [
        # the hand-typed specs the trainer-derived presets replaced
        ("b-mlp", (LayerCost("fc1", "fc", 313_600, 400, 313_600),
                   LayerCost("fc2", "fc", 160_000, 400, 160_000),
                   LayerCost("fc3", "fc", 4_000, 10, 4_000))),
        ("b-lenet", (LayerCost("conv1", "conv", 450, 4_704, 352_800),
                     LayerCost("conv2", "conv", 2_400, 1_600, 240_000),
                     LayerCost("fc1", "fc", 48_000, 120, 48_000),
                     LayerCost("fc2", "fc", 10_080, 84, 10_080),
                     LayerCost("fc3", "fc", 840, 10, 840))),
        ("toy-conv", (conv_cost("conv1", 1, 4, 3, 8), conv_cost("conv2", 4, 8, 3, 2),
                      fc_cost("fc1", 32, 10))),
        # (inputs, outputs, output extent) of VGG-16's 3x3 convs
        ("b-vgg", tuple(conv_cost(f"conv{i + 1}", n, m, 3, hw) for i, (n, m, hw) in enumerate([
            (3, 64, 224), (64, 64, 224), (64, 128, 112), (128, 128, 112),
            (128, 256, 56), (256, 256, 56), (256, 256, 56),
            (256, 512, 28), (512, 512, 28), (512, 512, 28),
            (512, 512, 14), (512, 512, 14), (512, 512, 14)]))
         + (fc_cost("fc1", 512 * 7 * 7, 4096), fc_cost("fc2", 4096, 4096),
            fc_cost("fc3", 4096, 1000))),
    ])
    def test_spec_from_trainer_network(self, name, layers):
        # b-vgg's network is built by the cost model alone: train rejects it
        assert (name in MODEL_BUILDERS) == (name != "b-vgg")
        spec = spec_from_model(MODEL_BUILDERS.get(name, _build_vgg16)())
        assert spec == ModelSpec(name, layers)
        if name in MODEL_PRESETS:
            assert spec == MODEL_PRESETS[name]

    def test_vgg_is_large(self):
        assert MODEL_PRESETS["b-vgg"].total_weights > 130e6

    def test_invalid_layer_rejected(self):
        with pytest.raises(ValueError):
            LayerCost("x", "fc", 0, 10, 10)
        with pytest.raises(ValueError):
            LayerCost("x", "rnn", 10, 10, 10)


class TestParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            CostParams(bytes_per_value=0)
        with pytest.raises(ValueError):
            CostParams(bw_dram=-1)


class TestTraffic:
    def test_shift_has_zero_eps_bytes(self):
        for spec in MODEL_PRESETS.values():
            r = traffic_per_iteration(spec, 16, "shift", P)
            assert r.totals.eps_bytes == 0
            for stages in r.per_layer.values():
                assert all(t.eps_bytes == 0 for t in stages.values())

    def test_store_eps_linear_in_samples(self):
        spec = MODEL_PRESETS["b-mlp"]
        e8 = traffic_per_iteration(spec, 8, "store", P).totals.eps_bytes
        e16 = traffic_per_iteration(spec, 16, "store", P).totals.eps_bytes
        e32 = traffic_per_iteration(spec, 32, "store", P).totals.eps_bytes
        assert e16 == 2 * e8
        assert e32 == 4 * e8

    def test_store_eps_formula(self):
        spec = MODEL_PRESETS["b-mlp"]
        r = traffic_per_iteration(spec, 8, "store", P)
        # one write in FW plus one fused read in BW
        assert r.totals.eps_bytes == 2 * 8 * spec.total_weights * P.bytes_per_value

    def test_double_read_adds_gc_pass(self):
        spec = MODEL_PRESETS["b-mlp"]
        pd = CostParams(eps_double_read=True)
        r1 = traffic_per_iteration(spec, 8, "store", P).totals.eps_bytes
        r2 = traffic_per_iteration(spec, 8, "store", pd).totals.eps_bytes
        assert r2 == r1 * 3 // 2

    def test_param_bytes_six_passes(self):
        spec = MODEL_PRESETS["b-lenet"]
        r = traffic_per_iteration(spec, 4, "shift", P)
        assert r.totals.param_bytes == 6 * spec.total_weights * P.bytes_per_value

    def test_fmap_bytes_scale_with_samples(self):
        spec = MODEL_PRESETS["b-lenet"]
        r = traffic_per_iteration(spec, 4, "shift", P)
        assert r.totals.fmap_bytes == 4 * 4 * spec.total_acts * P.bytes_per_value

    def test_totals_equal_sum_of_parts(self):
        spec = MODEL_PRESETS["b-alexnet"]
        r = traffic_per_iteration(spec, 8, "store", P)
        t = r.totals
        assert t.traffic_bytes == t.eps_bytes + t.param_bytes + t.fmap_bytes
        agg = [0, 0, 0, 0]
        for name in r.per_layer:
            lt = r.layer_total(name)
            agg[0] += lt.eps_bytes
            agg[1] += lt.param_bytes
            agg[2] += lt.fmap_bytes
            agg[3] += lt.macs
        assert agg == [t.eps_bytes, t.param_bytes, t.fmap_bytes, t.macs]

    def test_eps_share_monotone_in_samples(self):
        for spec in MODEL_PRESETS.values():
            shares = [traffic_per_iteration(spec, s, "store", P).eps_share
                      for s in (8, 16, 32, 64, 128)]
            assert shares == sorted(shares)

    def test_invalid_inputs(self):
        spec = MODEL_PRESETS["b-mlp"]
        with pytest.raises(ValueError):
            traffic_per_iteration(spec, 0, "store", P)
        with pytest.raises(ValueError):
            traffic_per_iteration(spec, 8, "cached", P)


class TestFootprint:
    def test_shift_eps_footprint_zero(self):
        for spec in MODEL_PRESETS.values():
            assert footprint(spec, 16, "shift", P)["eps"] == 0

    def test_store_eps_footprint_formula(self):
        spec = MODEL_PRESETS["b-lenet"]
        fp = footprint(spec, 16, "store", P)
        assert fp["eps"] == 16 * spec.total_weights * P.bytes_per_value

    @pytest.mark.parametrize("name,store_mib", [("b-mlp", 7.29), ("b-lenet", 0.94)])
    def test_store_eps_equals_the_trainers_count_log(self, name, store_mib):
        """The modelled noise residency is what S=8 STORE forward passes
        log (2 bytes per count) when no backward pass has read it yet, and
        SHIFT logs nothing.  In a training step each sample's backward pass
        takes its blocks out of the log, so the trainer holds at most one
        sample's noise where the model charges S samples'."""
        model = MODEL_BUILDERS[name]()
        x = np.random.default_rng(0).random((2,) + model.input_shape, dtype=np.float32)
        y = np.arange(2)
        eps = footprint(spec_from_model(model), 8, "store", P)["eps"]
        assert eps / 2 ** 20 == pytest.approx(store_mib, abs=0.005)
        for strategy in ("store", "shift"):
            cfg = TrainConfig(S=8, master_seed=0, epsilon_strategy=strategy)
            model.init_params(cfg)
            trainer = Trainer(model, cfg)
            sigma_terms = trainer._sigma_terms()
            for i in range(cfg.S):
                trainer.forward_pass(x, y, i, sigma_terms)
            logged = sum(counts.nbytes for counts in trainer.step_log.values())
            assert logged == (eps if strategy == "store" else 0), strategy
            assert len(trainer.step_log) == (8 * len(model.bayes_layers())
                                             if strategy == "store" else 0)

    def test_lenet_reduction_over_60_percent(self):
        spec = MODEL_PRESETS["b-lenet"]
        store = sum(footprint(spec, 16, "store", P).values())
        shift = sum(footprint(spec, 16, "shift", P).values())
        assert 1 - shift / store >= 0.60


class TestLatencyEnergy:
    def test_shift_never_slower_or_hungrier(self):
        for spec in MODEL_PRESETS.values():
            cs, es = latency_energy(spec, 16, "store", P)
            ch, eh = latency_energy(spec, 16, "shift", P)
            assert ch <= cs
            assert eh <= es

    def test_fc_dominated_speedup_exceeds_conv_dominated(self):
        cs, _ = latency_energy(MODEL_PRESETS["b-mlp"], 16, "store", P)
        ch, _ = latency_energy(MODEL_PRESETS["b-mlp"], 16, "shift", P)
        vs, _ = latency_energy(MODEL_PRESETS["b-vgg"], 16, "store", P)
        vh, _ = latency_energy(MODEL_PRESETS["b-vgg"], 16, "shift", P)
        assert cs / ch > vs / vh

    def test_memory_bound_layer_sets_cycles(self):
        # a tiny fc layer moves more bytes than it computes, so the
        # double-buffered time is the transfer time
        layer = fc_cost("fc", 10, 10)
        spec = ModelSpec("tiny", (layer,))
        cycles, _ = latency_energy(spec, 1, "shift", P)
        r = traffic_per_iteration(spec, 1, "shift", P)
        t = r.layer_total("fc")
        assert cycles == pytest.approx(t.traffic_bytes / P.bw_dram)


class TestMappingComparator:
    def test_rc_overhead(self):
        for n in (2, 8, 64):
            r = mapping_overhead("RC", n)
            assert r.swap_wires == 0
            assert r.adder_trees == 0
            assert r.control_modes == 2

    def test_mn_v1_pair_wires(self):
        r = mapping_overhead("MN_V1", 4)
        assert r.swap_wires == 12
        assert r.square_array_required

    def test_quadratic_wire_growth(self):
        for mapping in ("MN_V1", "K_V1"):
            w16 = mapping_overhead(mapping, 16).swap_wires
            w32 = mapping_overhead(mapping, 32).swap_wires
            assert w32 == 32 * 31 and w16 == 16 * 15

    def test_rc_strictly_minimal_2_to_64(self):
        for n in range(2, 65):
            scores = {m: mapping_overhead(m, n).rank_score for m in MAPPINGS}
            rc = scores.pop("RC")
            assert all(rc < s for s in scores.values()), (n, scores)

    def test_unknown_mapping(self):
        with pytest.raises(ValueError):
            mapping_overhead("XYZ", 4)
        with pytest.raises(ValueError):
            mapping_overhead("RC", 0)


class TestCsvRoundtrip:
    def test_rows_roundtrip_without_loss(self, tmp_path):
        spec = MODEL_PRESETS["b-lenet"]
        r = traffic_per_iteration(spec, 8, "store", P)
        rows = report_rows(r, P)
        path = tmp_path / "r.csv"
        write_csv(path, rows)
        back = read_csv(path)
        assert back == rows
        assert list(back[0]) == CSV_HEADER

    def test_totals_row_matches(self):
        spec = MODEL_PRESETS["b-mlp"]
        r = traffic_per_iteration(spec, 8, "store", P)
        rows = report_rows(r, P)
        total = [row for row in rows if row["stage"] == "total"][0]
        assert total["eps_bytes"] == r.totals.eps_bytes
        assert total["macs"] == r.totals.macs
        assert (total["cycles"], total["energy"]) == latency_energy(spec, 8, "store", P)


@given(s=st.integers(min_value=1, max_value=64),
       n_in=st.integers(min_value=1, max_value=64),
       m_out=st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_single_fc_traffic_closed_form(s, n_in, m_out):
    spec = ModelSpec("one", (fc_cost("fc", n_in, m_out),))
    r = traffic_per_iteration(spec, s, "store", P)
    w = n_in * m_out
    b = P.bytes_per_value
    assert r.totals.eps_bytes == 2 * s * w * b
    assert r.totals.param_bytes == 6 * w * b
    assert r.totals.fmap_bytes == 4 * s * m_out * b
    assert r.totals.macs == 3 * s * w
