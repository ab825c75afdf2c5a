"""Analytic off-chip traffic, footprint, latency and energy model.

Compares the two noise-handling strategies on network presets.  b-mlp
and b-lenet are read from the trainer's own networks, and b-vgg from a
network of the trainer's layers that only the cost model builds (all by
``spec_from_model``); alexnet and resnet are written out by layer.
STORE writes every per-weight Gaussian draw off-chip during the forward
pass and reads it back for the fused backward/gradient pass; SHIFT
regenerates the draws on chip by reversing the generator, so its noise
traffic is exactly zero.  Everything else (parameter and feature-map
movement, MAC counts) is identical between the strategies.

Accounting rules, per layer l with |W_l| weights and D_l output values,
S ensemble samples, b bytes per value:

  noise (STORE):   S*|W_l|*b written in FW + S*|W_l|*b read in BW/GC
                   (fused consumption counted as one read; set
                   eps_double_read to charge BW and GC separately)
  parameters:      2*|W_l|*b read in FW, again in BW, written at update
  feature maps:    D_l written in FW and read in GC, errors E_l written
                   and read in BW, each scaled by S
  MACs:            one multiply-accumulate per weight-position per
                   output element, per stage (FW, BW, GC), per sample

No tiling is modeled: buffers are assumed large enough that each tensor
crosses the off-chip boundary the minimal number of times above.  The
point-estimate ("DNN") baseline uses the same shapes with one sample,
no noise traffic and single-copy weights.

Latency assumes double buffering: a layer costs
max(macs / macs_per_cycle, traffic_bytes / bw_dram) cycles.  Energy is
e_dram * bytes + e_mac * macs.  The shipped constants are a documented
profile, not measurements; headline comparisons are ratios, which cancel
the constants wherever both sides share them.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import asdict, astuple, dataclass, field

from . import train

STAGES = ("fw", "bw", "gc")


@dataclass(frozen=True)
class CostParams:
    bytes_per_value: int = 2          # 16-bit values
    e_dram: float = 20.0              # pJ per byte moved off-chip
    e_mac: float = 0.5                # pJ per MAC
    bw_dram: float = 43.0             # bytes per cycle; calibrated, see README
    macs_per_cycle: int = 256         # 16 tiles x 16 PEs
    eps_double_read: bool = False     # charge the noise read in BW and GC

    def __post_init__(self):
        for name in ("bytes_per_value", "e_dram", "e_mac", "bw_dram",
                     "macs_per_cycle"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class LayerCost:
    """Shape-derived counts for one weight layer."""

    name: str
    kind: str          # "conv" | "fc"
    weights: int       # |W_l|
    out_acts: int      # D_l, output values of this layer
    macs: int          # MACs of one forward evaluation, one sample

    def __post_init__(self):
        if self.kind not in ("conv", "fc"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if min(self.weights, self.out_acts, self.macs) <= 0:
            raise ValueError(f"layer {self.name}: counts must be positive")


def conv_cost(name: str, n_in: int, m_out: int, k: int, out_hw: int) -> LayerCost:
    w = m_out * n_in * k * k
    return LayerCost(name, "conv", w, m_out * out_hw * out_hw, w * out_hw * out_hw)


def fc_cost(name: str, n_in: int, m_out: int) -> LayerCost:
    return LayerCost(name, "fc", m_out * n_in, m_out, m_out * n_in)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    layers: tuple[LayerCost, ...]

    @property
    def total_weights(self) -> int:
        return sum(l.weights for l in self.layers)

    @property
    def total_acts(self) -> int:
        return sum(l.out_acts for l in self.layers)


def spec_from_model(model: train.Model) -> ModelSpec:
    """The cost description of a trainer network.

    The example shape is carried through the layers' ``out_shape``; no
    array is made.  Each Bayesian layer, named conv1.../fc1... in forward
    order, counts its weights and its own output values; each output
    value of a channel takes one MAC per weight of that channel, so
    macs = weights * out_acts / out_channels for conv and fc alike.
    """
    shape = model.input_shape
    seen = Counter()
    layers = []
    for layer in model.layers:
        shape = layer.out_shape(shape)
        if isinstance(layer, train.BayesLayer):
            seen[layer.kind] += 1
            w, out_acts = layer.weight_count, math.prod(shape)
            layers.append(LayerCost(f"{layer.kind}{seen[layer.kind]}", layer.kind,
                                    w, out_acts, w * out_acts // shape[0]))
    return ModelSpec(model.name, tuple(layers))


def _build_vgg16() -> train.Model:
    """VGG-16 for 3x224x224 inputs: five blocks of same-padded 3x3 convs,
    each block halved by a max-pool, then three fc layers.  Its 138 M
    weights are for the cost model only; ``train.MODEL_BUILDERS`` leaves it
    out, so ``train`` does not take it."""
    layers, n_in = [], 3
    for block in ((64,) * 2, (128,) * 2, (256,) * 3, (512,) * 3, (512,) * 3):
        for m in block:
            layers += [train.BayesConv(n_in, m, 3, 1, 1), train.ReLU()]
            n_in = m
        layers.insert(-1, train.MaxPool(2))  # before the block's last ReLU
    layers += [train.BayesFC(512 * 7 * 7, 4096), train.ReLU(),
               train.BayesFC(4096, 4096), train.ReLU(), train.BayesFC(4096, 1000)]
    return train.Model(layers, name="b-vgg", input_shape=(3, 224, 224))


def _resnet18_layers() -> tuple[LayerCost, ...]:
    layers = [conv_cost("conv1", 3, 64, 7, 112)]
    stages = [(64, 64, 56, False), (64, 128, 28, True),
              (128, 256, 14, True), (256, 512, 7, True)]
    for si, (n_in, m, hw, down) in enumerate(stages, start=2):
        layers.append(conv_cost(f"conv{si}a1", n_in, m, 3, hw))
        layers.append(conv_cost(f"conv{si}a2", m, m, 3, hw))
        if down:
            layers.append(conv_cost(f"conv{si}ds", n_in, m, 1, hw))
        layers.append(conv_cost(f"conv{si}b1", m, m, 3, hw))
        layers.append(conv_cost(f"conv{si}b2", m, m, 3, hw))
    layers.append(fc_cost("fc", 512, 1000))
    return tuple(layers)


MODEL_PRESETS = {
    "b-mlp": spec_from_model(train.MODEL_BUILDERS["b-mlp"]()),
    "b-lenet": spec_from_model(train.MODEL_BUILDERS["b-lenet"]()),
    "b-alexnet": ModelSpec("b-alexnet", (
        conv_cost("conv1", 3, 96, 11, 55),
        conv_cost("conv2", 96, 256, 5, 27),
        conv_cost("conv3", 256, 384, 3, 13),
        conv_cost("conv4", 384, 384, 3, 13),
        conv_cost("conv5", 384, 256, 3, 13),
        fc_cost("fc1", 256 * 6 * 6, 4096),
        fc_cost("fc2", 4096, 4096),
        fc_cost("fc3", 4096, 1000),
    )),
    "b-vgg": spec_from_model(_build_vgg16()),
    "b-resnet": ModelSpec("b-resnet", _resnet18_layers()),
}


@dataclass(frozen=True)
class StageTraffic:
    eps_bytes: int = 0
    param_bytes: int = 0
    fmap_bytes: int = 0
    macs: int = 0

    @property
    def traffic_bytes(self) -> int:
        return self.eps_bytes + self.param_bytes + self.fmap_bytes

    def __add__(self, other: StageTraffic) -> StageTraffic:
        return StageTraffic(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass
class TrafficReport:
    model: str
    strategy: str
    S: int
    # per_layer[layer_name][stage] -> StageTraffic
    per_layer: dict[str, dict[str, StageTraffic]] = field(default_factory=dict)

    def layer_total(self, layer: str) -> StageTraffic:
        return sum(self.per_layer[layer].values(), StageTraffic())

    @property
    def totals(self) -> StageTraffic:
        return sum((self.layer_total(name) for name in self.per_layer), StageTraffic())

    @property
    def eps_share(self) -> float:
        t = self.totals
        return t.eps_bytes / t.traffic_bytes


def traffic_per_iteration(model: ModelSpec, S: int, strategy: str,
                          params: CostParams) -> TrafficReport:
    """Off-chip bytes and MACs for one example-iteration (batch of one)."""
    if S < 1:
        raise ValueError(f"S must be >= 1, got {S}")
    if strategy not in ("store", "shift"):
        raise ValueError(f"unknown strategy {strategy!r}")
    b = params.bytes_per_value
    report = TrafficReport(model.name, strategy, S)
    for layer in model.layers:
        eps = S * layer.weights * b if strategy == "store" else 0
        pw = 2 * layer.weights * b  # mu and sigma
        d = S * layer.out_acts * b
        macs = S * layer.macs
        eps_gc = eps if (strategy == "store" and params.eps_double_read) else 0
        report.per_layer[layer.name] = {
            # FW: write noise, read params, write activations
            "fw": StageTraffic(eps, pw, d, macs),
            # BW: read noise back, read params, write and read errors
            "bw": StageTraffic(eps, pw, 2 * d, macs),
            # GC: re-read activations, write updated params
            "gc": StageTraffic(eps_gc, pw, d, macs),
        }
    return report


def dnn_traffic(model: ModelSpec, params: CostParams) -> int:
    """Point-estimate baseline bytes: one sample, one weight copy, no noise."""
    b = params.bytes_per_value
    return sum(3 * l.weights * b + 4 * l.out_acts * b for l in model.layers)


def footprint(model: ModelSpec, S: int, strategy: str,
              params: CostParams) -> dict[str, int]:
    """Peak off-chip residency in bytes, by category.

    STORE must hold every drawn noise value from the forward pass until
    its fused backward consumption; SHIFT holds none.  ``eps`` charges S
    samples' noise, the residency of a schedule that runs every forward
    pass before any backward pass, while the trainer drops each block when
    its sample's backward pass reads it and so holds at most one sample's
    noise; which of the two the model means is open.  Both keep the
    parameter pairs with their gradient accumulators and the retained
    per-sample activations.  ``fmaps`` charges S samples' feature maps,
    while the trainer runs its samples one after another and holds one
    sample's at a time; reconciling the two is left for when the model
    gains a batch axis.
    """
    b = params.bytes_per_value
    eps = S * model.total_weights * b if strategy == "store" else 0
    return {
        "eps": eps,
        "params": 4 * model.total_weights * b,  # mu, sigma + two accumulators
        "fmaps": S * model.total_acts * b,
    }


def stage_cost(t: StageTraffic, params: CostParams) -> tuple[float, float]:
    """(cycles, energy) of one stage, or one layer's total, under double
    buffering."""
    return (max(t.macs / params.macs_per_cycle, t.traffic_bytes / params.bw_dram),
            params.e_dram * t.traffic_bytes + params.e_mac * t.macs)


def report_cost(report: TrafficReport, params: CostParams) -> tuple[float, float]:
    """(cycles, energy) of one iteration: the sum of the layer totals' costs."""
    costs = [stage_cost(report.layer_total(name), params) for name in report.per_layer]
    return sum(c for c, _ in costs), sum(e for _, e in costs)


def latency_energy(model: ModelSpec, S: int, strategy: str,
                   params: CostParams) -> tuple[float, float]:
    """(cycles, energy) for one iteration under double buffering."""
    return report_cost(traffic_per_iteration(model, S, strategy, params), params)


# ---------------------------------------------------------------------------
# Mapping-scheme overhead comparator.
#
# Five ways to parallelize the conv loop nest over an n x n PE array,
# scored by the extra structure each needs to keep the backward pass's
# reorganized kernels flowing without re-fetching noise values.
# ---------------------------------------------------------------------------

MAPPINGS = ("MN_V1", "MN_V2", "RC", "K_V1", "BM_V1")


@dataclass(frozen=True)
class OverheadReport:
    mapping: str
    array_n: int
    swap_wires: int = 0
    adder_trees: int = 0          # extra n-input adder trees
    control_modes: int = 0
    square_array_required: bool = False
    dual_input_buffers: bool = False

    @property
    def rank_score(self) -> int:
        """Weighted structural cost; lower is better.

        Wires and control modes count singly, each extra n-input adder
        tree counts as n units of logic, and each structural constraint
        (square array, duplicated buffers) carries a fixed 10-unit
        penalty for the design freedom it removes.
        """
        flags = int(self.square_array_required) + int(self.dual_input_buffers)
        return (self.swap_wires + self.array_n * self.adder_trees
                + self.control_modes + 10 * flags)


def mapping_overhead(mapping: str, array_n: int) -> OverheadReport:
    """Structural overhead of retrieving noise in reverse under a mapping.

    MN_V1 swaps values between PE (m, n) and PE (n, m), needing a wire
    per ordered pair and a square array.  MN_V2 instead duplicates the
    per-column reduction, one extra n-input adder tree per column.  K_V1
    swaps along the kernel dimension, wire count like MN_V1 plus two
    control modes.  BM_V1 re-reduces across the batch-channel split with
    n extra adder trees and doubled input buffering.  RC retrieves along
    the output rows/columns, which only needs a second traversal mode in
    the existing address generators.
    """
    if array_n < 1:
        raise ValueError(f"array_n must be >= 1, got {array_n}")
    if mapping == "MN_V1":
        return OverheadReport(mapping, array_n,
                              swap_wires=array_n * (array_n - 1),
                              square_array_required=True)
    if mapping == "MN_V2":
        return OverheadReport(mapping, array_n, adder_trees=array_n)
    if mapping == "RC":
        return OverheadReport(mapping, array_n, control_modes=2)
    if mapping == "K_V1":
        return OverheadReport(mapping, array_n,
                              swap_wires=array_n * (array_n - 1),
                              control_modes=2)
    if mapping == "BM_V1":
        return OverheadReport(mapping, array_n, adder_trees=array_n,
                              dual_input_buffers=True)
    raise ValueError(f"unknown mapping {mapping!r}")


# ---------------------------------------------------------------------------
# CSV report I/O.
# ---------------------------------------------------------------------------

CSV_HEADER = ["model", "layer", "stage", "strategy", "eps_bytes",
              "param_bytes", "fmap_bytes", "macs", "cycles", "energy"]


def report_rows(report: TrafficReport, params: CostParams) -> list[dict]:
    """One row per (layer, stage), then the iteration's total row."""
    def row(layer: str, stage: str, t: StageTraffic, cost: tuple[float, float]) -> dict:
        cycles, energy = cost
        return {"model": report.model, "layer": layer, "stage": stage,
                "strategy": report.strategy, **asdict(t),
                "cycles": cycles, "energy": energy}

    rows = [row(name, stage, stages[stage], stage_cost(stages[stage], params))
            for name, stages in report.per_layer.items() for stage in STAGES]
    rows.append(row("all", "total", report.totals, report_cost(report, params)))
    return rows


def write_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)

