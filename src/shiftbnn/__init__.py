"""Storage-free Gaussian noise for sampling-based Bayesian network training.

The package couples a reversible LFSR-based Gaussian generator with a
from-scratch Bayes-by-backprop training engine: noise drawn during the
forward pass is retrieved bit-exactly during the backward pass by
shifting the generator in reverse, so nothing is ever written out.  An
analytic cost model quantifies the off-chip traffic, footprint, latency
and energy this saves against the store-everything baseline.
"""

from .lfsr import (
    DEFAULT_TAPS,
    InvalidTaps,
    LfsrState,
    TapSet,
    ZeroSeed,
    new_lfsr,
    popcount_state,
    shift_forward,
    shift_reverse,
)
from .grng import (
    Epsilon,
    GrngStream,
    UnderflowBeforeSeed,
    counts_to_eps,
    grng_init,
    read_epsilon_log,
    write_epsilon_log,
)
from .replay import (
    GenerationLedger,
    LedgerMismatch,
    NonContiguousSegment,
    SegmentRecord,
    canonical_forward_order,
    reverse_schedule,
)
from .train import (
    Model,
    MODEL_BUILDERS,
    TrainConfig,
    Trainer,
    load_checkpoint,
    save_checkpoint,
)
from .costmodel import (
    CostParams,
    MODEL_PRESETS,
    ModelSpec,
    TrafficReport,
    footprint,
    latency_energy,
    mapping_overhead,
    traffic_per_iteration,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TAPS", "InvalidTaps", "LfsrState", "TapSet", "ZeroSeed",
    "new_lfsr", "popcount_state", "shift_forward", "shift_reverse",
    "Epsilon", "GrngStream", "UnderflowBeforeSeed",
    "counts_to_eps", "grng_init", "read_epsilon_log", "write_epsilon_log",
    "GenerationLedger", "LedgerMismatch", "NonContiguousSegment",
    "SegmentRecord", "canonical_forward_order", "reverse_schedule",
    "Model", "MODEL_BUILDERS", "TrainConfig", "Trainer",
    "load_checkpoint", "save_checkpoint",
    "CostParams", "MODEL_PRESETS", "ModelSpec", "TrafficReport",
    "footprint", "latency_energy", "mapping_overhead",
    "traffic_per_iteration",
]
