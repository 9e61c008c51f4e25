"""Forward-Forward training in two equivalent forms.

An analog trainer (dense ReLU layer, exact layer-local gradients, ADAM) and
a spiking trainer (LIF neurons, output traces, three-factor Hebbian updates
through eligibility traces) built around the same goodness/probability
machinery, so their update rules can be compared factor by factor.
"""

from .analog import (
    AdamState,
    DenseLayer,
    EpochStats,
    TrainConfig,
    adam_step,
    forward_batch,
    layer_gradient,
    train_analog,
)
from .core import PolarityPartition, SigmoidProb, SymmetricProb
from .data import (
    Dataset,
    ExperimentData,
    LabelCodebook,
    PairBatch,
    batches,
    embed_batch,
    load_mnist,
    load_split,
    pair_codes,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    FFAError,
    SilentLayerError,
)
from .metrics import (
    LatentDump,
    MetricReport,
    accuracy,
    export_latents,
    separability_index,
)
from .spiking import (
    EligibilityTrace,
    LIFConfig,
    LIFState,
    OutputTrace,
    SpikeEncoderConfig,
    SpikingConfig,
    TraceConfig,
    eligibility_step,
    hebbian_impulse,
    lif_step,
    rate_encode,
    simulate,
    trace_step,
    train_hebbian,
)

__version__ = "0.1.0"
