"""Spiking Hebbian trainer: LIF neurons, rate coding, output and eligibility traces.

Inputs are Bernoulli spike trains delivered as address events: only inputs
with a nonzero rate draw, and the spikes that fire drive the layer as a
sparse current.  A leaky integrate-and-fire layer turns them into output
spikes, and a smooth per-neuron output trace stands in for the
non-differentiable spike train when evaluating goodness, probability and the
modulation factor.  During the last few timesteps of each sample the
three-factor product ``modulation * trace * input_spike`` is fed through a
per-synapse eligibility trace that low-passes the updates into the weights.

One lockstep loop, :func:`simulate`, serves evaluation, batch training and
online training (a batch of one).  A plastic batch of one runs the same rule
event-driven: only the synapses of inputs that spiked are touched.  Online
training hands :func:`simulate_online` a block of rows, each of which is such
a call in turn; compiled, the whole block is one kernel call.

Plastic weights and eligibility are stored presynaptic-major, as
address-event hardware stores its synapses: Fortran-ordered [n_out, n_in],
so ``W.T`` is a C-contiguous [n_in, n_out] view whose row i holds the
synapses of input i.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .analog import DenseLayer, EpochStats, TrainConfig, partition_for, run_epochs
from .core import (
    PolarityPartition,
    ProbabilityFn,
    SymmetricProb,
    modulation_batch,
    probability_batch,
)
from .data import ExperimentData
from .errors import ConfigError, DataError, require

if TYPE_CHECKING:
    from scipy.sparse import csr_array

TRACE_KINDS = ("li", "hard_li", "relu")
RESET_MODES = ("to_zero", "subtract")


@dataclass(frozen=True)
class LIFConfig:
    """Leaky integrate-and-fire parameters.

    ``input_gain`` scales the injected current; at the default weight-init
    scale a gain of 1 leaves the layer essentially silent, so the default
    is picked to give healthy initial firing rates.
    """

    decay: float = 0.85
    threshold: float = 1.0
    reset_mode: str = "to_zero"
    input_gain: float = 4.0

    def __post_init__(self):
        require({
            "lif decay must be in [0, 1]": 0.0 <= self.decay <= 1.0,
            "lif threshold must be > 0": self.threshold > 0.0,
            "lif input_gain must be >= 0": self.input_gain >= 0.0,
            f"reset_mode must be one of {RESET_MODES}": self.reset_mode in RESET_MODES,
        })


@dataclass
class LIFState:
    """Membrane potentials plus the dynamics that govern them."""

    potential: np.ndarray
    config: LIFConfig

    @classmethod
    def zeros(cls, shape, config: LIFConfig) -> "LIFState":
        return cls(np.zeros(shape), config)


def lif_step(
    state: LIFState, weights: np.ndarray, in_spikes: np.ndarray | csr_array
) -> np.ndarray:
    """Integrate one timestep and return the binary output spikes.

    Accepts a single spike vector [n_in] or a lockstep batch [B, n_in], dense
    or a CSR array (with a matching [B, n_out] potential).
    """
    return lif_fire(state, in_spikes @ weights.T)


def lif_fire(state: LIFState, current: np.ndarray) -> np.ndarray:
    """Leak, add ``input_gain * current``, then fire and reset at the threshold."""
    cfg = state.config
    state.potential *= cfg.decay
    state.potential += cfg.input_gain * current
    out = state.potential >= cfg.threshold
    if cfg.reset_mode == "to_zero":
        state.potential[out] = 0.0
    else:
        state.potential[out] -= cfg.threshold
    return out.astype(np.float64)


@dataclass(frozen=True)
class TraceConfig:
    """Which output-trace dynamics to run and their step/decay constants."""

    kind: str = "relu"
    mu: float = 0.1
    tau_o: float = 0.9

    def __post_init__(self):
        require({
            f"trace kind must be one of {TRACE_KINDS}": self.kind in TRACE_KINDS,
            "trace mu must be > 0": self.mu > 0.0,
            "tau_o must be in [0, 1)": 0.0 <= self.tau_o < 1.0,
        })


@dataclass
class OutputTrace:
    """Per-neuron smooth summary of recent output spikes."""

    value: np.ndarray
    config: TraceConfig

    @classmethod
    def zeros(cls, shape, config: TraceConfig) -> "OutputTrace":
        return cls(np.zeros(shape), config)


def trace_step(trace: OutputTrace, out_spikes: np.ndarray) -> OutputTrace:
    """Advance the trace one timestep, elementwise.

    li:      T <- mu * I + tau_o * T         (leaky integration)
    hard_li: T <- I + tau_o * (1 - I) * T    (a spike pins the trace to 1)
    relu:    T <- mu * I + T                 (pure accumulation)
    """
    I = np.asarray(out_spikes, dtype=np.float64)
    cfg = trace.config
    if cfg.kind == "li":
        trace.value = cfg.mu * I + cfg.tau_o * trace.value
    elif cfg.kind == "hard_li":
        trace.value = I + cfg.tau_o * (1.0 - I) * trace.value
    else:
        trace.value = cfg.mu * I + trace.value
    return trace


@dataclass
class EligibilityTrace:
    """Per-synapse low-pass filter over update impulses.

    ``impulse`` is a scratch buffer of the same shape and layout:
    :func:`hebbian_impulse` writes the next impulse into it and
    :func:`eligibility_step` consumes it, so plastic timesteps allocate no
    weight-sized array.
    """

    e: np.ndarray
    tau_e: float
    impulse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        require({"tau_e must be in [0, 1)": 0.0 <= self.tau_e < 1.0})
        self.impulse = np.empty_like(self.e)

    @classmethod
    def zeros_like(cls, weights: np.ndarray, tau_e: float) -> "EligibilityTrace":
        """A zero trace in the shape and memory layout of ``weights``."""
        return cls(np.zeros_like(weights), tau_e)


def eligibility_step(el: EligibilityTrace, weights: np.ndarray, eta: float) -> None:
    """Fold ``el.impulse`` into the trace, then the trace into the weights.

    ``e += (1 - tau_e) * (impulse - e); weights += eta * e``, in place; the
    impulse buffer is spent as scratch.  Impulses are descent directions, so
    the weight move is a plain addition.
    """
    scratch = el.impulse
    scratch -= el.e
    scratch *= 1.0 - el.tau_e
    el.e += scratch
    np.multiply(el.e, eta, out=scratch)
    weights += scratch


# The event-driven form folds once the decay product drops below this.  At
# tau_e < 1/2 one step alone gets there, so those runs keep the dense rule.
_FOLD_BELOW = 0.5


class _EventSynapses:
    """The weights and eligibility of one plastic instance, touched only at inputs that spiked.

    It works on the presynaptic-major views ``W.T`` and ``e.T`` [n_in, n_out],
    so each spiking input reads and writes one contiguous row.  Between folds
    the arrays hold ``E`` and ``V`` with ``e = c * E`` and
    ``W = V + eta * C * E``, where ``c`` is the product of the tau_e decays
    so far and ``C`` the sum of those products.  The dense rule
    ``e += (1 - tau_e) * (impulse - e); W += eta * e`` then becomes
    ``c *= tau_e; E.T[idx] += (1 - tau_e) / c * post; V.T[idx] -= eta * C * that;
    C += c`` over the spiking inputs ``idx`` (Morrison, Diesmann & Gerstner
    2008).  :meth:`fold` writes the real values back in one dense pass.
    """

    def __init__(self, weights: np.ndarray, el: EligibilityTrace, eta: float):
        self.rows, self.e_rows, self.scratch = weights.T, el.e.T, el.impulse.T
        self.tau_e, self.eta = el.tau_e, eta
        self.decay, self.decay_sum = 1.0, 0.0
        self.idx = np.empty(0, dtype=np.intp)

    def current(self, idx: np.ndarray) -> np.ndarray:
        """``W @ spikes`` as a sum over the rows of the spiking inputs ``idx``, kept for :meth:`step`."""
        self.idx = idx
        current = self.rows[self.idx].sum(axis=0)
        if self.decay_sum:
            current += self.eta * self.decay_sum * self.e_rows[self.idx].sum(axis=0)
        return current

    def step(self, post: np.ndarray) -> None:
        """One plastic timestep; ``post`` [n_out] is the impulse at each input that spiked."""
        self.decay *= self.tau_e
        if self.idx.size:
            delta = (1.0 - self.tau_e) / self.decay * post
            self.e_rows[self.idx] += delta
            self.rows[self.idx] -= self.eta * self.decay_sum * delta
        self.decay_sum += self.decay
        if self.decay < _FOLD_BELOW:
            self.fold()

    def fold(self) -> None:
        """Make the arrays hold the real ``W`` and ``e`` again."""
        if self.decay_sum:
            np.multiply(self.e_rows, self.eta * self.decay_sum, out=self.scratch)
            self.rows += self.scratch
            self.e_rows *= self.decay
        self.decay, self.decay_sum = 1.0, 0.0


@dataclass(frozen=True)
class SpikeEncoderConfig:
    """Bernoulli rate coding over a fixed simulation window."""

    scale: float = 0.25
    steps: int = 24
    active_window: int = 9

    def __post_init__(self):
        require({
            "encoder scale must be in [0, 1]": 0.0 <= self.scale <= 1.0,
            "steps must be >= 1": self.steps >= 1,
            "active_window must be in [0, steps]": 0 <= self.active_window <= self.steps,
        })


def rate_encode(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One timestep of Bernoulli spikes over address events: the ascending positions
    ``i`` that fire, each with probability ``p[i]``, from one uniform draw per event."""
    return np.flatnonzero(rng.random(p.size) < p)


def _input_events(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero inputs of ``X`` [B, n_in] in row-major order: their values,
    their columns, and the [B + 1] offsets where each row's events start.

    Zero inputs never spike, so only these events draw.  Each must lie in
    (0, 1]; NaN fails the check too.
    """
    flat = np.flatnonzero(X != 0.0)
    x = X.ravel()[flat]
    if not np.all((x > 0.0) & (x <= 1.0)):
        raise DataError("rate encoder input must lie in [0, 1]")
    n_in = X.shape[1]
    return x, flat % n_in, np.searchsorted(flat, np.arange(X.shape[0] + 1) * n_in)


def _fired_spikes(
    cols: np.ndarray, starts: np.ndarray, fired: np.ndarray, shape: tuple[int, int]
) -> csr_array:
    """The events at positions ``fired`` (ascending) as a 0/1 CSR array [B, n_in]."""
    from scipy.sparse import csr_array

    indptr = np.searchsorted(fired, starts)
    return csr_array((np.ones(fired.size), cols[fired], indptr), shape=shape)


def hebbian_post(
    trace: np.ndarray, codes: np.ndarray, prob_fn: ProbabilityFn, partition: PolarityPartition
) -> np.ndarray:
    """Postsynaptic factor ``modulation * trace`` [B, n_out]: row b's impulse at each input that spiked."""
    _, modulation = modulation_batch(trace, codes, prob_fn, partition)
    return modulation * trace


def hebbian_impulse(
    trace: np.ndarray,
    in_spikes: np.ndarray | csr_array,
    codes: np.ndarray,
    prob_fn: ProbabilityFn,
    partition: PolarityPartition,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Three-factor update impulse: the row mean of outer(modulation_b * trace_b, in_spikes_b).

    ``trace`` [B, n_out] and ``in_spikes`` [B, n_in] (dense or a CSR array)
    hold one lockstep instance per row and ``codes`` its +1/-1 polarity.  The
    [n_out, n_in] result is a descent direction, written into ``out`` when
    given and else into a new presynaptic-major array; with no presynaptic
    spikes or a fully converged probability it is exactly zero.
    """
    post = hebbian_post(trace, codes, prob_fn, partition).T
    if out is None:
        out = np.empty((post.shape[0], in_spikes.shape[1]), order="F")
    return np.divide(post @ in_spikes, post.shape[1], out=out)


@dataclass(frozen=True)
class SpikingConfig:
    """All spiking-side knobs bundled for the trainer.

    Every part checks its own fields; the bundle adds no rule of its own.
    """

    lif: LIFConfig = field(default_factory=LIFConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    encoder: SpikeEncoderConfig = field(default_factory=SpikeEncoderConfig)
    tau_e: float = 0.999
    n_out: int = 200


def simulate(
    layer: DenseLayer,
    X: np.ndarray,
    spiking: SpikingConfig,
    rng: np.random.Generator,
    codes: Optional[np.ndarray] = None,
    prob_fn: Optional[ProbabilityFn] = None,
    eligibility: Optional[EligibilityTrace] = None,
    eta: Optional[float] = None,
) -> np.ndarray:
    """Simulate a stack of inputs [B, n_in] in lockstep; returns the final traces [B, n_out].

    Any other shape of ``X`` is a ConfigError, and its inputs must lie in
    [0, 1].  Each timestep, input i spikes with probability ``scale * x_i``,
    drawn for nonzero inputs only, and the spikes drive the layer as a
    sparse current.  LIF and trace state start fresh.  Plasticity
    is off unless the polarity ``codes`` (+1/-1 per row), ``prob_fn``, the
    ``eligibility`` trace and ``eta`` are all given; then each of the last
    ``active_window`` timesteps folds the row-mean Hebbian impulse through the
    eligibility trace into ``layer.weights``.  The impulse reads that step's
    output trace for both the modulation and the post factor.  Outside that
    window the weights are untouched.

    A plastic call needs one code per row of a nonempty batch and
    ``layer.weights`` and ``eligibility.e`` presynaptic-major
    (Fortran-ordered), else it is a ConfigError.  With one row and
    ``tau_e >= 1/2`` it runs event-driven: the LIF current and the updates
    touch only the synapses of inputs that spiked, and ``layer.weights`` and
    ``eligibility.e`` hold the real values again when the call returns.
    Every other call runs the dense rule.

    ``rng`` must be a numpy Generator, else it is a ConfigError.  Once the
    kernels have loaded (:mod:`ffa._kernels`), every call runs compiled but a
    plastic one under the sigmoid probability: one kernel call, for any trace
    kind and reset, that draws this loop's uniforms from ``rng`` itself and
    gives the same bits.
    """
    X, plastic = _checked_call(layer, X, rng, codes, prob_fn, eligibility, eta)
    rows = X.shape[0]
    x, cols, starts = _input_events(X)
    enc = spiking.encoder
    p = enc.scale * x
    event = plastic and rows == 1 and eligibility.tau_e >= _FOLD_BELOW
    active_start = enc.steps - enc.active_window if plastic else enc.steps
    # Plastic weights are presynaptic-major, so this is the live layer; a
    # row-major layer (a loaded checkpoint) is copied once per call.  scipy's
    # sparse product and the kernel read W.T by rows.
    weights = np.asfortranarray(layer.weights)
    kernels = _loaded_kernels(prob_fn if plastic else None)
    if kernels is not None:
        plasticity = {} if not plastic else _kernel_plasticity(
            layer, codes, prob_fn, eligibility, eta, event)
        return kernels.simulate(weights, spiking, p, cols, starts, rng, **plasticity)
    shape = (rows, layer.n_out)
    lif = LIFState.zeros(shape, spiking.lif)
    trace = OutputTrace.zeros(shape, spiking.trace)
    synapses = _EventSynapses(layer.weights, eligibility, eta) if event else None
    for t in range(enc.steps):
        fired = rate_encode(p, rng)
        if not event:
            spikes = _fired_spikes(cols, starts, fired, X.shape)
        # The output spikes stay a temporary: a [B, n_out] array held across
        # steps would raise eval's peak memory.
        trace_step(trace, lif_fire(lif, synapses.current(cols[fired])) if event
                   else lif_step(lif, weights, spikes))
        if t >= active_start:
            if event:
                synapses.step(hebbian_post(trace.value, codes, prob_fn, layer.partition)[0])
            else:
                hebbian_impulse(trace.value, spikes, codes, prob_fn, layer.partition, eligibility.impulse)
                eligibility_step(eligibility, layer.weights, eta)
    if event:
        synapses.fold()
    return trace.value


def simulate_online(
    layer: DenseLayer,
    X: np.ndarray,
    spiking: SpikingConfig,
    rng: np.random.Generator,
    codes: np.ndarray,
    prob_fn: ProbabilityFn,
    eligibility: EligibilityTrace,
    eta: float,
) -> np.ndarray:
    """Online training over the rows of ``X`` [B, n_in], one after another;
    returns the final traces [B, n_out].

    The rule is a loop of one-row plastic :func:`simulate` calls, row b with
    polarity ``codes[b]``, each updating ``layer.weights`` and ``eligibility``
    before the next starts, and that loop is what runs on numpy and under
    the sigmoid probability.  Any other block with ``tau_e >= 1/2`` is checked
    once and runs as one kernel call with the same bits.  The checks and
    errors are :func:`simulate`'s; plasticity is not optional here.
    """
    X, _ = _checked_call(layer, X, rng, codes, prob_fn, eligibility, eta, require_plasticity=True)
    kernels = _loaded_kernels(prob_fn)
    if kernels is None or eligibility.tau_e < _FOLD_BELOW:
        return np.concatenate([
            simulate(layer, X[b : b + 1], spiking, rng, codes[b : b + 1], prob_fn, eligibility, eta)
            for b in range(len(X))])
    x, cols, starts = _input_events(X)
    return kernels.simulate(layer.weights, spiking, spiking.encoder.scale * x, cols, starts, rng,
                            **_kernel_plasticity(layer, codes, prob_fn, eligibility, eta, True))


def _checked_call(layer, X, rng, codes, prob_fn, eligibility, eta, require_plasticity=False):
    """``X`` as a checked batch [B, n_in] and whether the call is plastic; a
    ConfigError when the arguments do not make a :func:`simulate` call (a
    plastic one, with ``require_plasticity``)."""
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"simulate needs a numpy Generator; got {type(rng).__name__}")
    given = [arg is not None for arg in (codes, prob_fn, eligibility, eta)]
    if (any(given) or require_plasticity) and not all(given):
        raise ConfigError("plasticity needs polarity codes, prob_fn, an eligibility trace and eta")
    plastic = all(given)
    if plastic and not (layer.weights.flags.f_contiguous and eligibility.e.flags.f_contiguous):
        raise ConfigError("plasticity needs presynaptic-major (Fortran-ordered) weights and "
                          "eligibility; see EligibilityTrace.zeros_like")
    X = layer.check_batch(X)
    rows = X.shape[0]
    if plastic and (rows == 0 or np.shape(codes) != (rows,)):
        raise ConfigError(f"plasticity needs one polarity code per row of a nonempty batch; "
                          f"got codes of shape {np.shape(codes)} for {rows} rows")
    return X, plastic


def _loaded_kernels(prob_fn: Optional[ProbabilityFn]):
    """:mod:`ffa._kernels` once it has loaded, else None; None too for a call plastic
    (``prob_fn`` given) under the sigmoid probability, whose libm ``exp`` is not numpy's."""
    if prob_fn is not None and not isinstance(prob_fn, SymmetricProb):
        return None
    from . import _kernels

    return _kernels if _kernels.library() is not None else None


def _kernel_plasticity(layer, codes, prob_fn, eligibility, eta, event) -> dict:
    """The plasticity arguments of a kernel call, event-driven when ``event`` is set."""
    return dict(e=eligibility.e, impulse=eligibility.impulse, tau_e=eligibility.tau_e, eta=eta,
                pos_mask=layer.partition.pos_mask, positive=codes > 0, epsilon=prob_fn.epsilon,
                fold_below=_FOLD_BELOW if event else None)


# Images per update of online training: each update is one simulate_online
# call over the block's 2 x ONLINE_BLOCK rows (0.7 MB of rows at MNIST shape).
ONLINE_BLOCK = 50


def train_hebbian(
    config: TrainConfig,
    data: ExperimentData,
    mode: str = "batch",
    spiking: Optional[SpikingConfig] = None,
    eval_fn: Optional[Callable[[DenseLayer, int], float]] = None,
) -> tuple[DenseLayer, list[EpochStats]]:
    """Train the spiking layer with per-timestep Hebbian updates.

    ``mode`` is "batch" (the 2 * config.batch_size instances of a batch run
    in lockstep and their impulses are averaged, mirroring the batch mean of
    the analog gradient) or "online" (every instance runs alone and updates
    the weights itself; config.batch_size is ignored).  Online training takes
    its images ``ONLINE_BLOCK`` at a time, one :func:`simulate_online` call
    per block; the epoch's shuffle, wrong labels, draws and statistics are
    those of one image at a time.  ``eval_fn`` reports test accuracy after
    each epoch when provided.
    """
    if mode not in ("batch", "online"):
        raise ConfigError("mode must be 'batch' or 'online'")
    spiking = spiking or SpikingConfig()
    prob_fn = config.prob_fn
    partition = partition_for(prob_fn, spiking.n_out)
    layer = DenseLayer.initialize(data.input_dim, spiking.n_out, partition, config.seed)
    layer.weights = np.asfortranarray(layer.weights)
    eligibility = EligibilityTrace.zeros_like(layer.weights, spiking.tau_e)
    online = mode == "online"

    def update(batch, codes, rng, stats):
        X = batch.rows(data.codebook)
        run = simulate_online if online else simulate
        final = run(layer, X, spiking, rng, codes, prob_fn, eligibility, config.eta)
        p = probability_batch(final, prob_fn, partition)
        if online:
            stats.update_each_row(final, codes, p)
        else:
            stats.update(final, codes, p)

    loop_config = replace(config, batch_size=ONLINE_BLOCK) if online else config
    return run_epochs(loop_config, data, layer, update, eval_fn, f"hebbian({mode})")
