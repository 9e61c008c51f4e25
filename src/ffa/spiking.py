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
event-driven: only the synapses of inputs that spiked are touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.sparse import csr_array

from .analog import DenseLayer, EpochStats, TrainConfig, partition_for, run_epochs
from .core import PolarityPartition, ProbabilityFn, modulation_batch, probability_batch
from .data import ExperimentData
from .errors import ConfigError, DataError, require

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

    ``impulse`` is a scratch buffer of the same shape: :func:`hebbian_impulse`
    writes the next impulse into it and :func:`eligibility_step` consumes
    it, so plastic timesteps allocate no weight-sized array.
    """

    e: np.ndarray
    tau_e: float
    impulse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        require({"tau_e must be in [0, 1)": 0.0 <= self.tau_e < 1.0})
        self.impulse = np.empty_like(self.e)

    @classmethod
    def zeros(cls, shape, tau_e: float) -> "EligibilityTrace":
        return cls(np.zeros(shape), tau_e)


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

    Between folds the arrays hold ``E`` and ``V`` with ``e = c * E`` and
    ``W = V + eta * C * E``, where ``c`` is the product of the tau_e decays
    so far and ``C`` the sum of those products.  The dense rule
    ``e += (1 - tau_e) * (impulse - e); W += eta * e`` then becomes
    ``c *= tau_e; E[:, idx] += (1 - tau_e) / c * post; V[:, idx] -= eta * C * that;
    C += c`` over the spiking inputs ``idx`` (Morrison, Diesmann & Gerstner
    2008).  :meth:`fold` writes the real values back in one dense pass.
    """

    def __init__(self, weights: np.ndarray, el: EligibilityTrace, eta: float):
        self.weights, self.e, self.scratch = weights, el.e, el.impulse
        self.tau_e, self.eta = el.tau_e, eta
        self.decay, self.decay_sum = 1.0, 0.0
        self.idx = np.empty(0, dtype=np.intp)

    def current(self, idx: np.ndarray) -> np.ndarray:
        """``W @ spikes`` as a sum over the spiking columns ``idx``, kept for :meth:`step`."""
        self.idx = idx
        current = self.weights[:, self.idx].sum(axis=1)
        if self.decay_sum:
            current += self.eta * self.decay_sum * self.e[:, self.idx].sum(axis=1)
        return current

    def step(self, post: np.ndarray) -> None:
        """One plastic timestep; ``post`` [n_out] is the impulse at each input that spiked."""
        self.decay *= self.tau_e
        if self.idx.size:
            delta = ((1.0 - self.tau_e) / self.decay * post)[:, None]
            self.e[:, self.idx] += delta
            self.weights[:, self.idx] -= self.eta * self.decay_sum * delta
        self.decay_sum += self.decay
        if self.decay < _FOLD_BELOW:
            self.fold()

    def fold(self) -> None:
        """Make the arrays hold the real ``W`` and ``e`` again."""
        if self.decay_sum:
            np.multiply(self.e, self.eta * self.decay_sum, out=self.scratch)
            self.weights += self.scratch
            self.e *= self.decay
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
    given; with no presynaptic spikes or a fully converged probability it is
    exactly zero.
    """
    post = hebbian_post(trace, codes, prob_fn, partition).T
    if out is None:
        out = np.empty((post.shape[0], in_spikes.shape[1]))
    return np.divide(post @ in_spikes, post.shape[1], out=out)


@dataclass(frozen=True)
class SpikingConfig:
    """All spiking-side knobs bundled for the trainer."""

    lif: LIFConfig = field(default_factory=LIFConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    encoder: SpikeEncoderConfig = field(default_factory=SpikeEncoderConfig)
    tau_e: float = 0.999
    n_out: int = 200
    modulation_window: str = "instantaneous"

    def __post_init__(self):
        require({
            "modulation_window must be 'instantaneous' or 'window_mean'":
                self.modulation_window in ("instantaneous", "window_mean"),
        })


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
    eligibility trace into ``layer.weights``.  Outside that window the weights
    are untouched.

    A plastic call with one row and ``tau_e >= 1/2`` runs event-driven: the
    LIF current and the updates touch only the synapses of inputs that
    spiked, and ``layer.weights`` and ``eligibility.e`` hold the real values
    again when the call returns.  Every other call runs the dense rule.
    """
    given = [arg is not None for arg in (codes, prob_fn, eligibility, eta)]
    plastic = all(given)
    if any(given) and not plastic:
        raise ConfigError("plasticity needs polarity codes, prob_fn, an eligibility trace and eta")
    X = layer.check_batch(X)
    x, cols, starts = _input_events(X)
    enc = spiking.encoder
    p = enc.scale * x
    shape = (X.shape[0], layer.n_out)
    lif = LIFState.zeros(shape, spiking.lif)
    trace = OutputTrace.zeros(shape, spiking.trace)
    active_start = enc.steps - enc.active_window if plastic else enc.steps
    window_mean = spiking.modulation_window == "window_mean"
    win_sum = np.zeros(shape) if window_mean else None
    event = plastic and X.shape[0] == 1 and eligibility.tau_e >= _FOLD_BELOW
    synapses = _EventSynapses(layer.weights, eligibility, eta) if event else None
    # scipy's sparse product reads W.T by rows and would copy the F-ordered view
    # each step, so the dense rule holds a C-ordered W.T (lif_step gets its
    # transpose) and refreshes it only after a plastic step moves the weights.
    weights_t = None if event else np.ascontiguousarray(layer.weights.T)
    for t in range(enc.steps):
        fired = rate_encode(p, rng)
        if not event:
            spikes = _fired_spikes(cols, starts, fired, X.shape)
        # The output spikes stay a temporary: a [B, n_out] array held across
        # steps would raise eval's peak memory.
        trace_step(trace, lif_fire(lif, synapses.current(cols[fired])) if event
                   else lif_step(lif, weights_t.T, spikes))
        if t >= active_start:
            if window_mean:
                win_sum += trace.value
                effective = win_sum / (t - active_start + 1)
            else:
                effective = trace.value
            if event:
                synapses.step(hebbian_post(effective, codes, prob_fn, layer.partition)[0])
            else:
                hebbian_impulse(effective, spikes, codes, prob_fn, layer.partition, eligibility.impulse)
                eligibility_step(eligibility, layer.weights, eta)
                np.copyto(weights_t, layer.weights.T)
    if event:
        synapses.fold()
    return trace.value


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
    the weights itself; config.batch_size is ignored).  ``eval_fn`` reports
    test accuracy after each epoch when provided.
    """
    if mode not in ("batch", "online"):
        raise ConfigError("mode must be 'batch' or 'online'")
    spiking = spiking or SpikingConfig()
    prob_fn = config.prob_fn
    partition = partition_for(prob_fn, spiking.n_out)
    layer = DenseLayer.initialize(data.input_dim, spiking.n_out, partition, config.seed)
    eligibility = EligibilityTrace.zeros(layer.weights.shape, spiking.tau_e)
    online = mode == "online"

    def update(X, codes, rng, stats):
        rows = 1 if online else len(X)
        for i in range(0, len(X), rows):
            x, c = X[i : i + rows], codes[i : i + rows]
            final = simulate(layer, x, spiking, rng, c, prob_fn, eligibility, config.eta)
            stats.update(final, c, probability_batch(final, prob_fn, partition))

    # Online pairs one image per batch, each row of which updates alone.
    loop_config = replace(config, batch_size=1) if online else config
    return run_epochs(loop_config, data, layer, update, eval_fn, f"hebbian({mode})")
