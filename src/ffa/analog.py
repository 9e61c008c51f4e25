"""Analog trainer: dense ReLU layer with exact layer-local gradients and ADAM.

The loss gradient of the layer never needs backpropagation: it factorizes in
closed form as ``modulation * relu' * 2*latent_j * input_i`` (see
:mod:`ffa.core`), so a whole batch reduces to two matrix products.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    PolarityPartition,
    ProbabilityFn,
    SigmoidProb,
    bce_batch,
    modulation_batch,
)
from .data import ContrastiveSample, ExperimentData, batches
from .errors import ConfigError, DivergenceError, require

logger = logging.getLogger(__name__)


def partition_for(prob_fn: ProbabilityFn, n_out: int) -> PolarityPartition:
    """Sigmoid treats every neuron as positive; symmetric splits the layer."""
    if isinstance(prob_fn, SigmoidProb):
        return PolarityPartition.all_positive(n_out)
    return PolarityPartition.split_halves(n_out)


@dataclass
class DenseLayer:
    """Weight matrix [n_out, n_in] with a polarity split over its outputs."""

    weights: np.ndarray
    partition: PolarityPartition
    bias: Optional[np.ndarray] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ConfigError("weights must be a 2-D matrix")
        if self.partition.n != self.weights.shape[0]:
            raise ConfigError(
                f"partition covers {self.partition.n} neurons, layer has "
                f"{self.weights.shape[0]}"
            )

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def initialize(
        cls,
        n_in: int,
        n_out: int,
        partition: PolarityPartition,
        seed: int,
        use_bias: bool = False,
    ) -> "DenseLayer":
        """Seeded uniform init in [-1/sqrt(n_in), +1/sqrt(n_in)]."""
        rng = np.random.default_rng([seed, 0x11A7])
        bound = 1.0 / np.sqrt(n_in)
        weights = rng.uniform(-bound, bound, size=(n_out, n_in))
        bias = np.zeros(n_out) if use_bias else None
        return cls(weights, partition, bias)


def forward(layer: DenseLayer, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-input forward pass: returns (pre-activation, ReLU latent)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.n_in,):
        raise ConfigError(f"input has shape {x.shape}, layer expects ({layer.n_in},)")
    preact = layer.weights @ x
    if layer.bias is not None:
        preact = preact + layer.bias
    return preact, np.maximum(preact, 0.0)


def forward_batch(layer: DenseLayer, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass over a stack of inputs [B, n_in]."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != layer.n_in:
        raise ConfigError(f"batch has shape {X.shape}, layer expects [B, {layer.n_in}]")
    preact = X @ layer.weights.T
    if layer.bias is not None:
        preact = preact + layer.bias
    return preact, np.maximum(preact, 0.0)


def _closed_form_gradient(
    layer: DenseLayer,
    X: np.ndarray,
    polarities,
    prob_fn: ProbabilityFn,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Weight (and bias) gradient plus the probabilities and latents behind it."""
    preact, latent = forward_batch(layer, X)
    p, modulation = modulation_batch(latent, polarities, prob_fn, layer.partition)
    post = modulation * (preact > 0.0) * 2.0 * latent
    grad_w = -(post.T @ X) / X.shape[0]
    grad_b = -post.mean(axis=0) if layer.bias is not None else None
    return grad_w, grad_b, p, latent


def layer_gradient(
    layer: DenseLayer,
    batch: Sequence[ContrastiveSample],
    prob_fn: ProbabilityFn,
) -> np.ndarray:
    """Mean loss gradient d L / d w over a batch, in closed form.

    Per sample the gradient of the cross-entropy loss with respect to w_ij
    is ``-(modulation_j) * relu'(a_j) * 2*latent_j * x_i`` (the modulation is
    a descent direction, hence the leading minus).  Neurons left inactive by
    the ReLU contribute exactly zero.
    """
    if not batch:
        raise ConfigError("gradient of an empty batch is undefined")
    X = np.stack([s.input for s in batch])
    polarities = [s.polarity for s in batch]
    grad, _, _, _ = _closed_form_gradient(layer, X, polarities, prob_fn)
    return grad


@dataclass
class AdamState:
    """First/second moment buffers for the ADAM update."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros_like(cls, weights: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(weights), np.zeros_like(weights))


def _adam_update(tensor: np.ndarray, grad: np.ndarray, state: AdamState, eta: float) -> None:
    state.step += 1
    state.m += (1.0 - state.beta1) * (grad - state.m)
    state.v += (1.0 - state.beta2) * (grad * grad - state.v)
    m_hat = state.m / (1.0 - state.beta1**state.step)
    v_hat = state.v / (1.0 - state.beta2**state.step)
    tensor -= eta * m_hat / (np.sqrt(v_hat) + state.eps)


def adam_step(layer: DenseLayer, grad: np.ndarray, state: AdamState, eta: float) -> None:
    """One bias-corrected ADAM descent step on the weights, in place."""
    if grad.shape != layer.weights.shape:
        raise ConfigError(f"gradient shape {grad.shape} != weights {layer.weights.shape}")
    _adam_update(layer.weights, grad, state, eta)


@dataclass
class TrainConfig:
    """Knobs shared by both trainers."""

    eta: float = 0.01
    batch_size: int = 50
    epochs: int = 10
    seed: int = 0
    prob_fn: ProbabilityFn = field(default_factory=SigmoidProb)

    def __post_init__(self):
        require({
            "eta must be positive": self.eta > 0,
            "batch_size must be >= 1": self.batch_size >= 1,
            "epochs must be >= 0": self.epochs >= 0,
        })


@dataclass
class EpochStats:
    epoch: int
    mean_goodness_pos: float
    mean_goodness_neg: float
    train_loss: float
    test_accuracy: float


class _RunningStats:
    """Accumulates the per-epoch goodness/loss aggregates."""

    def __init__(self):
        self.g_pos = 0.0
        self.n_pos = 0
        self.g_neg = 0.0
        self.n_neg = 0
        self.loss = 0.0
        self.n_loss = 0

    def update(self, latents: np.ndarray, polarities, p: np.ndarray) -> None:
        g = np.einsum("bj,bj->b", latents, latents)
        codes = np.asarray([pol.value for pol in polarities])
        self.g_pos += g[codes > 0].sum()
        self.n_pos += int((codes > 0).sum())
        self.g_neg += g[codes < 0].sum()
        self.n_neg += int((codes < 0).sum())
        self.loss += bce_batch(p, polarities).sum()
        self.n_loss += len(p)

    def finish(self, epoch: int, test_accuracy: float) -> EpochStats:
        return EpochStats(
            epoch=epoch,
            mean_goodness_pos=self.g_pos / max(self.n_pos, 1),
            mean_goodness_neg=self.g_neg / max(self.n_neg, 1),
            train_loss=self.loss / max(self.n_loss, 1),
            test_accuracy=test_accuracy,
        )


def check_finite(weights: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(weights)):
        raise DivergenceError(f"non-finite weights after {context}")


def train_analog(
    config: TrainConfig,
    data: ExperimentData,
    eval_fn: Optional[Callable[[DenseLayer], float]] = None,
    n_out: int = 200,
    use_bias: bool = False,
) -> tuple[DenseLayer, list[EpochStats]]:
    """Train a single dense ReLU layer with layer-local gradients and ADAM.

    ``eval_fn`` is called after every epoch to report test accuracy (NaN in
    the log when omitted).  Training is deterministic for a fixed config and
    seed.
    """
    partition = partition_for(config.prob_fn, n_out)
    layer = DenseLayer.initialize(data.input_dim, n_out, partition, config.seed, use_bias)
    adam = AdamState.zeros_like(layer.weights)
    adam_bias = AdamState.zeros_like(layer.bias) if use_bias else None
    log: list[EpochStats] = []
    for epoch in range(config.epochs):
        stats = _RunningStats()
        for batch in batches(data.train, data.codebook, config.batch_size, config.seed, epoch):
            X = np.stack([s.input for s in batch])
            polarities = [s.polarity for s in batch]
            grad, grad_b, p, latent = _closed_form_gradient(layer, X, polarities, config.prob_fn)
            adam_step(layer, grad, adam, config.eta)
            if grad_b is not None:
                _adam_update(layer.bias, grad_b, adam_bias, config.eta)
            stats.update(latent, polarities, p)
        check_finite(layer.weights, f"epoch {epoch}")
        accuracy = eval_fn(layer) if eval_fn is not None else float("nan")
        entry = stats.finish(epoch, accuracy)
        log.append(entry)
        logger.info(
            "analog epoch %d: loss=%.4f g+=%.3f g-=%.3f acc=%.4f",
            epoch,
            entry.train_loss,
            entry.mean_goodness_pos,
            entry.mean_goodness_neg,
            entry.test_accuracy,
        )
    return layer, log
