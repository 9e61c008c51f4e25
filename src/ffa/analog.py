"""Analog trainer: dense ReLU layer with exact layer-local gradients and ADAM.

The loss gradient of the layer never needs backpropagation: it factorizes in
closed form as ``modulation * relu' * 2*latent_j * input_i`` (see
:mod:`ffa.core`), so a whole batch reduces to two matrix products.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .core import (
    PolarityPartition,
    ProbabilityFn,
    SigmoidProb,
    bce_batch,
    modulation_batch,
)
from .data import ExperimentData, LabelCodebook, batches, check_labels, pair_codes
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

    def check_batch(self, X: np.ndarray) -> np.ndarray:
        """``X`` as a float64 stack of inputs [B, n_in]; any other shape is a ConfigError."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_in:
            raise ConfigError(f"batch has shape {X.shape}, layer expects [B, {self.n_in}]")
        return X

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


def _bias_relu(layer: DenseLayer, product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The layer rule after the weight product ``W x``: (pre-activation ``W x + b``, ReLU latent)."""
    preact = product if layer.bias is None else product + layer.bias
    return preact, np.maximum(preact, 0.0)


def forward_batch(layer: DenseLayer, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass over a stack of inputs [B, n_in]."""
    X = layer.check_batch(X)
    return _bias_relu(layer, X @ layer.weights.T)


def forward_labelled(
    layer: DenseLayer, images: np.ndarray, codebook: LabelCodebook, label_sets: Iterable
) -> Iterator[np.ndarray]:
    """ReLU latents [Q, n_out] of ``[images ; codeword]`` for each entry of ``label_sets``.

    An entry is one label for every row or one label per row.  The input is
    an image part plus a code part, so the pre-activation splits as
    ``W_img x + W_code c + b``: the images are projected once, the ten
    codewords once, and each entry costs one gather and add, not a GEMM.
    """
    images = np.asarray(images, dtype=np.float64)
    n_img = layer.n_in - codebook.length
    if images.ndim != 2 or images.shape[1] != n_img:
        raise ConfigError(
            f"images have shape {images.shape}, layer expects [Q, {n_img}] plus "
            f"{codebook.length} code bits"
        )
    projected = images @ layer.weights[:, :n_img].T
    code_table = codebook.vectors @ layer.weights[:, n_img:].T
    for labels in label_sets:
        yield _bias_relu(layer, projected + code_table[check_labels(labels)])[1]


def layer_gradient(
    layer: DenseLayer,
    X: np.ndarray,
    codes: np.ndarray,
    prob_fn: ProbabilityFn,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Closed-form mean loss gradient over the rows of ``X`` [B, n_in] with +1/-1 ``codes``.

    Returns ``(grad_w, grad_b, p, latent)``: the weight and bias (None
    without a bias) gradients and the per-row probabilities and latents.
    Per sample d L / d w_ij is ``-(modulation_j) * relu'(a_j) * 2*latent_j * x_i``
    (the modulation is a descent direction, hence the leading minus), so
    neurons left inactive by the ReLU contribute exactly zero.
    """
    if len(X) == 0:
        raise ConfigError("gradient of an empty batch is undefined")
    preact, latent = forward_batch(layer, X)
    p, modulation = modulation_batch(latent, codes, prob_fn, layer.partition)
    post = modulation * (preact > 0.0) * 2.0 * latent
    grad_w = -(post.T @ X) / X.shape[0]
    grad_b = -post.mean(axis=0) if layer.bias is not None else None
    return grad_w, grad_b, p, latent


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers for the ADAM update.

    ``scratch`` holds two buffers of the same shape for the step's
    intermediates, so a step allocates no tensor-sized array.
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def zeros_like(cls, tensor: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(tensor), np.zeros_like(tensor))


def adam_step(tensor: np.ndarray, grad: np.ndarray, state: AdamState, eta: float) -> None:
    """One bias-corrected ADAM descent step on ``tensor`` (weights or bias), in place.

    ``m += (1 - b1)(g - m); v += (1 - b2)(g^2 - v);
    tensor -= eta * (m / c1) / (sqrt(v / c2) + eps)`` with ``c = 1 - b^step``,
    each operation rounded as written, into the state's scratch buffers.
    """
    if grad.shape != tensor.shape:
        raise ConfigError(f"gradient shape {grad.shape} != tensor {tensor.shape}")
    state.step += 1
    a, b = state.scratch
    np.subtract(grad, state.m, out=a)
    a *= 1.0 - ADAM_BETA1
    state.m += a
    np.multiply(grad, grad, out=b)
    b -= state.v
    b *= 1.0 - ADAM_BETA2
    state.v += b
    np.divide(state.m, 1.0 - ADAM_BETA1**state.step, out=a)
    a *= eta
    np.divide(state.v, 1.0 - ADAM_BETA2**state.step, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    tensor -= a


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
        self.g_pos = self.g_neg = self.loss = 0.0
        self.n_pos = self.n_neg = self.n_loss = 0

    def update(self, latents: np.ndarray, codes: np.ndarray, p: np.ndarray) -> None:
        g = np.einsum("bj,bj->b", latents, latents)
        pos = codes > 0
        self.g_pos += g[pos].sum()
        self.n_pos += int(pos.sum())
        self.g_neg += g[~pos].sum()
        self.n_neg += int((~pos).sum())
        self.loss += bce_batch(p, codes).sum()
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


def run_epochs(
    config: TrainConfig,
    data: ExperimentData,
    layer: DenseLayer,
    update: Callable[[np.ndarray, np.ndarray, np.random.Generator, _RunningStats], None],
    eval_fn: Optional[Callable[[DenseLayer, int], float]],
    name: str,
) -> tuple[DenseLayer, list[EpochStats]]:
    """The epoch protocol shared by every trainer.

    Each epoch hands every shuffled contrastive batch of ``data.train`` to
    ``update(X, codes, rng, stats)``, which moves ``layer`` in place, with a
    generator seeded by (seed, epoch); then it checks the weights are
    finite, reports ``eval_fn(layer, epoch)`` (NaN in the log when
    omitted) and logs one line under ``name``.
    """
    log: list[EpochStats] = []
    for epoch in range(config.epochs):
        stats = _RunningStats()
        rng = np.random.default_rng([config.seed, epoch, 0x5E1])
        for X in batches(data.train, data.codebook, config.batch_size, config.seed, epoch):
            update(X, pair_codes(len(X)), rng, stats)
        check_finite(layer.weights, f"epoch {epoch}")
        accuracy = eval_fn(layer, epoch) if eval_fn is not None else float("nan")
        entry = stats.finish(epoch, accuracy)
        log.append(entry)
        logger.info("%s epoch %d: loss=%.4f g+=%.3f g-=%.3f acc=%.4f", name, epoch,
                    entry.train_loss, entry.mean_goodness_pos, entry.mean_goodness_neg, accuracy)
    return layer, log


def train_analog(
    config: TrainConfig,
    data: ExperimentData,
    eval_fn: Optional[Callable[[DenseLayer, int], float]] = None,
    n_out: int = 200,
    use_bias: bool = False,
) -> tuple[DenseLayer, list[EpochStats]]:
    """Train a single dense ReLU layer with layer-local gradients and ADAM.

    ``eval_fn`` reports test accuracy after every epoch (see
    :func:`run_epochs`).  Training is deterministic for a fixed config and
    seed.
    """
    partition = partition_for(config.prob_fn, n_out)
    layer = DenseLayer.initialize(data.input_dim, n_out, partition, config.seed, use_bias)
    adam = AdamState.zeros_like(layer.weights)
    adam_bias = AdamState.zeros_like(layer.bias) if use_bias else None

    def update(X, codes, rng, stats):
        grad, grad_b, p, latent = layer_gradient(layer, X, codes, config.prob_fn)
        adam_step(layer.weights, grad, adam, config.eta)
        if grad_b is not None:
            adam_step(layer.bias, grad_b, adam_bias, config.eta)
        stats.update(latent, codes, p)

    return run_epochs(config, data, layer, update, eval_fn, "analog")
