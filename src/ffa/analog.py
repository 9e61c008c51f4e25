"""Analog trainer: dense ReLU layer with exact layer-local gradients and ADAM.

The loss gradient of the layer never needs backpropagation: it factorizes in
closed form as ``modulation * relu' * 2*latent_j * input_i`` (see
:mod:`ffa.core`), so a whole batch reduces to a few matrix products.  The two
rows of a contrastive pair share their image, so each image is projected
once, in the forward pass and in the gradient.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .core import (
    PolarityPartition,
    ProbabilityFn,
    SigmoidProb,
    bce_batch,
    modulation_batch,
)
from .data import ExperimentData, LabelCodebook, PairBatch, batches, pair_codes
from .errors import ConfigError, DivergenceError, SilentLayerError, require

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
    def bias(self) -> None:
        # Read by perfbench/workloads.py's checkpoint round-trip check only.
        return None

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
    ) -> "DenseLayer":
        """Seeded uniform init in [-1/sqrt(n_in), +1/sqrt(n_in)]."""
        rng = np.random.default_rng([seed, 0x11A7])
        bound = 1.0 / np.sqrt(n_in)
        return cls(rng.uniform(-bound, bound, size=(n_out, n_in)), partition)


def _project_images(
    layer: DenseLayer, images: np.ndarray, n_tail: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split the weight product of rows ``[image ; tail]`` at the image's end.

    ``W [x ; t] = W_img x + W_tail t``, so an image shared by several rows is
    projected once.  Returns ``(images @ W_img.T, W_tail)`` for ``images``
    [m, n_in - n_tail]; any other shape is a ConfigError.
    """
    images = np.asarray(images, dtype=np.float64)
    n_img = layer.n_in - n_tail
    if images.ndim != 2 or images.shape[1] != n_img:
        raise ConfigError(
            f"images have shape {images.shape}, layer expects [Q, {n_img}] plus "
            f"{n_tail} code bits"
        )
    return images @ layer.weights[:, :n_img].T, layer.weights[:, n_img:]


def forward_batch(
    layer: DenseLayer, X: np.ndarray, tail: Optional[np.ndarray] = None
) -> np.ndarray:
    """ReLU latents [B, n_out] of inputs [B, n_in], or of the rows ``[X[b // r] ; tail[b]]``.

    With a ``tail`` [B, n_t], ``X`` holds m shared images [m, n_in - n_t] and
    each one heads r = B / m consecutive rows.
    """
    if tail is None:
        return np.maximum(layer.check_batch(X) @ layer.weights.T, 0.0)
    tail = np.asarray(tail, dtype=np.float64)
    if tail.ndim != 2:
        raise ConfigError(f"tail has shape {tail.shape}, expected [B, n_t]")
    projected, w_tail = _project_images(layer, X, tail.shape[1])
    if not len(projected) or len(tail) % len(projected):
        raise ConfigError(f"a tail of {len(tail)} rows does not split over {len(projected)} images")
    product = np.repeat(projected, len(tail) // len(projected), axis=0)
    product += tail @ w_tail.T
    return np.maximum(product, 0.0)


def forward_labelled(
    layer: DenseLayer, images: np.ndarray, codebook: LabelCodebook
) -> Iterator[np.ndarray]:
    """ReLU latents [Q, n_out] of ``[images ; codeword c]`` for each label c in order.

    The images are projected once and the ten codewords once, so each label
    costs one add, not a GEMM.
    """
    projected, w_code = _project_images(layer, images, codebook.length)
    for code_row in codebook.vectors @ w_code.T:
        yield np.maximum(projected + code_row, 0.0)


def layer_gradient(
    layer: DenseLayer,
    X: np.ndarray,
    codes: np.ndarray,
    prob_fn: ProbabilityFn,
    tail: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form mean loss gradient over the rows of :func:`forward_batch` with +1/-1 ``codes``.

    The rows are ``X`` [B, n_in] itself, or with a ``tail`` [B, n_t] the
    rows ``[X[b // r] ; tail[b]]`` of m shared images.  Returns ``(grad_w,
    p, latent)``: the weight gradient and the per-row probabilities and
    latents.  Per row d L / d w_ij is ``-(modulation_j) * relu'(a_j) *
    2*latent_j * x_i`` (the modulation is a descent direction, hence the
    leading minus), so neurons left inactive by the ReLU contribute exactly
    zero; ``relu'(a_j)`` is ``latent_j > 0``, since the latent is
    ``max(a_j, 0)``.  The image block of
    ``post.T @ rows`` is ``(sum of each image's post rows).T @ X``: each
    image enters the product once.
    """
    X = np.asarray(X, dtype=np.float64)
    tail = None if tail is None else np.asarray(tail, dtype=np.float64)
    rows = len(X) if tail is None else len(tail)
    if rows == 0:
        raise ConfigError("gradient of an empty batch is undefined")
    latent = forward_batch(layer, X, tail)
    p, modulation = modulation_batch(latent, codes, prob_fn, layer.partition)
    post = modulation * (latent > 0.0) * 2.0 * latent
    # the mean's 1/B and the descent sign go on this [B, n_out] factor, not on the gradient
    post /= -rows
    n_img = layer.n_in if tail is None else layer.n_in - tail.shape[1]
    grad_w = np.empty_like(layer.weights)
    np.matmul(post.reshape(len(X), -1, layer.n_out).sum(axis=1).T, X, out=grad_w[:, :n_img])
    if tail is not None:
        np.matmul(post.T, tail, out=grad_w[:, n_img:])
    return grad_w, p, latent


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# Elements per ADAM tile: 256 KiB per float64 operand, so the six operands of
# a tile stay in a 2 MiB L2 cache across its fourteen passes.
ADAM_TILE = 1 << 15


@dataclass
class AdamState:
    """First/second moment buffers for the ADAM update, C-contiguous.

    ``scratch`` holds two buffers of one tile each for the step's
    intermediates, so a step allocates no tensor-sized array.
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        require({"ADAM moments must be C-contiguous":
                 self.m.flags.c_contiguous and self.v.flags.c_contiguous})
        tile = min(self.m.size, ADAM_TILE)
        self.scratch = (np.empty(tile), np.empty(tile))

    @classmethod
    def zeros_like(cls, tensor: np.ndarray) -> "AdamState":
        return cls(np.zeros(tensor.shape), np.zeros(tensor.shape))


def adam_step(tensor: np.ndarray, grad: np.ndarray, state: AdamState, eta: float) -> None:
    """One bias-corrected ADAM descent step on ``tensor``, in place.

    ``m += (1 - b1)(g - m); v += (1 - b2)(g^2 - v);
    tensor -= eta * (m / c1) / (sqrt(v / c2) + eps)`` with ``c = 1 - b^step``,
    each operation rounded as written, into the state's scratch buffers.
    The step runs over flat tiles of ``ADAM_TILE`` elements, so a tile's
    operands stay in cache from the first operation to the last; elementwise
    operations give the same bits in any tiling.  ``tensor`` must be
    C-contiguous.  On C-contiguous float64 arrays the step runs as one
    compiled pass per element (:mod:`ffa._kernels`) when the kernels have
    loaded; it performs the same operations in the same order.
    """
    if grad.shape != tensor.shape:
        raise ConfigError(f"gradient shape {grad.shape} != tensor {tensor.shape}")
    if not tensor.flags.c_contiguous:
        raise ConfigError("ADAM steps a C-contiguous tensor in place")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    from . import _kernels

    if _kernels.library() is not None and all(
        x.dtype == np.float64 and x.flags.c_contiguous for x in (tensor, grad, state.m, state.v)
    ):
        _kernels.adam(tensor, grad, state.m, state.v, 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2,
                      c1, c2, eta, ADAM_EPS)
        return
    flat = [x.reshape(-1) for x in (tensor, grad, state.m, state.v)]
    for start in range(0, tensor.size, ADAM_TILE):
        w, g, m, v = (x[start : start + ADAM_TILE] for x in flat)
        a, b = (buffer[: w.size] for buffer in state.scratch)
        np.subtract(g, m, out=a)
        a *= 1.0 - ADAM_BETA1
        m += a
        np.multiply(g, g, out=b)
        b -= v
        b *= 1.0 - ADAM_BETA2
        v += b
        np.divide(m, c1, out=a)
        a *= eta
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        w -= a


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
            "seed must be >= 0": self.seed >= 0,
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

    def update_each_row(self, latents: np.ndarray, codes: np.ndarray, p: np.ndarray) -> None:
        """:meth:`update` once per row in row order, in one pass: each total
        adds its rows one at a time, where :meth:`update` adds a row sum."""
        g = np.einsum("bj,bj->b", latents, latents)
        pos = codes > 0
        self.g_pos = _add_in_turn(self.g_pos, g[pos])
        self.n_pos += int(pos.sum())
        self.g_neg = _add_in_turn(self.g_neg, g[~pos])
        self.n_neg += int((~pos).sum())
        self.loss = _add_in_turn(self.loss, bce_batch(p, codes))
        self.n_loss += len(p)

    def finish(self, epoch: int, test_accuracy: float) -> EpochStats:
        return EpochStats(
            epoch=epoch,
            mean_goodness_pos=self.g_pos / max(self.n_pos, 1),
            mean_goodness_neg=self.g_neg / max(self.n_neg, 1),
            train_loss=self.loss / max(self.n_loss, 1),
            test_accuracy=test_accuracy,
        )


def _add_in_turn(total: float, terms: np.ndarray) -> float:
    """``total`` plus each of ``terms`` in turn, left to right (``np.add.accumulate``)."""
    return np.add.accumulate(np.concatenate(([total], terms)))[-1]


def check_finite(weights: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(weights)):
        raise DivergenceError(f"non-finite weights after {context}")


# run_epochs checks the weights for non-finite values each time this many
# more training images have gone through updates, as well as at epoch end, so
# a long epoch stops soon after it diverges.
FINITE_CHECK_EVERY = 1000


def check_active(stats: _RunningStats, context: str) -> None:
    """A SilentLayerError when every latent ``stats`` saw was exactly zero."""
    if stats.n_pos + stats.n_neg and stats.g_pos == 0.0 and stats.g_neg == 0.0:
        raise SilentLayerError(f"silent layer: every training latent was zero in {context}")


def run_epochs(
    config: TrainConfig,
    data: ExperimentData,
    layer: DenseLayer,
    update: Callable[[PairBatch, np.ndarray, np.random.Generator, _RunningStats], None],
    eval_fn: Optional[Callable[[DenseLayer, int], float]],
    name: str,
) -> tuple[DenseLayer, list[EpochStats]]:
    """The epoch protocol shared by every trainer.

    Each epoch hands every shuffled contrastive batch of ``data.train`` to
    ``update(batch, codes, rng, stats)``, which moves ``layer`` in place,
    with a generator seeded by (seed, epoch), and checks the weights are
    finite after each update that takes the epoch's image count past a
    multiple of ``FINITE_CHECK_EVERY``; at the end it checks
    them again and that some latent was not zero (a silent layer cannot learn),
    reports ``eval_fn(layer, epoch)`` (NaN in the log when omitted) and logs
    one line under ``name``.
    """
    log: list[EpochStats] = []
    for epoch in range(config.epochs):
        stats = _RunningStats()
        rng = np.random.default_rng([config.seed, epoch, 0x5E1])
        images = 0
        for step, batch in enumerate(batches(data.train, config.batch_size, config.seed, epoch), 1):
            update(batch, pair_codes(len(batch)), rng, stats)
            seen, images = images, images + len(batch.images)
            if images // FINITE_CHECK_EVERY > seen // FINITE_CHECK_EVERY:
                check_finite(layer.weights, f"epoch {epoch}, update {step}")
        check_finite(layer.weights, f"epoch {epoch}")
        check_active(stats, f"epoch {epoch}")
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
) -> tuple[DenseLayer, list[EpochStats]]:
    """Train a single dense ReLU layer with layer-local gradients and ADAM.

    ``eval_fn`` reports test accuracy after every epoch (see
    :func:`run_epochs`).  Training is deterministic for a fixed config and
    seed.
    """
    partition = partition_for(config.prob_fn, n_out)
    layer = DenseLayer.initialize(data.input_dim, n_out, partition, config.seed)
    adam = AdamState.zeros_like(layer.weights)

    def update(batch, codes, rng, stats):
        grad, p, latent = layer_gradient(
            layer, batch.images, codes, config.prob_fn, batch.codewords(data.codebook)
        )
        adam_step(layer.weights, grad, adam, config.eta)
        stats.update(latent, codes, p)

    return run_epochs(config, data, layer, update, eval_fn, "analog")
