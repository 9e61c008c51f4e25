"""Evaluation: goodness-scan classification, sparsity and separability metrics.

Inference embeds each of the ten candidate labels in turn and predicts the
label whose latent scores highest: total goodness under the sigmoid
probability, positive-partition goodness under the symmetric one.

A latent runner computes those latents.  ``run(layer, images, codebook)``
yields the ten label passes in label order: pass c is the [Q, n_out] latents
of ``[images ; codeword c]``.  :func:`scan` is the one consumer, so the
latents that :func:`evaluate` scores and ``ffa export`` writes are the ones
each row's true-label pass gave.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator

import numpy as np

from .analog import DenseLayer, forward_labelled
from .atomic import atomic_write
from .core import ProbabilityFn, SigmoidProb, row_sums
from .data import Dataset, LabelCodebook, embed_batch
from .errors import DataError
from .forks import fork_map
from .spiking import SpikingConfig, simulate

LatentRunner = Callable[[DenseLayer, np.ndarray, LabelCodebook], Iterator[np.ndarray]]


def analog_runner() -> LatentRunner:
    """Latents via the ReLU forward pass, factored: each image is projected once per call."""
    return forward_labelled


def spiking_runner(spiking: SpikingConfig, seed: int, epoch: int = 0) -> LatentRunner:
    """Latents via a plasticity-free spiking simulation, one per label pass.

    The encoder is stochastic, so pass e of the runner's k-th call draws from
    its own generator, keyed by ``(seed, epoch, k, e)``: a given sequence of
    calls is reproducible, and each epoch's evaluation gets its own streams.
    The analog and spiking layers are the same weights, so any layer runs
    here, trained on either substrate.  The passes of a call run in
    :func:`~ffa.forks.fork_map` over the usable cores; each needs only its
    index, so the latents do not depend on how many cores ran them.  The
    compiled kernels, which run every plasticity-free pass, or else
    ``scipy.sparse`` are loaded before the fork.
    """
    calls = count()

    def run(layer: DenseLayer, images: np.ndarray,
            codebook: LabelCodebook) -> Iterator[np.ndarray]:
        key = [seed, epoch, 0xE7A1, next(calls)]
        # One row buffer per call, its code columns rewritten by each pass: a fresh
        # [Q, n_in] array per pass costs a new mapping and its page faults every pass.
        rows = embed_batch(images, 0, codebook)

        def latents(label: int) -> np.ndarray:
            rows[:, -codebook.length:] = codebook.vectors[label]
            return simulate(layer, rows, spiking, np.random.default_rng([*key, label]))

        # What simulate runs on is loaded here, once, not in every forked child.
        from . import _kernels

        if _kernels.library() is None:
            import scipy.sparse  # noqa: F401
        return fork_map(latents, range(10), len(os.sched_getaffinity(0)))

    return run


def goodness_scores(
    latents: np.ndarray, prob_fn: ProbabilityFn, layer: DenseLayer
) -> np.ndarray:
    """Per-row classification score: total or positive-partition goodness, the
    latter summed as the symmetric probability sums it (:func:`~ffa.core.row_sums`)."""
    sq = latents * latents
    if isinstance(prob_fn, SigmoidProb):
        return sq.sum(axis=1)
    return row_sums(sq[:, layer.partition.pos_mask])


def scan(
    layer: DenseLayer,
    dataset: Dataset,
    codebook: LabelCodebook,
    runner: LatentRunner,
    prob_fn: ProbabilityFn,
    chunk: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """Goodness-scan predictions [Q], ties to the lowest label, and the latents [Q, n] it
    scored for each row's true label: one runner call per chunk yields the ten label
    passes, and label c's pass gives the rows labelled c.  An empty dataset is a DataError.
    """
    if len(dataset) == 0:
        raise DataError("cannot score an empty dataset")
    predictions = np.empty(len(dataset), dtype=np.int64)
    true_latents = np.empty((len(dataset), layer.n_out))
    for start in range(0, len(dataset), chunk):
        rows = slice(start, start + chunk)
        images, labels = dataset.images_at(rows), dataset.labels[rows]
        scores = np.empty((images.shape[0], 10))
        for c, latents in zip(range(10), runner(layer, images, codebook), strict=True):
            scores[:, c] = goodness_scores(latents, prob_fn, layer)
            true_latents[rows][labels == c] = latents[labels == c]
        predictions[rows] = np.argmax(scores, axis=1)
    return predictions, true_latents


def accuracy(
    layer: DenseLayer,
    dataset: Dataset,
    codebook: LabelCodebook,
    runner: LatentRunner,
    prob_fn: ProbabilityFn,
) -> float:
    """Goodness-scan accuracy over a dataset."""
    predictions, _ = scan(layer, dataset, codebook, runner, prob_fn)
    return int((predictions == dataset.labels).sum()) / len(dataset)


@dataclass
class LatentDump:
    """Latent vectors of a dataset split with their true labels."""

    latents: np.ndarray  # [Q, n]
    labels: np.ndarray  # [Q]

    def __post_init__(self):
        self.latents = np.atleast_2d(np.asarray(self.latents, dtype=np.float64))
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.latents.shape[0] != self.labels.shape[0]:
            raise DataError("latents/labels length mismatch")


def hoyer_summary(latents: np.ndarray) -> tuple[float, float, int]:
    """Mean and std of the Hoyer index over rows, plus the count of dead latents.

    The Hoyer index is the normalized L1/L2 sparsity of a row in [0, 1]: 0
    uniform, 1 one-hot; it needs at least 2 components.  An all-zero row is
    0/0 under the formula and is defined as 1.0 (maximally sparse) so metric
    sweeps survive dead latents.
    """
    latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
    if latents.shape[1] < 2:
        raise DataError("the hoyer index needs latents of at least 2 components")
    l2 = np.sqrt(np.einsum("qj,qj->q", latents, latents))
    l1 = np.abs(latents).sum(axis=1)
    root_n = math.sqrt(latents.shape[1])
    alive = l2 != 0.0
    values = np.ones(latents.shape[0])
    values[alive] = (root_n - l1[alive] / l2[alive]) / (root_n - 1.0)
    return float(values.mean()), float(values.std()), int((~alive).sum())


# Query rows per exact recompute; their union of candidate columns stays near 8 * k_nn.
_RECOMPUTE_ROWS = 8


def _screen_error_bound(n: int, sq_norms: np.ndarray) -> np.ndarray:
    """Per query row a, a bound E_a >= |screen - cdist| over every pair (a, b) of n features.

    With g(m) = m*u / (1 - m*u) and u the unit roundoff, the two squared norms
    together err by at most g(n)(|a|^2 + |b|^2), and so does twice the dot product
    (2|a||b| <= |a|^2 + |b|^2); the screen's two final roundings add at most
    4u(1 + g(n))(|a|^2 + |b|^2), and cdist's feature-order sum errs by at most
    g(n+2)|a - b|^2 <= 2g(n+2)(|a|^2 + |b|^2).  In all that is below
    g(4n + 16)(|a|^2 + |b|^2), and |b|^2 <= max |b|^2.  The factor 2 covers the
    rounding of the norms, of this bound and of the threshold; the absolute term
    covers underflow, gradual or flushed to zero, in the 4n products.
    """
    u = np.finfo(np.float64).eps / 2
    m = 4 * n + 16
    gamma = m * u / (1 - m * u)
    return 2 * gamma * (sq_norms + sq_norms.max()) + m * np.finfo(np.float64).tiny


def separability_index(dump: LatentDump, k_nn: int = 5, chunk: int = 256) -> float:
    """Mean fraction of the k nearest latent neighbors sharing the true label.

    Exact Euclidean neighbors, query point excluded: the distance is scipy's
    ``cdist(..., "sqeuclidean")``, a sum of squared differences in feature order,
    and exact distance ties resolve in index order.  Per chunk of query rows, one
    GEMM screen ``|a|^2 + |b|^2 - 2 a.b`` finds each row's k-th screened distance t;
    only columns screened within 2E of t can be among the k nearest, where E bounds
    the rounding gap between screen and cdist (see ``_screen_error_bound``).  Those
    candidates are recomputed with cdist and sorted, so the result equals a full
    sort of every cdist distance bit for bit.  If every row ties, every column is a
    candidate.  Latents need finite squared norms below 1/4 of the float64 maximum.
    """
    from scipy.spatial.distance import cdist

    latents, labels = dump.latents, dump.labels
    q, n = latents.shape
    if not 1 <= k_nn < q:
        raise DataError(f"need 1 <= k_nn < samples, got k_nn={k_nn} and {q} samples")
    sq_norms = np.einsum("qj,qj->q", latents, latents)
    if not np.isfinite(4.0 * sq_norms.max()):
        raise DataError("latents must be finite, with squared norms below 4.4e307")
    margin = 2.0 * _screen_error_bound(n, sq_norms)
    matches = 0
    for start in range(0, q, chunk):
        stop = min(start + chunk, q)
        # -2 is a power of two, so scaling the query block first gives the same screen
        # (an underflowing product aside, which E's absolute term covers) in one pass less
        screen = (-2.0 * latents[start:stop]) @ latents.T
        screen += sq_norms[start:stop, None]
        screen += sq_norms
        screen[np.arange(stop - start), np.arange(start, stop)] = np.inf
        kth = np.partition(screen, k_nn - 1, axis=1)[:, k_nn - 1]
        candidates = screen <= (kth + margin[start:stop])[:, None]
        for offset in range(0, stop - start, _RECOMPUTE_ROWS):
            mask = candidates[offset : offset + _RECOMPUTE_ROWS]
            rows = slice(start + offset, start + offset + mask.shape[0])
            columns = np.flatnonzero(mask.any(axis=0))
            d = cdist(latents[rows], latents[columns], "sqeuclidean")
            d[~mask[:, columns]] = np.inf
            # columns ascend, so a stable sort breaks distance ties in index order
            neighbors = columns[np.argsort(d, axis=1, kind="stable")[:, :k_nn]]
            matches += int((labels[neighbors] == labels[rows, None]).sum())
    return matches / (q * k_nn)


def export_latents(dump: LatentDump, path) -> None:
    """Write latents as CSV: header ``label,h0,...``, 9 significant digits."""
    n = dump.latents.shape[1]
    header = "label," + ",".join(f"h{j}" for j in range(n))
    with atomic_write(path) as f:
        f.write(header + "\n")
        for label, row in zip(dump.labels, dump.latents):
            f.write(f"{int(label)}," + ",".join(f"{v:.9g}" for v in row) + "\n")


@dataclass
class MetricReport:
    """One structured summary per evaluation run."""

    accuracy: float
    hoyer_mean: float
    hoyer_std: float
    separability: float
    n_dead_latents: int
    model_tag: str = ""

    def format(self) -> str:
        lines = [
            f"model: {self.model_tag}" if self.model_tag else "model: (untagged)",
            f"accuracy: {self.accuracy:.4f}",
            f"hoyer_mean: {self.hoyer_mean:.4f}",
            f"hoyer_std: {self.hoyer_std:.4f}",
            f"separability: {self.separability:.4f}",
            f"dead_latents: {self.n_dead_latents}",
        ]
        return "\n".join(lines)


def evaluate(
    layer: DenseLayer,
    dataset: Dataset,
    codebook: LabelCodebook,
    runner: LatentRunner,
    prob_fn: ProbabilityFn,
    model_tag: str = "",
) -> tuple[MetricReport, LatentDump]:
    """Accuracy plus the geometry metrics of the true-label latents that one scan scored."""
    predictions, latents = scan(layer, dataset, codebook, runner, prob_fn)
    acc = int((predictions == dataset.labels).sum()) / len(dataset)
    dump = LatentDump(latents, dataset.labels.copy())
    h_mean, h_std, n_dead = hoyer_summary(dump.latents)
    si = separability_index(dump)
    return MetricReport(acc, h_mean, h_std, si, n_dead, model_tag), dump
