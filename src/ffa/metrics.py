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
from .spiking import SpikingConfig, load_scan_path, simulate

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

        load_scan_path()  # once, here, not in every forked child
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


# Candidate pairs per exact recompute block: about 2^20 gathered differences each.
_PAIR_BLOCK = 1 << 20


def _screen_error_bound(n: int, norms: np.ndarray, exponent: int) -> np.ndarray:
    """Per query row a, a bound E_a >= |screen - 2^(-2e) d| over every pair (a, b),
    where d is the float64 feature-order sum of squared differences over n live columns.

    The screen rows are z = float32(2^-e (x - mu)): the live columns of x less their
    float64 mean mu, scaled by e = ``exponent`` so that every |z_j| <= 1; ``norms``
    holds each row's |z|^2 summed in float64.  Let u = 2^-24, g(m) = m*u / (1 - m*u),
    g64 the same at 2^-53, t32 and t64 the smallest normal floats, N = |z_a|^2 +
    |z_b|^2 <= 2n, and w = 2^-e (x - mu) exactly, so |w_a - w_b|^2 = 2^-2e D for the
    exact distance D.  Underflow may be gradual or flushed to zero, inputs included.

    - Entries: centering rounds by 2^-53 relative and t64 absolute, the scaling by
      t64 absolute, the cast by u relative and t32 absolute, so |z_j - w_j| <= r|z_j|
      + A with r < 1.01u and A = 2(t32 + (1 + 2^-e) t64).
    - Those errors: with f the difference of the two rows' entry errors, |f| <= r
      sqrt(2N) + 2A sqrt(n), and R = |z_a - z_b|^2 <= 2N, so |R - 2^-2e D| <=
      2 sqrt(R)|f| + |f|^2 <= 5uN + 9n(A + A^2).
    - The float32 GEMM of -2 z_a (exact) by z_b, in any summation order, with or
      without FMA: g(n) 2 sum|z_aj z_bj| <= g(n) N; and per term under 3 t32 for
      inputs read as zero, t32 for the product and t32 for the partial sum.
    - Each norm, summed in float64 (every z^2 is exact) and cast to float32, errs by
      (u + g64(n)(1 + u))|z|^2 + t32.  The screen adds the query norm, then the
      other: to first order |G + |z_a|^2| <= 2N and |screen| <= 3N, so the two adds
      err by 5uN + 2t32.  In all |screen - R| <= g(n + 8) N + (5n + 4) t32.
    - d: n squares of rounded (or exact) differences added left to right, so |d -
      D| <= g64(n + 2) D + 3n t64, and 2^-2e D <= R + |R - 2^-2e D| <= 3N + 9n(A + A^2).

    Summed, for n < 2^28: |screen - 2^-2e d| <= g(n + 16) N + 12(n + 1)(A + A^2) +
    4n 2^-2e t64, and N <= |z_a|^2 + max |z_b|^2.  The factor 2 covers the rounding of
    the norms, of this bound and of the threshold.  An absolute term past float64's
    range (latents all below about 1e-150) makes every pair a candidate.
    """
    u = 2.0**-24
    m = n + 16
    gamma = m * u / (1 - m * u)
    tiny32, tiny64 = float(np.finfo(np.float32).tiny), float(np.finfo(np.float64).tiny)
    with np.errstate(over="ignore"):
        entry = 2 * (tiny32 + (1 + np.ldexp(1.0, -exponent)) * tiny64)
        recompute = 4 * n * np.ldexp(tiny64, -2 * exponent)
    absolute = 12 * (n + 1) * (entry + entry * entry) + recompute
    return 2 * (gamma * (norms + norms.max()) + absolute)


def separability_index(dump: LatentDump, k_nn: int = 5, chunk: int = 256) -> float:
    """Mean fraction of the k nearest latent neighbors sharing the true label.

    Exact Euclidean neighbors, query point excluded: the distance is the sum of
    squared differences in feature order, and exact distance ties resolve in index
    order.  A column that is zero in every row adds an exact +0.0 to that sum, so
    only the live columns are read.  Per chunk of query rows, one float32 GEMM screen
    ``|a|^2 + |b|^2 - 2 a.b`` of the centered live columns, scaled below 1, finds each
    row's k-th screened distance t; only pairs screened within 2E of t can be among
    the k nearest, where E bounds the gap between the screen and the exact sum at
    the screen's scale (see ``_screen_error_bound``).  Those candidates are summed
    exactly, in blocks of about 2^20 differences, and sorted, so the result equals a
    full sort of every distance bit for bit.  If every row ties, every pair is a
    candidate.  Latents need finite squared norms below 1/4 of the float64 maximum.
    """
    latents, labels = dump.latents, dump.labels
    q = latents.shape[0]
    if not 1 <= k_nn < q:
        raise DataError(f"need 1 <= k_nn < samples, got k_nn={k_nn} and {q} samples")
    sq_norms = np.einsum("qj,qj->q", latents, latents)
    if not np.isfinite(4.0 * sq_norms.max()):
        raise DataError("latents must be finite, with squared norms below 4.4e307")
    live = latents[:, latents.any(axis=0)]
    n = live.shape[1]
    centered = live - live.mean(axis=0)
    exponent = int(np.frexp(np.abs(centered).max(initial=0.0))[1])
    screen_rows = np.ldexp(centered, -exponent).astype(np.float32)
    norms = np.einsum("qj,qj->q", screen_rows, screen_rows, dtype=np.float64)
    margin = 2.0 * _screen_error_bound(n, norms, exponent)
    norms = norms.astype(np.float32)
    # a threshold past float32's range admits every screened pair, never the inf diagonal
    most = np.finfo(np.float32).max
    step = max(1, _PAIR_BLOCK // max(n, 1))
    matches = 0
    for start in range(0, q, chunk):
        stop = min(start + chunk, q)
        # -2 is a power of two and |z| <= 1, so scaling the query block is exact
        screen = (-2.0 * screen_rows[start:stop]) @ screen_rows.T
        screen += norms[start:stop, None]
        screen += norms
        screen[np.arange(stop - start), np.arange(start, stop)] = np.inf
        kth = np.partition(screen, k_nn - 1, axis=1)[:, k_nn - 1]
        with np.errstate(over="ignore"):
            limit = np.nextafter((kth + margin[start:stop]).astype(np.float32), np.inf)
        rows, cols = np.divmod(np.flatnonzero(screen <= np.minimum(limit, most)[:, None]), q)
        d = np.empty(rows.size)
        for first in range(0, rows.size, step):
            pairs = slice(first, first + step)
            diff = live[rows[pairs] + start]
            diff -= live[cols[pairs]]
            diff *= diff
            d[pairs] = row_sums(diff)
        # rows ascend, and each holds at least k_nn candidates
        order = np.lexsort((cols, d, rows))
        counts = np.bincount(rows, minlength=stop - start)
        firsts = np.cumsum(counts) - counts
        neighbors = cols[order[firsts[:, None] + np.arange(k_nn)]]
        matches += int((labels[neighbors] == labels[start:stop, None]).sum())
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
