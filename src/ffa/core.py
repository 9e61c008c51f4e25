"""Layer-local learning math shared by the analog and spiking trainers.

Training drives each layer to give high "goodness" (squared activity norm)
to positive samples and low goodness to negative samples.  A probability
function maps goodness to [0, 1]; the layer minimizes binary cross-entropy
of that probability.  Because the goodness gradient is simply ``2 * latent``,
the loss gradient factorizes into ``modulation * post * pre`` — the same
shape as a three-factor Hebbian update.  :func:`modulation_batch` returns
exactly that third factor, expressed as the update (descent) direction so
that adding ``modulation * post * pre`` to a weight improves the loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import require

__all__ = [
    "PolarityPartition",
    "SigmoidProb",
    "SymmetricProb",
    "ProbabilityFn",
    "probability_batch",
    "modulation_batch",
    "bce_batch",
    "row_sums",
]

# Clamp applied to probabilities before taking logs.
EPS_CLAMP = 1e-7


class PolarityPartition:
    """Split of a layer's neurons into positive and negative polarity sets.

    Only the symmetric probability distinguishes the two sets; the sigmoid
    probability treats every neuron as positive.
    """

    def __init__(self, pos_mask: np.ndarray):
        mask = np.asarray(pos_mask, dtype=bool)
        if mask.ndim != 1:
            raise ValueError("pos_mask must be one-dimensional")
        self.pos_mask = mask

    @classmethod
    def all_positive(cls, n: int) -> "PolarityPartition":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def split_halves(cls, n: int) -> "PolarityPartition":
        """First half positive, second half negative."""
        mask = np.zeros(n, dtype=bool)
        mask[: (n + 1) // 2] = True
        return cls(mask)

    @property
    def n(self) -> int:
        return self.pos_mask.size

    def __eq__(self, other) -> bool:
        return isinstance(other, PolarityPartition) and np.array_equal(
            self.pos_mask, other.pos_mask
        )

    def __repr__(self) -> str:
        return f"PolarityPartition(pos={self.pos_mask.sum()}, neg={(~self.pos_mask).sum()})"


@dataclass(frozen=True)
class SigmoidProb:
    """sigmoid(alpha * (goodness - theta)) applied to total layer goodness."""

    alpha: float = 1.0
    theta: float = 2.0

    def __post_init__(self):
        require({"alpha must be positive": self.alpha > 0})


@dataclass(frozen=True)
class SymmetricProb:
    """Ratio of matching-partition goodness to total layer goodness.

    ``epsilon`` regularizes the dead-layer 0/0 case and, more importantly,
    floors the potentiation denominator: with a tiny epsilon the
    ``1/g_match`` factor produces near-singular updates whenever a
    partition's goodness passes through zero, which stalls the analog
    optimizer and collapses spiking runs.  The default keeps both trainers
    in their stable regime.
    """

    epsilon: float = 0.5

    def __post_init__(self):
        require({"epsilon must be positive": self.epsilon > 0})


ProbabilityFn = Union[SigmoidProb, SymmetricProb]


# ---------------------------------------------------------------------------
# The rules act on batches: ``latents`` has one row per sample, and ``codes``
# holds its int8 polarity, +1 for a positive and -1 for a negative sample.


def row_sums(a: np.ndarray) -> np.ndarray:
    """Each row's sum [B] of ``a`` [B, n], added left to right at every B.

    numpy sums along an array's fast axis pairwise, so a row is summed as a
    prefix sum and a stack along the slow axis of its Fortran-ordered copy
    (a masked selection of columns already is one).  An empty row sums to 0.0.
    """
    if a.shape[0] == 1 and a.shape[1] > 1:
        return np.add.accumulate(a, axis=1)[:, -1]
    return np.asfortranarray(a).sum(axis=1)


def _symmetric_terms(latents: np.ndarray, prob_fn: SymmetricProb, partition: PolarityPartition):
    """Per-row ``(g_pos, g_neg, p)``: partition goodness and the symmetric probability."""
    sq = latents * latents
    g_pos = row_sums(sq[:, partition.pos_mask])
    g_neg = row_sums(sq[:, ~partition.pos_mask])
    eps = prob_fn.epsilon
    return g_pos, g_neg, (g_pos + 0.5 * eps) / (g_pos + g_neg + eps)


def probability_batch(
    latents: np.ndarray,
    prob_fn: ProbabilityFn,
    partition: PolarityPartition,
) -> np.ndarray:
    """Per-row probability that the sample is positive.

    For the symmetric function this is the positive-partition share of the
    layer's goodness; a negative sample is "confident" when it is near 0.
    """
    latents = np.atleast_2d(np.asarray(latents, dtype=float))
    if isinstance(prob_fn, SigmoidProb):
        g = np.einsum("bj,bj->b", latents, latents)
        z = prob_fn.alpha * (g - prob_fn.theta)
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return _symmetric_terms(latents, prob_fn, partition)[2]


def modulation_batch(
    latents: np.ndarray,
    codes: np.ndarray,
    prob_fn: ProbabilityFn,
    partition: PolarityPartition,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample positive probability and per-neuron modulation matrix.

    Returns ``(p, M)`` with ``p`` of shape [B] and ``M`` of shape [B, n];
    ``M[b, j]`` is the descent-direction third factor for neuron ``j`` under
    sample ``b``.  Neurons whose partition side matches the sample's
    polarity are potentiated, the others depressed.  Under the symmetric
    probability both are the exact gradient of ``-log p_match``: potentiation
    divides by the matching partition's goodness, and the epsilon terms mirror
    the probability's halved-epsilon regularization.
    """
    latents = np.atleast_2d(np.asarray(latents, dtype=float))
    n = latents.shape[1]
    if isinstance(prob_fn, SigmoidProb):
        p = probability_batch(latents, prob_fn, partition)
        factor = np.where(codes > 0, prob_fn.alpha * (1.0 - p), -prob_fn.alpha * p)
        return p, np.repeat(factor[:, None], n, axis=1)
    g_pos, g_neg, p = _symmetric_terms(latents, prob_fn, partition)
    g_match = np.where(codes > 0, g_pos, g_neg)
    p_match = np.where(codes > 0, p, 1.0 - p)
    eps = prob_fn.epsilon
    pot = (1.0 - p_match) / (g_match + 0.5 * eps)
    dep = -1.0 / (g_pos + g_neg + eps)
    # Neuron j matches sample b when its partition side equals the sample's
    # polarity: pos_mask for positive samples, ~pos_mask for negative ones.
    match_mask = (codes[:, None] > 0) == partition.pos_mask[None, :]
    return p, np.where(match_mask, pot[:, None], dep[:, None])


def bce_batch(p: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Vectorized binary cross-entropy."""
    p = np.clip(np.asarray(p, dtype=float), EPS_CLAMP, 1.0 - EPS_CLAMP)
    return np.where(codes > 0, -np.log(p), -np.log1p(-p))
