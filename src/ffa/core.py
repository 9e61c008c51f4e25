"""Layer-local learning math shared by the analog and spiking trainers.

Training drives each layer to give high "goodness" (squared activity norm)
to positive samples and low goodness to negative samples.  A probability
function maps goodness to [0, 1]; the layer minimizes binary cross-entropy
of that probability.  Because the goodness gradient is simply ``2 * latent``,
the loss gradient factorizes into ``modulation * post * pre`` — the same
shape as a three-factor Hebbian update.  The ``modulation_*`` functions
below return exactly that third factor, expressed as the update (descent)
direction so that adding ``modulation * post * pre`` to a weight improves
the loss.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import require

__all__ = [
    "Polarity",
    "PolarityPartition",
    "SigmoidProb",
    "SymmetricProb",
    "ProbabilityFn",
    "goodness",
    "partition_goodness",
    "prob_sigmoid",
    "prob_symmetric",
    "bce_loss",
    "modulation_sigmoid",
    "modulation_symmetric",
    "probability_batch",
    "modulation_batch",
    "bce_batch",
]

# Clamp applied to probabilities before taking logs.
EPS_CLAMP = 1e-7


class Polarity(enum.Enum):
    """Contrastive tag: a sample is either real-labelled or wrong-labelled."""

    POSITIVE = 1
    NEGATIVE = -1


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

    ``denominator`` selects the potentiation normalizer: "match" divides by
    the matching partition's goodness (the default), "total" by the whole
    layer's activity.
    """

    epsilon: float = 0.5
    denominator: str = "match"

    def __post_init__(self):
        require({
            "epsilon must be positive": self.epsilon > 0,
            "denominator must be 'match' or 'total'": self.denominator in ("match", "total"),
        })


ProbabilityFn = Union[SigmoidProb, SymmetricProb]


def goodness(latent: np.ndarray) -> float:
    """Squared Euclidean norm of a latent activity vector."""
    latent = np.asarray(latent, dtype=float)
    return float(np.dot(latent, latent))


def partition_goodness(latent: np.ndarray, partition: PolarityPartition) -> tuple[float, float]:
    """Goodness restricted to the positive and negative neuron sets."""
    latent = np.asarray(latent, dtype=float)
    sq = latent * latent
    g_pos = float(sq[partition.pos_mask].sum())
    g_neg = float(sq[~partition.pos_mask].sum())
    return g_pos, g_neg


def prob_sigmoid(g: float, alpha: float, theta: float) -> float:
    """Probability that goodness ``g`` came from the positive distribution.

    Computed in the overflow-safe branch form, so extreme goodness saturates
    cleanly to 0 or 1.
    """
    z = alpha * (g - theta)
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z)) if z < 745.0 else 1.0
    return math.exp(z) / (1.0 + math.exp(z)) if z > -745.0 else 0.0


def prob_symmetric(g_pos: float, g_neg: float, epsilon: float) -> float:
    """Share of total goodness carried by the positive-polarity neurons.

    The epsilon split (half in the numerator, all of it in the denominator)
    regularizes the dead-layer 0/0 case to exactly 0.5 and keeps
    ``p(a, b) + p(b, a) == 1``.
    """
    return (g_pos + 0.5 * epsilon) / (g_pos + g_neg + epsilon)


def bce_loss(p: float, polarity: Polarity) -> float:
    """Binary cross-entropy of a single sample's probability."""
    p = min(max(p, EPS_CLAMP), 1.0 - EPS_CLAMP)
    if polarity is Polarity.POSITIVE:
        return -math.log(p)
    return -math.log(1.0 - p)


def modulation_sigmoid(p: float, polarity: Polarity, alpha: float) -> float:
    """Third factor of the sigmoid-probability update, as a descent direction.

    Positive samples potentiate by ``alpha * (1 - p)``; negative samples
    depress by ``alpha * p``.  The remaining constant from the goodness
    gradient is folded into the learning rate.
    """
    if polarity is Polarity.POSITIVE:
        return alpha * (1.0 - p)
    return -alpha * p


def modulation_symmetric(
    p: float,
    g_match: float,
    g_other: float,
    partition: str,
    epsilon: float,
    denominator: str = "match",
) -> float:
    """Third factor of the symmetric-probability update, as a descent direction.

    ``partition`` says which side of the polarity split the neuron lies on
    relative to the sample: "match" neurons share the sample's polarity and
    are potentiated, "other" neurons are depressed.  Both branches are the
    exact gradient of ``-log prob_symmetric``: the epsilon terms mirror the
    halved-epsilon regularization of the probability itself, which is what
    makes the dead-layer potentiation and depression magnitudes equal.
    """
    total = g_match + g_other + epsilon
    if partition == "match":
        if denominator == "total":
            return (1.0 - p) / total
        return (1.0 - p) / (g_match + 0.5 * epsilon)
    if partition == "other":
        return -1.0 / total
    raise ValueError("partition must be 'match' or 'other'")


# ---------------------------------------------------------------------------
# Batched forms used by the trainers.  ``latents`` has one row per sample,
# ``codes`` holds its int8 polarity, +1 / -1 per row (the Polarity values).


def _symmetric_terms(latents: np.ndarray, prob_fn: SymmetricProb, partition: PolarityPartition):
    """Per-row ``(g_pos, g_neg, p)``: partition goodness and the symmetric probability."""
    sq = latents * latents
    g_pos = sq[:, partition.pos_mask].sum(axis=1)
    g_neg = sq[:, ~partition.pos_mask].sum(axis=1)
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
    polarity are potentiated, the others depressed.
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
    total = g_pos + g_neg + eps
    if prob_fn.denominator == "total":
        pot = (1.0 - p_match) / total
    else:
        pot = (1.0 - p_match) / (g_match + 0.5 * eps)
    dep = -1.0 / total
    # Neuron j matches sample b when its partition side equals the sample's
    # polarity: pos_mask for positive samples, ~pos_mask for negative ones.
    match_mask = (codes[:, None] > 0) == partition.pos_mask[None, :]
    return p, np.where(match_mask, pot[:, None], dep[:, None])


def bce_batch(p: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Vectorized binary cross-entropy."""
    p = np.clip(np.asarray(p, dtype=float), EPS_CLAMP, 1.0 - EPS_CLAMP)
    return np.where(codes > 0, -np.log(p), -np.log1p(-p))
