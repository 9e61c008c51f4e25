"""Scalar reference forms of the layer rules, used as test oracles only.

The package runs each rule once, in batched form (``ffa.core.probability_batch``,
``modulation_batch``, ``bce_batch``, ``ffa.analog.forward_batch``).  The
functions here restate the same rules one sample and one neuron at a time,
written independently of the vectorized code, so the tests can check the
batched forms against them.  A sample's polarity is a :class:`Polarity`
here; the package carries it as int8 codes with the same values.
:func:`read_latents` reads back the CSV that ``ffa.metrics.export_latents``
writes.  :func:`row_major_simulate` is the dense plastic loop as it ran on
row-major synapse storage, the oracle of the presynaptic-major one.
:func:`left_to_right_sum` is the summation order of a row's partition
goodness and of scipy's sparse products.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ffa.analog import DenseLayer
from ffa.core import EPS_CLAMP, PolarityPartition, SigmoidProb
from ffa.errors import ConfigError, DataError
from ffa.metrics import LatentDump
from ffa.spiking import (
    _fired_spikes,
    _input_events,
    eligibility_step,
    hebbian_impulse,
    lif_step,
    rate_encode,
    trace_step,
)


class Polarity(enum.Enum):
    """Contrastive tag: a sample is either real-labelled or wrong-labelled."""

    POSITIVE = 1
    NEGATIVE = -1


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
        return (1.0 - p) / (g_match + 0.5 * epsilon)
    if partition == "other":
        return -1.0 / total
    raise ValueError("partition must be 'match' or 'other'")


def forward(layer: DenseLayer, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-input forward pass: returns (pre-activation, ReLU latent)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.n_in,):
        raise ConfigError(f"input has shape {x.shape}, layer expects ({layer.n_in},)")
    preact = layer.weights @ x
    return preact, np.maximum(preact, 0.0)


def read_latents(path) -> LatentDump:
    """Read a latent CSV back (external tools consume the same format).

    Every row must hold a label and as many values as the header names.
    """
    with open(path) as f:
        header = f.readline().strip()
        if not header.startswith("label,"):
            raise DataError(f"{path}: not a latent CSV")
        width = header.count(",")
        labels, rows = [], []
        for number, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != width + 1:
                raise DataError(f"{path}:{number}: expected {width} values, got {len(parts) - 1}")
            try:
                labels.append(int(parts[0]))
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise DataError(f"{path}:{number}: {exc}") from None
    return LatentDump(np.asarray(rows, dtype=np.float64).reshape(len(rows), width), labels)


def sample_loss(layer: DenseLayer, x: np.ndarray, polarity: Polarity, prob_fn) -> float:
    """Binary cross-entropy of one input, from the scalar forward, goodness and probability."""
    _, latent = forward(layer, x)
    if isinstance(prob_fn, SigmoidProb):
        p = prob_sigmoid(goodness(latent), prob_fn.alpha, prob_fn.theta)
    else:
        g_pos, g_neg = partition_goodness(latent, layer.partition)
        p = prob_symmetric(g_pos, g_neg, prob_fn.epsilon)
    return bce_loss(p, polarity)


def scalar_post(layer, x, polarity, prob_fn) -> np.ndarray:
    """Per-neuron factor ``-modulation_j * relu'_j * 2*latent_j`` of one input's gradient."""
    part = layer.partition
    _, latent = forward(layer, x)
    out = np.zeros(layer.n_out)
    if isinstance(prob_fn, SigmoidProb):
        p = prob_sigmoid(goodness(latent), prob_fn.alpha, prob_fn.theta)
    else:
        g_pos, g_neg = partition_goodness(latent, part)
    for j in range(layer.n_out):
        if latent[j] <= 0.0:
            continue
        if isinstance(prob_fn, SigmoidProb):
            m = modulation_sigmoid(p, polarity, prob_fn.alpha)
        else:
            if polarity is Polarity.POSITIVE:
                p_m = prob_symmetric(g_pos, g_neg, prob_fn.epsilon)
                g_m, g_o = g_pos, g_neg
                side = "match" if part.pos_mask[j] else "other"
            else:
                p_m = prob_symmetric(g_neg, g_pos, prob_fn.epsilon)
                g_m, g_o = g_neg, g_pos
                side = "match" if not part.pos_mask[j] else "other"
            m = modulation_symmetric(p_m, g_m, g_o, side, prob_fn.epsilon)
        out[j] = -m * 2.0 * latent[j]
    return out


def scalar_factorized_gradient(layer, x, polarity, prob_fn) -> np.ndarray:
    """Independent assembly: -modulation * relu' * 2*latent_j * x_i."""
    post = scalar_post(layer, x, polarity, prob_fn)
    out = np.zeros_like(layer.weights)
    for j in range(layer.n_out):
        for i in range(layer.n_in):
            out[j, i] = post[j] * x[i]
    return out


def x_form_gradient(layer, X, polarities, prob_fn) -> np.ndarray:
    """Mean weight gradient over the rows of ``X``, each row's factor from
    :func:`scalar_post`, summed over the embedded rows as one plain product."""
    post = np.array([scalar_post(layer, x, pol, prob_fn) for x, pol in zip(X, polarities)])
    return post.T @ X / len(X)


def row_major_simulate(layer, X, spiking, rng, codes, prob_fn, e, eta) -> np.ndarray:
    """A plastic lockstep call on the dense rule over row-major (C-ordered) storage.

    ``layer.weights`` and the eligibility ``e`` are C-ordered [n_out, n_in].
    The LIF current reads a C-ordered copy of ``W.T`` that is refreshed after
    every plastic step.  Same draws, same operations in the same order as
    ``simulate``'s dense rule, so the two must agree bitwise.
    """
    if not (layer.weights.flags.c_contiguous and e.flags.c_contiguous):
        raise ConfigError("the row-major reference needs C-ordered weights and eligibility")
    X = layer.check_batch(X)
    x, cols, starts = _input_events(X)
    enc = spiking.encoder
    p = enc.scale * x
    potential, trace = np.zeros((X.shape[0], layer.n_out)), np.zeros((X.shape[0], layer.n_out))
    active_start = enc.steps - enc.active_window
    weights_t = np.ascontiguousarray(layer.weights.T)
    for t in range(enc.steps):
        spikes = _fired_spikes(cols, starts, rate_encode(p, rng), X.shape)
        trace = trace_step(trace, lif_step(potential, weights_t.T, spikes, spiking.lif), spiking.trace)
        if t >= active_start:
            impulse = hebbian_impulse(trace, spikes, codes, prob_fn, layer.partition)
            eligibility_step(e, impulse, layer.weights, spiking.tau_e, eta)
            np.copyto(weights_t, layer.weights.T)
    return trace


def left_to_right_sum(values) -> float:
    """The sum of ``values`` from 0.0, one after another."""
    total = 0.0
    for v in values:
        total += float(v)
    return total

