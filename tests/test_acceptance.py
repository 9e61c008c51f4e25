"""Acceptance gate: one test (or parametrized group) per criterion.

Criteria 4-8 are self-contained and always run.  Criteria 1-3 train on the
real MNIST dataset and are skipped with an explanatory message when the IDX
files are absent (see README for how to provide them); with data present
they are long: an estimated 2 h 40 min on two cores, most of it in the three
sigmoid online cells that run numpy (README "Tests" derives the estimate).
"""

import numpy as np
import pytest

from ffa import cli
from ffa.analog import DenseLayer, layer_gradient, partition_for
from ffa.config import ExperimentConfig, apply_overrides
from ffa.core import SigmoidProb, SymmetricProb
from ffa.data import ExperimentData, LabelCodebook, load_mnist
from ffa.metrics import (
    LatentDump,
    accuracy,
    evaluate,
    hoyer_summary,
    separability_index,
)
from ffa.spiking import TraceConfig, eligibility_step, trace_step
from tests.conftest import require_mnist
from tests.reference import Polarity, forward, sample_loss, scalar_factorized_gradient


# --- criteria 1-3: MNIST reproduction ---------------------------------------

# (model, prob) -> minimum test accuracy in percent, per the acceptance gate
TABLE1_FLOORS = {
    ("analog", "symmetric"): 93.0,
    ("analog", "sigmoid"): 86.5,
    ("hebbian", "symmetric"): 89.0,
    ("hebbian_online", "symmetric"): 90.0,
    ("hebbian", "sigmoid"): 82.0,
    ("hebbian_online", "sigmoid"): 81.0,
}

SYMMETRIC_TRACE_FLOOR = 82.0


def reference_hyper(model: str, prob: str, trace: str | None) -> dict:
    table = cli.load_reference_table("table1" if trace is None else "table2")
    for row in table:
        if row["model"] == model and row["prob"] == prob and row.get("trace") == trace:
            return row.get("hyper", {})
    raise KeyError((model, prob, trace))


class MnistModelCache:
    """Trains each referenced configuration once and memoizes the results."""

    def __init__(self, data: ExperimentData):
        self.data = data
        self._cache = {}

    def get(self, model: str, prob: str, trace: str = "relu"):
        key = (model, prob, trace)
        if key not in self._cache:
            cfg = ExperimentConfig(model=model, prob=prob, trace=trace)
            hyper = reference_hyper(model, prob, None if model == "analog" else trace)
            cfg = apply_overrides(cfg, dict(hyper)).normalized()
            cfg.validate()
            layer, _ = cli.train_model(cfg, self.data, eval_each_epoch=False)
            runner = cli.build_runner(cfg)
            acc = accuracy(layer, self.data.test, self.data.codebook, runner, cfg.prob_fn())
            self._cache[key] = (cfg, layer, acc)
        return self._cache[key]


@pytest.fixture(scope="session")
def mnist_models() -> MnistModelCache:
    path = require_mnist()
    train, test = load_mnist(path)
    codebook = LabelCodebook(length=100, density=0.3, seed=101)
    return MnistModelCache(ExperimentData(train, test, codebook))


@pytest.mark.mnist
@pytest.mark.parametrize("model,prob", sorted(TABLE1_FLOORS))
def test_criterion1_table1_accuracy(mnist_models, model, prob):
    """Table-1 reproduction: 1x200 network, 10 epochs, MNIST test split."""
    _, _, acc = mnist_models.get(model, prob, "relu")
    floor = TABLE1_FLOORS[(model, prob)]
    print(f"criterion 1 [{model}/{prob}]: accuracy {acc * 100:.2f}% (floor {floor}%)")
    assert acc * 100 >= floor


@pytest.mark.mnist
@pytest.mark.parametrize("model", ["hebbian", "hebbian_online"])
def test_criterion2_symmetric_traces_all_reach_floor(mnist_models, model):
    for trace in ("li", "relu", "hard_li"):
        _, _, acc = mnist_models.get(model, "symmetric", trace)
        print(f"criterion 2 [{model}/symmetric/{trace}]: {acc * 100:.2f}%")
        assert acc * 100 >= SYMMETRIC_TRACE_FLOOR


@pytest.mark.mnist
@pytest.mark.parametrize("model", ["hebbian", "hebbian_online"])
def test_criterion2_sigmoid_hard_li_is_strictly_lowest(mnist_models, model):
    accs = {
        trace: mnist_models.get(model, "sigmoid", trace)[2]
        for trace in ("li", "relu", "hard_li")
    }
    print(f"criterion 2 [{model}/sigmoid]: " +
          " ".join(f"{t}={a * 100:.2f}%" for t, a in accs.items()))
    assert accs["hard_li"] < accs["li"]
    assert accs["hard_li"] < accs["relu"]


ALL_REFERENCE_MODELS = [("analog", "sigmoid", "relu"), ("analog", "symmetric", "relu")] + [
    (model, prob, trace)
    for model in ("hebbian", "hebbian_online")
    for prob in ("sigmoid", "symmetric")
    for trace in ("li", "relu", "hard_li")
]


@pytest.mark.mnist
@pytest.mark.parametrize("model,prob,trace", ALL_REFERENCE_MODELS)
def test_criterion3_latent_geometry(mnist_models, model, prob, trace):
    """Every trained model: mean Hoyer > 0.90 and separability >= 0.93."""
    cfg, layer, _ = mnist_models.get(model, prob, trace)
    data = mnist_models.data
    _, dump = evaluate(layer, data.test, data.codebook, cli.build_runner(cfg), cfg.prob_fn())
    h_mean, h_std, n_dead = hoyer_summary(dump.latents)
    si = separability_index(dump, k_nn=5)
    print(
        f"criterion 3 [{model}/{prob}/{trace}]: hoyer {h_mean:.4f}+-{h_std:.4f} "
        f"(dead {n_dead}), separability {si:.4f}"
    )
    assert h_mean > 0.90
    assert si >= 0.93


# --- criterion 4: the equivalence oracle -------------------------------------


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)
    err = np.abs(a - b) / scale
    # entries where both sides vanish are exact by construction
    err[(np.abs(a) < 1e-300) & (np.abs(b) < 1e-300)] = 0.0
    return float(err.max())


def test_criterion4_equivalence_oracle():
    """Gradient factorizes as modulation x 2*latent x input, and matches FD."""
    rng = np.random.default_rng(2024)
    n_out, n_in = 12, 8
    probs = [SigmoidProb(alpha=1.3, theta=1.5), SymmetricProb(epsilon=0.4)]
    polarities = [Polarity.POSITIVE, Polarity.NEGATIVE]
    draws = 0
    worst_closed, worst_fd = 0.0, 0.0
    while draws < 1000:
        prob_fn = probs[draws % 2]
        polarity = polarities[(draws // 2) % 2]
        layer = DenseLayer(rng.uniform(-0.5, 0.5, size=(n_out, n_in)),
                           partition_for(prob_fn, n_out))
        x = rng.uniform(0.05, 1.0, size=n_in)
        preact, _ = forward(layer, x)
        if np.min(np.abs(preact)) <= 1e-3:
            continue  # keep finite differences away from the ReLU kink
        draws += 1
        codes = np.array([polarity.value], dtype=np.int8)
        grad, _, _ = layer_gradient(layer, x[None, :], codes, prob_fn)

        factorized = scalar_factorized_gradient(layer, x, polarity, prob_fn)
        worst_closed = max(worst_closed, relative_error(grad, factorized))

        fd = np.zeros_like(grad)
        W = layer.weights
        for j in range(n_out):
            for i in range(n_in):
                h = 1e-6 * max(1.0, abs(W[j, i]))
                orig = W[j, i]
                W[j, i] = orig + h
                up = sample_loss(layer, x, polarity, prob_fn)
                W[j, i] = orig - h
                down = sample_loss(layer, x, polarity, prob_fn)
                W[j, i] = orig
                fd[j, i] = (up - down) / (2 * h)
        scale = max(float(np.abs(grad).max()), 1e-12)
        mask = np.maximum(np.abs(grad), np.abs(fd)) > 1e-7 * scale
        err = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-30)
        if mask.any():
            worst_fd = max(worst_fd, float(err[mask].max()))
    print(f"criterion 4: worst closed-form error {worst_closed:.3e} (<=1e-10), "
          f"worst FD error {worst_fd:.3e} (<=1e-4) over 1000 draws")
    assert worst_closed <= 1e-10
    assert worst_fd <= 1e-4


# --- criterion 5: eligibility closed form -------------------------------------


def test_criterion5_eligibility_closed_form():
    worst = 0.0
    for tau_e in (0.999, 0.99, 0.9):
        for g in (0.7, 1.0):
            e, weights = np.zeros(1), np.zeros(1)
            for k in range(1, 10_001):
                # the production fold spends its impulse as scratch
                eligibility_step(e, np.full(1, g), weights, tau_e, eta=0.0)
                closed = g * (1.0 - tau_e**k)
                worst = max(worst, abs(float(e[0]) - closed))
    print(f"criterion 5: worst |e_k - g(1 - tau^k)| = {worst:.3e} (<=1e-12)")
    assert worst <= 1e-12


# --- criterion 6: trace recurrence oracles ------------------------------------


def scalar_trace_reference(kind: str, spikes, mu: float, tau_o: float):
    t = 0.0
    out = []
    for i in spikes:
        if kind == "li":
            t = mu * i + tau_o * t
        elif kind == "hard_li":
            t = i + tau_o * (1.0 - i) * t
        else:
            t = mu * i + t
        out.append(t)
    return out


@pytest.mark.parametrize("kind", ["li", "hard_li", "relu"])
def test_criterion6_trace_oracles(kind):
    rng = np.random.default_rng(7)
    n_seq, length = 100_000, 25
    mu, tau_o = 0.1, 0.9
    spikes = (rng.random((length, n_seq)) < 0.35).astype(np.float64)
    cfg, trace = TraceConfig(kind=kind, mu=mu, tau_o=tau_o), np.zeros(n_seq)
    history = np.empty((length, n_seq))
    for t in range(length):
        trace = trace_step(trace, spikes[t], cfg)
        history[t] = trace
        if kind == "hard_li":
            assert trace.max() <= 1.0
        if kind == "li":
            assert trace.max() <= mu / (1.0 - tau_o) * (1.0 + 1e-12)
        assert trace.min() >= 0.0
    # independent scalar reference, bit-for-bit
    for s in range(n_seq):
        ref = scalar_trace_reference(kind, spikes[:, s].tolist(), mu, tau_o)
        if not np.array_equal(history[:, s], np.asarray(ref)):
            mismatch = int(np.argmax(history[:, s] != np.asarray(ref)))
            pytest.fail(f"sequence {s} diverges from scalar reference at step {mismatch}")
    print(f"criterion 6 [{kind}]: {n_seq} sequences match the scalar reference exactly")


# --- criterion 7: metric unit suite -------------------------------------------


def test_criterion7_metric_units():
    one_hot = np.zeros(8)
    one_hot[3] = 2.5
    assert abs(hoyer_summary(one_hot)[0] - 1.0) <= 1e-12
    assert abs(hoyer_summary(np.full(16, 0.7))[0] - 0.0) <= 1e-12
    assert abs(hoyer_summary(np.array([3.0, 4.0, 0.0, 0.0]))[0] - 0.6) <= 1e-12

    rng = np.random.default_rng(11)
    a = rng.normal(0.0, 0.05, size=(8, 5))
    b = rng.normal(9.0, 0.05, size=(8, 5))
    two_clusters = LatentDump(np.vstack([a, b]), np.array([0] * 8 + [1] * 8))
    assert separability_index(two_clusters, k_nn=5) == 1.0

    # scale invariance of the sparsity index
    v = rng.uniform(0, 2, size=40)
    for c in (1e-3, 0.5, 7.0, 1e3):
        assert abs(hoyer_summary(c * v)[0] - hoyer_summary(v)[0]) <= 1e-12

    # permutation invariance of the separability index
    latents = rng.normal(size=(50, 9))
    labels = rng.integers(0, 4, size=50)
    si = separability_index(LatentDump(latents, labels))
    for _ in range(5):
        perm = rng.permutation(9)
        si_p = separability_index(LatentDump(latents[:, perm], labels))
        assert abs(si_p - si) <= 1e-12
    print("criterion 7: metric unit suite exact")


# --- criterion 8: byte-identical training --------------------------------------


def test_criterion8_training_determinism(idx_dataset_dir, tmp_path):
    """cmd_train twice with one config and seed: byte-identical checkpoints."""
    for model, extra in (("analog", []), ("hebbian_online", [])):
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{model}-{attempt}"
            code = cli.main([
                "train",
                "--data-dir", str(idx_dataset_dir),
                "--out-dir", str(out),
                "--seed", "7",
                "--set", "experiment.model=" + model,
                "--set", "experiment.epochs=1",
                "--set", "experiment.n_hidden=12",
                "--set", "experiment.batch_size=10",
                "--set", "labels.length=8",
                "--set", "encoder.steps=8",
                "--set", "encoder.active_window=3",
                *extra,
            ])
            assert code == 0
            digests.append((out / "model.ffaw").read_bytes())
        assert digests[0] == digests[1], f"{model} checkpoint not byte-identical"
    print("criterion 8: byte-identical checkpoints for analog and online runs")
