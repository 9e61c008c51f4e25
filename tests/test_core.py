import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ffa
from ffa.core import (
    EPS_CLAMP,
    PolarityPartition,
    SigmoidProb,
    SymmetricProb,
    modulation_batch,
    probability_batch,
)
from tests.reference import (
    Polarity,
    bce_loss,
    goodness,
    modulation_sigmoid,
    modulation_symmetric,
    partition_goodness,
    prob_sigmoid,
    prob_symmetric,
)

# Names that left the package: the scalar oracles, now in tests/reference.py,
# and the one-row wrappers embed and hoyer_index.
REMOVED_NAMES = (
    "Polarity", "goodness", "partition_goodness", "prob_sigmoid", "prob_symmetric",
    "bce_loss", "modulation_sigmoid", "modulation_symmetric", "forward", "read_latents",
    "embed", "hoyer_index",
)


def test_package_has_one_form_of_each_rule():
    modules = (ffa, ffa.core, ffa.analog, ffa.data, ffa.metrics)
    left = {m.__name__: [n for n in REMOVED_NAMES if hasattr(m, n)] for m in modules}
    assert left == {m.__name__: [] for m in modules}


finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
nonneg_floats = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestGoodness:
    def test_zero_vector(self):
        assert goodness(np.zeros(7)) == 0.0

    def test_hand_evaluated(self):
        assert goodness(np.array([1.0, 2.0, 2.0])) == pytest.approx(9.0, abs=0)

    @pytest.mark.parametrize("n", [2, 5, 31])
    def test_unit_basis(self, n):
        e = np.zeros(n)
        e[n // 2] = 1.0
        assert goodness(e) == 1.0

    def test_gradient_is_twice_latent(self):
        # central finite differences against the analytic 2*l_j
        rng = np.random.default_rng(11)
        l = rng.uniform(0.1, 2.0, size=9)
        for j in range(9):
            h = 1e-6 * max(1.0, abs(l[j]))
            up, down = l.copy(), l.copy()
            up[j] += h
            down[j] -= h
            fd = (goodness(up) - goodness(down)) / (2 * h)
            assert fd == pytest.approx(2.0 * l[j], rel=1e-6)

    def test_partition_split(self):
        part = PolarityPartition(np.array([True, True, False]))
        g_pos, g_neg = partition_goodness(np.array([1.0, 2.0, 3.0]), part)
        assert g_pos == 5.0 and g_neg == 9.0


class TestProbSigmoid:
    def test_at_threshold(self):
        assert prob_sigmoid(2.0, alpha=1.7, theta=2.0) == 0.5

    def test_saturation(self):
        assert prob_sigmoid(1e12, alpha=1.0, theta=2.0) == 1.0
        assert prob_sigmoid(-1e12, alpha=1.0, theta=2.0) == 0.0

    def test_analytic_inversion(self):
        # p = 0.75 at g = theta + ln(3)/alpha
        alpha, theta = 2.5, 1.0
        g = theta + math.log(3.0) / alpha
        assert prob_sigmoid(g, alpha, theta) == pytest.approx(0.75, rel=1e-12)

    @given(g=finite_floats, dg=st.floats(min_value=1e-3, max_value=10.0),
           alpha=st.floats(min_value=0.01, max_value=10.0), theta=finite_floats)
    def test_bounds_and_monotonicity(self, g, dg, alpha, theta):
        p_low = prob_sigmoid(g, alpha, theta)
        p_high = prob_sigmoid(g + dg, alpha, theta)
        assert 0.0 <= p_low <= 1.0
        assert 0.0 <= p_high <= 1.0
        assert p_high >= p_low


class TestProbSymmetric:
    @pytest.mark.parametrize("g", [0.0, 0.3, 7.0])
    def test_equal_goodness_is_half(self, g):
        assert prob_symmetric(g, g, epsilon=1e-6) == pytest.approx(0.5, rel=1e-12)

    def test_three_to_one_ratio(self):
        p = prob_symmetric(300.0, 100.0, epsilon=1e-6)
        assert p == pytest.approx(0.75, rel=1e-6)

    def test_dead_layer_regularized(self):
        assert prob_symmetric(0.0, 0.0, epsilon=0.5) == 0.5

    @given(a=nonneg_floats, b=nonneg_floats,
           eps=st.floats(min_value=1e-8, max_value=2.0))
    def test_complement_identity(self, a, b, eps):
        assert prob_symmetric(a, b, eps) + prob_symmetric(b, a, eps) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= prob_symmetric(a, b, eps) <= 1.0

    @given(a=nonneg_floats, b=nonneg_floats, da=st.floats(min_value=1e-3, max_value=10.0))
    def test_monotone_in_both_arguments(self, a, b, da):
        eps = 1e-6
        assert prob_symmetric(a + da, b, eps) >= prob_symmetric(a, b, eps)
        assert prob_symmetric(a, b + da, eps) <= prob_symmetric(a, b, eps)


class TestBCELoss:
    def test_half_probability(self):
        assert bce_loss(0.5, Polarity.POSITIVE) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_perfect_positive(self):
        assert bce_loss(1.0, Polarity.POSITIVE) == pytest.approx(-math.log(1.0 - EPS_CLAMP), abs=1e-12)

    def test_worst_negative_clamped(self):
        # 1 - (1 - eps) reconstructs eps only to float precision
        assert bce_loss(1.0, Polarity.NEGATIVE) == pytest.approx(-math.log(EPS_CLAMP), rel=1e-7)


class TestModulationSigmoid:
    def test_converged_positive_stops(self):
        assert modulation_sigmoid(1.0, Polarity.POSITIVE, alpha=3.0) == 0.0

    def test_converged_negative_stops(self):
        assert modulation_sigmoid(0.0, Polarity.NEGATIVE, alpha=3.0) == 0.0

    def test_quarter_negative(self):
        assert modulation_sigmoid(0.25, Polarity.NEGATIVE, alpha=1.0) == -0.25

    @pytest.mark.parametrize("polarity", [Polarity.POSITIVE, Polarity.NEGATIVE])
    def test_matches_loss_slope(self, polarity):
        # modulation * 2*l_j is the update (descent) direction, so it must
        # equal MINUS the finite-difference slope of the loss in l_j.
        rng = np.random.default_rng(3)
        alpha, theta = 1.3, 2.0
        for _ in range(25):
            l = rng.uniform(0.05, 1.5, size=6)
            g = goodness(l)
            p = prob_sigmoid(g, alpha, theta)
            mod = modulation_sigmoid(p, polarity, alpha)
            for j in range(6):
                h = 1e-6 * max(1.0, abs(l[j]))
                up, down = l.copy(), l.copy()
                up[j] += h
                down[j] -= h
                fd = (
                    bce_loss(prob_sigmoid(goodness(up), alpha, theta), polarity)
                    - bce_loss(prob_sigmoid(goodness(down), alpha, theta), polarity)
                ) / (2 * h)
                assert mod * 2.0 * l[j] == pytest.approx(-fd, rel=1e-5, abs=1e-9)


class TestModulationSymmetric:
    def test_converged_sample_stops(self):
        assert modulation_symmetric(1.0, 5.0, 0.0, "match", epsilon=1e-6) == 0.0

    def test_balanced_factors(self):
        g, eps = 10.0, 1e-9
        pot = modulation_symmetric(0.5, g, g, "match", eps)
        dep = modulation_symmetric(0.5, g, g, "other", eps)
        assert pot == pytest.approx(0.5 / g, rel=1e-6)
        assert dep == pytest.approx(-0.5 / g, rel=1e-6)

    def test_dead_layer_magnitudes_equal(self):
        # epsilon-regularized p = 0.5: potentiation and depression cancel
        eps = 0.5
        p = prob_symmetric(0.0, 0.0, eps)
        pot = modulation_symmetric(p, 0.0, 0.0, "match", eps)
        dep = modulation_symmetric(p, 0.0, 0.0, "other", eps)
        assert pot == pytest.approx(-dep, rel=1e-12)

    @given(p=st.floats(min_value=0.0, max_value=1.0), g_m=nonneg_floats, g_o=nonneg_floats)
    def test_signs(self, p, g_m, g_o):
        assert modulation_symmetric(p, g_m, g_o, "match", 1e-6) >= 0.0
        assert modulation_symmetric(p, g_m, g_o, "other", 1e-6) < 0.0

    def test_invalid_partition_side(self):
        with pytest.raises(ValueError):
            modulation_symmetric(0.5, 1.0, 1.0, "middle", 1e-6)

    @pytest.mark.parametrize("polarity", [Polarity.POSITIVE, Polarity.NEGATIVE])
    @pytest.mark.parametrize("eps", [1e-6, 0.5])
    def test_matches_loss_slope(self, polarity, eps):
        # both the potentiation and depression branches are the exact
        # gradient of the sample's cross-entropy loss
        rng = np.random.default_rng(17)
        part = PolarityPartition(np.arange(8) < 4)

        def loss(l):
            g_pos, g_neg = partition_goodness(l, part)
            return bce_loss(prob_symmetric(g_pos, g_neg, eps), polarity)

        for _ in range(25):
            l = rng.uniform(0.05, 1.5, size=8)
            g_pos, g_neg = partition_goodness(l, part)
            p_match = (
                prob_symmetric(g_pos, g_neg, eps)
                if polarity is Polarity.POSITIVE
                else prob_symmetric(g_neg, g_pos, eps)
            )
            g_match, g_other = (g_pos, g_neg) if polarity is Polarity.POSITIVE else (g_neg, g_pos)
            match_mask = part.pos_mask if polarity is Polarity.POSITIVE else ~part.pos_mask
            for j in range(8):
                side = "match" if match_mask[j] else "other"
                mod = modulation_symmetric(p_match, g_match, g_other, side, eps)
                h = 1e-6 * max(1.0, abs(l[j]))
                up, down = l.copy(), l.copy()
                up[j] += h
                down[j] -= h
                fd = (loss(up) - loss(down)) / (2 * h)
                assert mod * 2.0 * l[j] == pytest.approx(-fd, rel=1e-5, abs=1e-9)


class TestBatchedForms:
    """The vectorized helpers must agree with the scalar operations."""

    def test_sigmoid_rows(self):
        rng = np.random.default_rng(5)
        prob = SigmoidProb(alpha=1.2, theta=1.5)
        part = PolarityPartition.all_positive(6)
        latents = rng.uniform(0, 1.5, size=(9, 6))
        codes = np.resize(np.array([1, -1], dtype=np.int8), 9)
        p, mod = modulation_batch(latents, codes, prob, part)
        for b in range(9):
            g = goodness(latents[b])
            p_ref = prob_sigmoid(g, prob.alpha, prob.theta)
            assert p[b] == pytest.approx(p_ref, rel=1e-12)
            expected = modulation_sigmoid(p_ref, Polarity(codes[b]), prob.alpha)
            assert np.allclose(mod[b], expected, rtol=1e-12)

    def test_symmetric_rows(self):
        rng = np.random.default_rng(6)
        prob = SymmetricProb(epsilon=0.25)
        part = PolarityPartition.split_halves(6)
        latents = rng.uniform(0, 1.5, size=(8, 6))
        codes = np.resize(np.array([1, -1], dtype=np.int8), 8)
        p, mod = modulation_batch(latents, codes, prob, part)
        for b in range(8):
            g_pos, g_neg = partition_goodness(latents[b], part)
            assert p[b] == pytest.approx(prob_symmetric(g_pos, g_neg, prob.epsilon), rel=1e-12)
            if codes[b] > 0:
                g_m, g_o, match_mask = g_pos, g_neg, part.pos_mask
                p_match = prob_symmetric(g_pos, g_neg, prob.epsilon)
            else:
                g_m, g_o, match_mask = g_neg, g_pos, ~part.pos_mask
                p_match = prob_symmetric(g_neg, g_pos, prob.epsilon)
            for j in range(6):
                side = "match" if match_mask[j] else "other"
                expected = modulation_symmetric(p_match, g_m, g_o, side, prob.epsilon)
                assert mod[b, j] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("prob", [SigmoidProb(alpha=1.2, theta=1.5),
                                      SymmetricProb(epsilon=0.25)])
    def test_modulation_probability_is_probability_batch_bitwise(self, prob):
        rng = np.random.default_rng(8)
        part = PolarityPartition.split_halves(7)
        latents = rng.uniform(0, 1.5, size=(11, 7))
        codes = np.resize(np.array([1, -1], dtype=np.int8), 11)
        p, _ = modulation_batch(latents, codes, prob, part)
        assert np.array_equal(p, probability_batch(latents, prob, part))

    def test_probability_batch_bounds(self):
        rng = np.random.default_rng(7)
        latents = rng.uniform(0, 3.0, size=(30, 10))
        part = PolarityPartition.split_halves(10)
        for prob in (SigmoidProb(), SymmetricProb()):
            p = probability_batch(latents, prob, part)
            assert np.all((p >= 0.0) & (p <= 1.0))


def test_import_leaves_scipy_unloaded():
    # scipy.sparse and scipy.spatial are loaded at first use, not by ``import ffa``
    code = "import sys, ffa; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(ffa.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120, env=env)
    assert done.stdout.strip() == "[]"
