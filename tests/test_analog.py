import numpy as np
import pytest

from ffa.analog import (
    ADAM_EPS,
    ADAM_TILE,
    AdamState,
    DenseLayer,
    TrainConfig,
    adam_step,
    forward_batch,
    layer_gradient,
    partition_for,
    train_analog,
)
from ffa.core import PolarityPartition, SigmoidProb, SymmetricProb
from ffa.data import Dataset, LabelCodebook, batches, pair_codes
from ffa.errors import ConfigError, DivergenceError
from ffa import metrics
from tests.reference import (
    Polarity,
    forward,
    sample_loss,
    scalar_factorized_gradient,
    x_form_gradient,
)


def make_layer(n_in, n_out, seed=0, prob=None):
    prob = prob or SigmoidProb()
    return DenseLayer.initialize(n_in, n_out, partition_for(prob, n_out), seed)


def codes_of(*polarities):
    return np.array([p.value for p in polarities], dtype=np.int8)


def gradient(layer, rows, polarities, prob):
    """layer_gradient's weight gradient for the given input rows."""
    return layer_gradient(layer, np.atleast_2d(rows), codes_of(*polarities), prob)[0]


class TestDenseLayer:
    def test_bias_is_a_read_only_none(self):
        # the layer has no bias term; the property remains for the benchmark's round-trip check
        layer = make_layer(4, 3)
        assert layer.bias is None
        with pytest.raises(AttributeError):
            layer.bias = np.zeros(3)
        assert layer.bias is None


class TestForward:
    def test_zero_weights(self):
        layer = DenseLayer(np.zeros((4, 3)), PolarityPartition.all_positive(4))
        _, latent = forward(layer, np.array([1.0, 2.0, 3.0]))
        assert np.all(latent == 0.0)

    def test_relu_clips_negatives(self):
        layer = DenseLayer(np.eye(2), PolarityPartition.all_positive(2))
        preact, latent = forward(layer, np.array([-1.0, 2.0]))
        assert np.array_equal(preact, [-1.0, 2.0])
        assert np.array_equal(latent, [0.0, 2.0])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((5, 7))
        x = rng.standard_normal(7)
        layer = DenseLayer(W, PolarityPartition.all_positive(5))
        preact, latent = forward(layer, x)
        for j in range(5):
            acc = 0.0
            for i in range(7):
                acc += W[j, i] * x[i]
            assert preact[j] == pytest.approx(acc, rel=1e-12, abs=1e-15)
            assert latent[j] == pytest.approx(max(acc, 0.0), rel=1e-12, abs=1e-15)

    def test_dimension_mismatch(self):
        layer = make_layer(4, 3)
        with pytest.raises(ConfigError):
            forward(layer, np.zeros(5))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        layer = make_layer(6, 4, seed=1)
        X = rng.uniform(0, 1, size=(5, 6))
        latent_b = forward_batch(layer, X)
        for b in range(5):
            _, latent = forward(layer, X[b])
            assert np.allclose(latent_b[b], latent, rtol=1e-13)


def finite_difference_gradient(layer, x, polarity, prob_fn, h=1e-6):
    """Independent loss-slope oracle over every weight."""
    part = layer.partition

    def loss(W):
        return sample_loss(DenseLayer(W, part), x, polarity, prob_fn)

    W = layer.weights
    grad = np.zeros_like(W)
    for j in range(W.shape[0]):
        for i in range(W.shape[1]):
            step = h * max(1.0, abs(W[j, i]))
            up, down = W.copy(), W.copy()
            up[j, i] += step
            down[j, i] -= step
            grad[j, i] = (loss(up) - loss(down)) / (2 * step)
    return grad


def draw_fd_safe(rng, n_in, n_out, prob):
    """Random layer/input pair whose pre-activations are away from the kink."""
    while True:
        layer = DenseLayer(
            rng.uniform(-0.5, 0.5, size=(n_out, n_in)), partition_for(prob, n_out)
        )
        x = rng.uniform(0.05, 1.0, size=n_in)
        preact, _ = forward(layer, x)
        if np.min(np.abs(preact)) > 1e-3:
            return layer, x


class TestLayerGradient:
    @pytest.mark.parametrize("prob", [SigmoidProb(), SymmetricProb(epsilon=0.5)])
    @pytest.mark.parametrize("polarity", [Polarity.POSITIVE, Polarity.NEGATIVE])
    def test_finite_difference_oracle(self, prob, polarity):
        rng = np.random.default_rng(8)
        for _ in range(5):
            layer, x = draw_fd_safe(rng, 6, 4, prob)
            grad = gradient(layer, x, [polarity], prob)
            fd = finite_difference_gradient(layer, x, polarity, prob)
            assert np.allclose(grad, fd, rtol=1e-4, atol=1e-10)

    def test_mean_is_linear_in_batch(self):
        rng = np.random.default_rng(9)
        prob = SymmetricProb()
        layer = make_layer(6, 4, seed=2, prob=prob)
        x1, x2 = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
        g1 = gradient(layer, x1, [Polarity.POSITIVE], prob)
        g2 = gradient(layer, x2, [Polarity.NEGATIVE], prob)
        g12 = gradient(layer, [x1, x2], [Polarity.POSITIVE, Polarity.NEGATIVE], prob)
        assert np.allclose(g12, (g1 + g2) / 2.0, rtol=1e-12, atol=1e-15)

    def test_inactive_neuron_gradient_exactly_zero(self):
        rng = np.random.default_rng(10)
        prob = SigmoidProb()
        layer = make_layer(5, 3, seed=3)
        x = rng.uniform(0.1, 1.0, size=5)
        preact, _ = forward(layer, x)
        grad = gradient(layer, x, [Polarity.POSITIVE], prob)
        for j in range(3):
            if preact[j] <= 0.0:
                assert np.all(grad[j] == 0.0)

    def test_zero_weight_layer_symmetric(self):
        # dead layer: ReLU derivative gates every update to exactly zero
        prob = SymmetricProb(epsilon=0.5)
        layer = DenseLayer(np.zeros((4, 3)), PolarityPartition.split_halves(4))
        grad = gradient(layer, [[0.5, 0.2, 0.9]] * 2, [Polarity.POSITIVE, Polarity.NEGATIVE], prob)
        assert np.all(grad == 0.0)

    def test_empty_batch_rejected(self):
        layer = make_layer(3, 2)
        with pytest.raises(ConfigError, match="empty batch"):
            layer_gradient(layer, np.zeros((0, 3)), np.zeros(0, dtype=np.int8), SigmoidProb())

    @pytest.mark.parametrize("prob", [SigmoidProb(alpha=0.5, theta=2.0), SymmetricProb()],
                             ids=["sigmoid", "symmetric"])
    def test_pair_batch_matches_x_form_reference(self, prob):
        # bench shape: 50 pairs of 784-pixel images, 100 code bits, 200 units
        rng = np.random.default_rng(31)
        images = rng.uniform(0.0, 1.0, size=(50, 784)) * (rng.random((50, 784)) < 0.19)
        book = LabelCodebook(length=100, density=0.3, seed=101)
        batch = next(batches(Dataset(images, rng.integers(0, 10, 50)), 50, seed=4, epoch=0))
        layer = DenseLayer.initialize(884, 200, partition_for(prob, 200), seed=5)
        codes = pair_codes(len(batch))
        grad_w, _, latent = layer_gradient(layer, batch.images, codes, prob,
                                           batch.codewords(book))
        X = batch.rows(book)
        want_w = x_form_gradient(layer, X, [Polarity(int(c)) for c in codes], prob)
        assert 0 < np.count_nonzero(latent) < latent.size
        assert np.max(np.abs(grad_w - want_w)) <= 1e-12 * np.max(np.abs(want_w))
        for row, x in zip(latent, X):
            assert np.allclose(row, forward(layer, x)[1], rtol=1e-12, atol=1e-15)

    def test_tail_must_split_over_the_images(self):
        layer = make_layer(7, 3)
        with pytest.raises(ConfigError, match="does not split"):
            forward_batch(layer, np.zeros((2, 5)), np.zeros((3, 2)))
        with pytest.raises(ConfigError, match="code bits"):
            forward_batch(layer, np.zeros((2, 4)), np.zeros((4, 2)))

    def test_factorizes_into_three_factors(self):
        # grad = -(modulation) * relu' * 2*latent_j * x_i, assembled from
        # the scalar operations independently of the vectorized path
        rng = np.random.default_rng(12)
        for prob in (SigmoidProb(alpha=1.5, theta=1.0), SymmetricProb(epsilon=0.3)):
            for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE):
                layer, x = draw_fd_safe(rng, 7, 4, prob)
                grad = gradient(layer, x, [polarity], prob)
                expected = scalar_factorized_gradient(layer, x, polarity, prob)
                assert np.allclose(grad, expected, rtol=1e-10, atol=1e-14)


class TestAdam:
    def test_zero_gradient_first_step(self):
        layer = make_layer(3, 2, seed=4)
        before = layer.weights.copy()
        state = AdamState.zeros_like(layer.weights)
        adam_step(layer.weights, np.zeros_like(before), state, eta=0.1)
        assert np.array_equal(layer.weights, before)

    def test_single_step_from_zero_moments(self):
        # one step: delta = -eta * g / (|g| + eps)
        layer = DenseLayer(np.zeros((2, 2)), PolarityPartition.all_positive(2))
        state = AdamState.zeros_like(layer.weights)
        g = np.array([[0.5, -2.0], [1e-3, 0.0]])
        adam_step(layer.weights, g, state, eta=0.1)
        expected = -0.1 * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(layer.weights, expected, rtol=1e-12, atol=1e-15)

    def test_constant_gradient_fixed_point(self):
        # scalar simulation oracle: step size converges to eta * sign(g)
        layer = DenseLayer(np.zeros((1, 1)), PolarityPartition.all_positive(1))
        state = AdamState.zeros_like(layer.weights)
        g = np.array([[0.37]])
        prev = layer.weights.copy()
        for _ in range(800):
            prev = layer.weights.copy()
            adam_step(layer.weights, g, state, eta=0.01)
        delta = float(layer.weights[0, 0] - prev[0, 0])
        assert delta == pytest.approx(-0.01, rel=1e-3)

    @pytest.mark.parametrize("shape", [
        (7, 5), (5,), (ADAM_TILE - 1,), (ADAM_TILE,), (ADAM_TILE + 1,), (200, 884), (200,),
    ], ids=["weights", "vector", "tile-1", "tile", "tile+1", "bench_weights", "bench_vector"])
    def test_matches_textbook_expression_bitwise(self, shape):
        # the in-place step rounds every operation as the plain expression does
        rng = np.random.default_rng(23)
        tensor = rng.normal(size=shape)
        want_tensor, m, v = tensor.copy(), np.zeros(shape), np.zeros(shape)
        state = AdamState.zeros_like(tensor)
        for step in range(1, 30):
            grad = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2, size=shape)
            adam_step(tensor, grad, state, eta=0.01)
            m += (1.0 - 0.9) * (grad - m)
            v += (1.0 - 0.999) * (grad * grad - v)
            m_hat, v_hat = m / (1.0 - 0.9**step), v / (1.0 - 0.999**step)
            want_tensor -= 0.01 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert np.array_equal(tensor, want_tensor)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_scratch_is_at_most_one_tile(self):
        for size in (5, ADAM_TILE + 1):
            state = AdamState.zeros_like(np.zeros(size))
            assert [b.shape for b in state.scratch] == [(min(size, ADAM_TILE),)] * 2

    def test_non_contiguous_operands_refused(self):
        # a flat view of these would be a copy, and the step would be lost
        tensor = np.zeros((4, 6))
        with pytest.raises(ConfigError, match="C-contiguous"):
            adam_step(tensor.T, np.ones((6, 4)), AdamState.zeros_like(tensor.T), eta=0.1)
        with pytest.raises(ConfigError, match="C-contiguous"):
            AdamState(np.zeros((4, 6), order="F"), np.zeros((4, 6)))

    def test_moment_shapes_checked(self):
        layer = make_layer(3, 2)
        state = AdamState.zeros_like(layer.weights)
        with pytest.raises(ConfigError):
            adam_step(layer.weights, np.zeros((5, 5)), state, eta=0.1)


class TestTrainAnalog:
    def test_learns_synthetic_task(self, synthetic_data):
        for prob in (SigmoidProb(), SymmetricProb()):
            cfg = TrainConfig(eta=0.01, batch_size=50, epochs=4, seed=3, prob_fn=prob)
            layer, log = train_analog(cfg, synthetic_data, n_out=60)
            acc = metrics.accuracy(
                layer, synthetic_data.test, synthetic_data.codebook,
                metrics.analog_runner(), prob,
            )
            assert acc >= 0.9, f"{type(prob).__name__} reached only {acc:.3f}"
            assert len(log) == 4
            assert np.isfinite([e.train_loss for e in log]).all()

    def test_zero_epochs_chance_level(self, synthetic_data):
        prob = SymmetricProb()
        cfg = TrainConfig(eta=0.01, batch_size=50, epochs=0, seed=3, prob_fn=prob)
        layer, log = train_analog(cfg, synthetic_data, n_out=60)
        assert log == []
        acc = metrics.accuracy(
            layer, synthetic_data.test, synthetic_data.codebook,
            metrics.analog_runner(), prob,
        )
        assert 0.02 <= acc <= 0.25

    def test_deterministic_trajectory(self, synthetic_data):
        prob = SigmoidProb()
        cfg = TrainConfig(eta=0.01, batch_size=25, epochs=2, seed=11, prob_fn=prob)
        layer_a, _ = train_analog(cfg, synthetic_data, n_out=20)
        layer_b, _ = train_analog(cfg, synthetic_data, n_out=20)
        assert np.array_equal(layer_a.weights, layer_b.weights)

    def test_divergence_detected(self, synthetic_data):
        # an absurd learning rate overflows the goodness and poisons ADAM
        prob = SigmoidProb(alpha=1.0, theta=2.0)
        cfg = TrainConfig(eta=1e200, batch_size=50, epochs=1, seed=3, prob_fn=prob)
        with pytest.raises(DivergenceError), np.errstate(all="ignore"):
            train_analog(cfg, synthetic_data, n_out=10)
