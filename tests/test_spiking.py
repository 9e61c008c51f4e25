import numpy as np
import pytest
from scipy import stats
from scipy.sparse import csr_array

import ffa.spiking as spiking_mod
from ffa.analog import DenseLayer, TrainConfig, layer_gradient, partition_for
from ffa.checkpoint import load_checkpoint, save_checkpoint
from ffa.core import PolarityPartition, SigmoidProb, SymmetricProb, modulation_batch
from ffa.data import Dataset, ExperimentData, LabelCodebook
from ffa.errors import ConfigError, DataError
from ffa.spiking import (
    TRACE_KINDS,
    EligibilityTrace,
    LIFConfig,
    LIFState,
    OutputTrace,
    SpikeEncoderConfig,
    SpikingConfig,
    TraceConfig,
    eligibility_step,
    hebbian_impulse,
    lif_step,
    rate_encode,
    simulate,
    train_hebbian,
)
from ffa import _kernels, metrics
from tests.reference import Polarity, forward, row_major_simulate


def densify(X, fired):
    """Fired positions among the nonzero inputs of ``X`` (row-major) as a dense 0/1 array."""
    rows, cols = np.nonzero(X)
    spikes = np.zeros(X.shape)
    spikes[rows[fired], cols[fired]] = 1.0
    return spikes


def drawn_spikes(X, scale, rng):
    """One timestep of the production encoder over ``X`` [B, n_in], as a dense 0/1 array.

    Like ``simulate``, it hands ``rate_encode`` the probabilities of the nonzero
    inputs in row-major order, so the same generator state draws the same spikes.
    """
    rows, cols = np.nonzero(X)
    return densify(X, rate_encode(scale * X[rows, cols], rng))


def dense_rate_encode(x, scale, rng):
    """The dense encoder that address events replaced: one draw per input per timestep."""
    return (rng.random(x.shape) < scale * x).astype(np.float64)


def record_lif_inputs(monkeypatch, check=None):
    """Make ``simulate``'s ``lif_step`` record its input spikes, after ``check(spikes, weights)``."""
    seen, real = [], spiking_mod.lif_step

    def recording(state, weights, spikes):
        if check is not None:
            check(spikes, weights)
        seen.append(spikes)
        return real(state, weights, spikes)

    monkeypatch.setattr(spiking_mod, "lif_step", recording)
    return seen


class TestRateEncode:
    def test_zero_rate_never_spikes(self, monkeypatch, numpy_path):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert rate_encode(np.zeros(50), rng).size == 0
        assert rate_encode(np.zeros(0), rng).size == 0
        X = rng.uniform(0.0, 1.0, size=(7, 30)) * (rng.random((7, 30)) < 0.4)
        X[2] = 0.0
        seen = record_lif_inputs(monkeypatch)
        layer, spk = tiny_model(n_in=30)
        simulate(layer, X, spk, rng)
        total = sum(spikes.toarray() for spikes in seen)
        assert len(seen) == spk.encoder.steps
        assert np.all(total[X == 0.0] == 0.0)
        assert total.sum() > 0

    def test_zero_scale_silent(self, monkeypatch, numpy_path):
        rng = np.random.default_rng(0)
        seen = record_lif_inputs(monkeypatch)
        layer, spk = tiny_model(encoder=SpikeEncoderConfig(scale=0.0, steps=6, active_window=2))
        final = simulate(layer, np.ones((3, 15)), spk, rng)
        assert all(spikes.nnz == 0 for spikes in seen)
        assert np.all(final == 0.0)

    def test_fires_ascending_positions(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.0, 1.0, size=500)
        for _ in range(50):
            fired = rate_encode(p, rng)
            assert fired.dtype == np.intp
            assert np.all(np.diff(fired) > 0) and np.all((fired >= 0) & (fired < p.size))
        assert rate_encode(np.ones(9), rng).tolist() == list(range(9))

    def test_spike_counts_fit_binomial(self, monkeypatch, numpy_path):
        # Over one simulate call each input spikes Binomial(steps, scale * x)
        # times.  Chi-square per distinct rate, bins pooled to >= 5 expected.
        rates = np.array([0.1, 0.35, 0.7, 1.0])
        scale, steps, rows = 0.5, 24, 3000
        seen = record_lif_inputs(monkeypatch)
        layer, spk = tiny_model(n_in=rates.size, encoder=SpikeEncoderConfig(scale, steps, 0))
        simulate(layer, np.tile(rates, (rows, 1)), spk, np.random.default_rng(2))
        counts = sum(spikes.toarray() for spikes in seen)
        for j, x in enumerate(rates):
            expected = rows * stats.binom.pmf(np.arange(steps + 1), steps, scale * x)
            observed = np.bincount(counts[:, j].astype(int), minlength=steps + 1)
            keep = expected >= 5
            pooled_obs = np.append(observed[keep], observed[~keep].sum())
            pooled_exp = np.append(expected[keep], expected[~keep].sum())
            pvalue = stats.chisquare(pooled_obs, pooled_exp * rows / pooled_exp.sum()).pvalue
            assert pvalue > 1e-3, (x, pvalue)
            assert counts[:, j].mean() == pytest.approx(steps * scale * x, rel=0.05)

    def test_csr_spikes_replay_the_dense_scatter(self):
        # the CSR array built from the fired events equals the oracle's dense scatter
        X = np.random.default_rng(3).uniform(0.0, 1.0, size=(40, 25))
        X *= np.random.default_rng(4).random(X.shape) < 0.3
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        x, cols, starts = spiking_mod._input_events(X)
        for _ in range(10):
            spikes = spiking_mod._fired_spikes(cols, starts, rate_encode(0.5 * x, rng), X.shape)
            assert isinstance(spikes, csr_array) and spikes.shape == X.shape
            assert np.array_equal(spikes.toarray(), drawn_spikes(X, 0.5, ref_rng))

    @pytest.mark.parametrize("pixel", [1.2, -0.1, np.nan])
    @pytest.mark.parametrize("path", ["eval", "batch", "online"])
    def test_rejects_out_of_range(self, small_data, path, pixel):
        images = small_data.train.images[:6].copy()
        images[:, 0] = pixel
        bad = Dataset(images, small_data.train.labels[:6])
        prob = SymmetricProb()
        spk = SpikingConfig(n_out=10)
        with pytest.raises(DataError):
            if path == "eval":
                layer = DenseLayer.initialize(small_data.input_dim, 10, partition_for(prob, 10), 0)
                metrics.accuracy(layer, bad, small_data.codebook, metrics.spiking_runner(spk, 0), prob)
            else:
                cfg = TrainConfig(eta=0.1, batch_size=2, epochs=1, seed=0, prob_fn=prob)
                train_hebbian(cfg, ExperimentData(bad, small_data.test, small_data.codebook), path, spk)


class TestLIF:
    def test_zero_weights_decay_to_rest(self):
        state = LIFState(np.array([0.8, 0.4]), LIFConfig(decay=0.85, threshold=1.0))
        W = np.zeros((2, 3))
        spikes = np.ones(3)
        for k in range(1, 30):
            out = lif_step(state, W, spikes)
            assert out.sum() == 0.0
            assert np.allclose(state.potential, [0.8 * 0.85**k, 0.4 * 0.85**k], rtol=1e-12)

    @pytest.mark.parametrize("drive,fires", [(0.10, False), (0.20, True)])
    def test_constant_drive_fixed_point(self, drive, fires):
        # geometric series: V converges to drive / (1 - decay); with decay
        # 0.85 and threshold 1 the boundary drive is 0.15
        cfg = LIFConfig(decay=0.85, threshold=1.0, input_gain=1.0)
        state = LIFState.zeros(1, cfg)
        W = np.array([[drive]])
        spikes = np.ones(1)
        fired = False
        for _ in range(400):
            fired = fired or lif_step(state, W, spikes)[0] > 0
        assert fired == fires
        if not fires:
            assert state.potential[0] == pytest.approx(drive / 0.15, rel=1e-6)

    def test_single_subthreshold_spike_never_fires(self):
        cfg = LIFConfig(decay=0.85, threshold=1.0, input_gain=1.0)
        state = LIFState.zeros(1, cfg)
        W = np.array([[0.9 * 1.0 * (1 - 0.85)]])  # below threshold*(1-decay)
        out = lif_step(state, W, np.ones(1))
        assert out[0] == 0.0
        for _ in range(100):
            assert lif_step(state, W, np.zeros(1))[0] == 0.0

    def test_reset_to_zero(self):
        state = LIFState(np.array([0.0]), LIFConfig(decay=1.0, reset_mode="to_zero", input_gain=1.0))
        out = lif_step(state, np.array([[1.5]]), np.ones(1))
        assert out[0] == 1.0
        assert state.potential[0] == 0.0

    def test_reset_subtract(self):
        state = LIFState(np.array([0.0]), LIFConfig(decay=1.0, reset_mode="subtract", input_gain=1.0))
        out = lif_step(state, np.array([[1.5]]), np.ones(1))
        assert out[0] == 1.0
        assert state.potential[0] == pytest.approx(0.5, rel=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        W = rng.uniform(-0.5, 0.5, size=(4, 6))
        spikes = (rng.random((3, 6)) < 0.4).astype(float)
        cfg = LIFConfig(input_gain=2.0)
        batch_state = LIFState.zeros((3, 4), cfg)
        single_states = [LIFState.zeros(4, cfg) for _ in range(3)]
        for _ in range(10):
            out_b = lif_step(batch_state, W, spikes)
            for b in range(3):
                out_s = lif_step(single_states[b], W, spikes[b])
                assert np.array_equal(out_b[b], out_s)
                assert np.allclose(batch_state.potential[b], single_states[b].potential, rtol=1e-13)

    def test_gain_scales_current(self):
        cfg = LIFConfig(decay=0.0, threshold=10.0, input_gain=4.0)
        state = LIFState.zeros(1, cfg)
        lif_step(state, np.array([[0.5]]), np.ones(1))
        assert state.potential[0] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_csr_current_matches_dense_gemm(self, monkeypatch, numpy_path, rows):
        # every timestep of an eval call drives the layer with CSR spikes whose
        # current equals the dense GEMM of the same spikes
        def check(spikes, weights):
            assert isinstance(spikes, csr_array) and spikes.shape == (rows, weights.shape[1])
            want = spikes.toarray() @ weights.T
            assert np.allclose(spikes @ weights.T, want, rtol=0, atol=1e-12)

        seen = record_lif_inputs(monkeypatch, check)
        layer, spk = tiny_model(n_in=60)
        X = np.random.default_rng(6).uniform(0.0, 1.0, size=(rows, 60))
        simulate(layer, X, spk, np.random.default_rng(7))
        assert len(seen) == spk.encoder.steps
        assert sum(spikes.nnz for spikes in seen) > 0

    @pytest.mark.parametrize("tau_e", [None, 0.9, 0.3], ids=["eval", "plastic", "plastic_tau_0.3"])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_current_reads_a_contiguous_copy_of_the_current_weights(self, monkeypatch, numpy_path,
                                                                     rows, tau_e):
        # a C-ordered W.T spares scipy a copy per step; presynaptic-major
        # weights are read live, so every plastic step's move is seen at once
        layer, spk = tiny_model(n_in=60)

        def check(spikes, weights):
            assert weights.T.flags.c_contiguous
            assert weights is layer.weights

        seen = record_lif_inputs(monkeypatch, check)
        X = np.random.default_rng(9).uniform(0.0, 1.0, size=(rows, 60))
        plastic = () if tau_e is None else (
            np.resize(np.array([1, -1], dtype=np.int8), rows), SymmetricProb(),
            EligibilityTrace.zeros_like(layer.weights, tau_e), 0.5)
        before = layer.weights.copy()
        simulate(layer, X, spk, np.random.default_rng(10), *plastic)
        # a one-row plastic call with tau_e >= 1/2 runs event-driven, without lif_step
        event = tau_e is not None and rows == 1 and tau_e >= 0.5
        assert len(seen) == (0 if event else spk.encoder.steps)
        assert np.array_equal(layer.weights, before) == (tau_e is None)

    def test_csr_step_matches_dense_step(self):
        rng = np.random.default_rng(8)
        W = rng.uniform(-0.5, 0.5, size=(5, 40))
        cfg = LIFConfig(input_gain=2.0)
        sparse_state, dense_state = LIFState.zeros((7, 5), cfg), LIFState.zeros((7, 5), cfg)
        for _ in range(20):
            spikes = (rng.random((7, 40)) < 0.1).astype(float)
            got = lif_step(sparse_state, W, csr_array(spikes))
            want = lif_step(dense_state, W, spikes)
            assert np.array_equal(got, want)
            assert np.allclose(sparse_state.potential, dense_state.potential, rtol=0, atol=1e-12)


def scalar_trace_reference(kind, spikes, mu, tau_o):
    """Plain scalar re-statement of the three recurrences."""
    t = 0.0
    out = []
    for i in spikes:
        if kind == "li":
            t = mu * i + tau_o * t
        elif kind == "hard_li":
            t = i + tau_o * (1.0 - i) * t
        else:  # relu
            t = mu * i + t
        out.append(t)
    return out


class TestOutputTrace:
    @pytest.mark.parametrize("kind", ["li", "hard_li", "relu"])
    def test_matches_scalar_reference_exactly(self, kind):
        rng = np.random.default_rng(2)
        n_seq, length = 500, 40
        spikes = (rng.random((length, n_seq)) < 0.3).astype(float)
        trace = OutputTrace.zeros(n_seq, TraceConfig(kind=kind, mu=0.1, tau_o=0.9))
        history = []
        for t in range(length):
            spiking_mod.trace_step(trace, spikes[t])
            history.append(trace.value.copy())
        for s in range(n_seq):
            ref = scalar_trace_reference(kind, spikes[:, s], 0.1, 0.9)
            got = [history[t][s] for t in range(length)]
            assert got == ref  # bitwise: same arithmetic, same order

    def test_hard_li_spike_pins_to_one(self):
        trace = OutputTrace.zeros(3, TraceConfig(kind="hard_li", tau_o=0.9))
        trace.value = np.array([0.2, 0.7, 0.0])
        spiking_mod.trace_step(trace, np.ones(3))
        assert np.array_equal(trace.value, np.ones(3))

    def test_li_geometric_decay(self):
        cfg = TraceConfig(kind="li", mu=0.3, tau_o=0.8)
        trace = OutputTrace.zeros(1, cfg)
        trace.value = np.array([1.7])
        for _ in range(11):
            spiking_mod.trace_step(trace, np.zeros(1))
        assert trace.value[0] == pytest.approx(1.7 * 0.8**11, rel=1e-12)

    def test_relu_accumulates_mu_per_spike(self):
        rng = np.random.default_rng(3)
        cfg = TraceConfig(kind="relu", mu=0.1)
        trace = OutputTrace.zeros(1, cfg)
        spikes = (rng.random(60) < 0.4).astype(float)
        prev = 0.0
        for s in spikes:
            spiking_mod.trace_step(trace, np.array([s]))
            assert trace.value[0] >= prev  # monotone non-decreasing
            prev = trace.value[0]
        assert trace.value[0] == pytest.approx(0.1 * spikes.sum(), rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        mu, tau_o = 0.25, 0.9
        li = OutputTrace.zeros(200, TraceConfig(kind="li", mu=mu, tau_o=tau_o))
        hard = OutputTrace.zeros(200, TraceConfig(kind="hard_li", tau_o=tau_o))
        for _ in range(500):
            spikes = (rng.random(200) < 0.5).astype(float)
            spiking_mod.trace_step(li, spikes)
            spiking_mod.trace_step(hard, spikes)
            assert np.all(li.value >= 0.0)
            assert np.all(li.value <= mu / (1 - tau_o) * (1 + 1e-12))
            assert np.all(hard.value >= 0.0)
            assert np.all(hard.value <= 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TraceConfig(kind="boxcar")


class TestEligibility:
    def test_constant_impulse_closed_form(self):
        for tau_e in (0.9, 0.99):
            el = EligibilityTrace(np.zeros((2, 2)), tau_e)
            w = np.zeros((2, 2))
            for k in range(1, 200):
                el.impulse[:] = 0.7
                eligibility_step(el, w, eta=0.0)
                assert np.allclose(el.e, 0.7 * (1 - tau_e**k), rtol=0, atol=1e-12)

    def test_no_smoothing_when_tau_zero(self):
        el = EligibilityTrace(np.zeros((2, 3)), 0.0)
        w = np.zeros((2, 3))
        g = np.arange(6.0).reshape(2, 3)
        el.impulse[:] = g
        eligibility_step(el, w, eta=1.0)
        assert np.array_equal(el.e, g)
        assert np.array_equal(w, g)

    def test_silent_impulse_decays_to_zero(self):
        el = EligibilityTrace(np.zeros((1, 1)), 0.9)
        el.e[:] = 1.0
        w = np.zeros((1, 1))
        drifts = []
        prev_w = 0.0
        for _ in range(300):
            el.impulse[:] = 0.0
            eligibility_step(el, w, eta=0.1)
            drifts.append(abs(float(w[0, 0]) - prev_w))
            prev_w = float(w[0, 0])
        assert el.e[0, 0] < 1e-13
        assert drifts[-1] < 1e-14  # weight drift vanishes with the trace

    def test_weight_update_adds_eta_times_trace(self):
        el = EligibilityTrace(np.zeros((1, 1)), 0.5)
        w = np.array([[2.0]])
        el.impulse[:] = 1.0
        eligibility_step(el, w, eta=0.25)
        assert el.e[0, 0] == 0.5
        assert w[0, 0] == 2.0 + 0.25 * 0.5


def random_plastic_step(rows, seed=6):
    """Trace, spikes, codes, partition and the starting e/W of one plastic timestep."""
    rng = np.random.default_rng(seed)
    n_out, n_in = 8, 11
    trace = rng.uniform(0.0, 1.5, size=(rows, n_out))
    spikes = (rng.random((rows, n_in)) < 0.4).astype(float)
    codes = np.resize(np.array([1, -1], dtype=np.int8), rows)
    return (trace, spikes, codes, PolarityPartition.split_halves(n_out),
            rng.standard_normal((n_out, n_in)), rng.standard_normal((n_out, n_in)))


class TestHebbianImpulse:
    def test_no_presynaptic_activity(self):
        part = PolarityPartition.split_halves(4)
        for rows in (1, 3):
            trace = np.tile([0.5, 0.2, 0.1, 0.0], (rows, 1))
            codes = np.resize(np.array([1, -1], dtype=np.int8), rows)
            impulse = hebbian_impulse(trace, np.zeros((rows, 6)), codes, SymmetricProb(), part)
            assert np.all(impulse == 0.0)

    def test_converged_positive_sigmoid(self):
        # saturated probability: modulation (1 - p) is exactly zero
        part = PolarityPartition.all_positive(3)
        trace = np.array([[50.0, 40.0, 30.0]])
        impulse = hebbian_impulse(trace, np.ones((1, 5)), np.array([1]),
                                  SigmoidProb(alpha=1.0, theta=2.0), part)
        assert np.all(impulse == 0.0)

    @pytest.mark.parametrize("prob", [SigmoidProb(theta=1.0), SymmetricProb(epsilon=0.5)])
    @pytest.mark.parametrize("polarity", [Polarity.POSITIVE, Polarity.NEGATIVE])
    def test_matches_analog_update_direction(self, prob, polarity):
        # pass-through dynamics double: one relu-trace step with mu=1 over
        # relu(W x) makes the trace equal the analog latent; the impulse must
        # then point exactly along the analog descent direction
        rng = np.random.default_rng(21)
        n_in, n_out = 9, 6
        layer = DenseLayer(
            rng.uniform(-0.4, 0.4, size=(n_out, n_in)), partition_for(prob, n_out)
        )
        x = rng.uniform(0.05, 1.0, size=n_in)
        _, latent = forward(layer, x)
        trace = OutputTrace.zeros((1, n_out), TraceConfig(kind="relu", mu=1.0))
        spiking_mod.trace_step(trace, latent[None, :])  # pass-through: spikes := latent
        assert np.array_equal(trace.value[0], latent)

        # the production impulse, folded by the production eligibility step
        el = EligibilityTrace.zeros_like(layer.weights, 0.0)
        hebbian_impulse(trace.value, x[None, :], np.array([polarity.value]), prob,
                        layer.partition, el.impulse)
        eligibility_step(el, np.zeros_like(layer.weights), 1.0)
        impulse = el.e
        codes = np.array([polarity.value], dtype=np.int8)
        grad, _, _ = layer_gradient(layer, x[None, :], codes, prob)
        descent = -grad.ravel()
        cos = np.dot(impulse.ravel(), descent) / (
            np.linalg.norm(impulse) * np.linalg.norm(descent)
        )
        assert cos == pytest.approx(1.0, abs=1e-6)
        # the two sides differ exactly by the goodness-gradient constant 2
        assert np.allclose(2.0 * impulse, descent.reshape(n_out, n_in), rtol=1e-10, atol=1e-14)

    def test_one_row_fold_matches_explicit_outer_bitwise(self):
        trace, spikes, codes, part, e0, w0 = random_plastic_step(rows=1)
        prob, tau_e, eta = SymmetricProb(), 0.97, 0.05

        el, w = EligibilityTrace(e0.copy(), tau_e), w0.copy()
        hebbian_impulse(trace, spikes, codes, prob, part, el.impulse)
        eligibility_step(el, w, eta)

        _, modulation = modulation_batch(trace, codes, prob, part)
        post = (modulation * trace)[0]
        e_ref, w_ref = e0.copy(), w0.copy()
        e_ref += (1.0 - tau_e) * (np.outer(post, spikes[0]) - e_ref)
        w_ref += eta * e_ref
        assert np.array_equal(el.e, e_ref) and np.array_equal(w, w_ref)

    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_sparse_spikes_match_dense_matmul(self, rows):
        rng = np.random.default_rng(9)
        n_out, n_in = 12, 50
        trace = rng.uniform(0.0, 1.5, size=(rows, n_out))
        X = rng.uniform(0.0, 1.0, size=(rows, n_in)) * (rng.random((rows, n_in)) < 0.3)
        x, cols, starts = spiking_mod._input_events(X)
        spikes = spiking_mod._fired_spikes(cols, starts, rate_encode(0.5 * x, rng), X.shape)
        codes = np.resize(np.array([1, -1], dtype=np.int8), rows)
        part, prob = PolarityPartition.split_halves(n_out), SymmetricProb()
        out = np.empty((n_out, n_in))
        got = hebbian_impulse(trace, spikes, codes, prob, part, out)
        assert got is out
        _, modulation = modulation_batch(trace, codes, prob, part)
        want = (modulation * trace).T @ spikes.toarray() / rows
        assert spikes.nnz > 0
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_rows_fold_mean_of_outer_products(self):
        trace, spikes, codes, part, e0, w0 = random_plastic_step(rows=5)
        prob, tau_e, eta = SigmoidProb(theta=1.0), 0.9, 0.3

        el, w = EligibilityTrace(e0.copy(), tau_e), w0.copy()
        hebbian_impulse(trace, spikes, codes, prob, part, el.impulse)
        eligibility_step(el, w, eta)

        _, modulation = modulation_batch(trace, codes, prob, part)
        post = modulation * trace
        mean = sum(np.outer(post[b], spikes[b]) for b in range(5)) / 5
        e_ref, w_ref = e0.copy(), w0.copy()
        e_ref += (1.0 - tau_e) * (mean - e_ref)
        w_ref += eta * e_ref
        assert np.allclose(el.e, e_ref, rtol=0, atol=1e-12)
        assert np.allclose(w, w_ref, rtol=0, atol=1e-12)


POSITIVE = np.array([Polarity.POSITIVE.value], dtype=np.int8)


def tiny_model(prob=None, n_in=15, **spiking_kwargs) -> tuple[DenseLayer, SpikingConfig]:
    prob = prob or SymmetricProb()
    spiking = SpikingConfig(
        n_out=spiking_kwargs.pop("n_out", 10),
        encoder=spiking_kwargs.pop("encoder", SpikeEncoderConfig(scale=0.25, steps=12, active_window=4)),
        **spiking_kwargs,
    )
    layer = DenseLayer.initialize(n_in, spiking.n_out, partition_for(prob, spiking.n_out), seed=5)
    layer.weights = np.asfortranarray(layer.weights)
    return layer, spiking


def positive_input(rng, n=15):
    return rng.uniform(0.0, 1.0, size=(1, n))


class TestRunSample:
    """Single-instance (B=1) runs of the shared simulation loop."""

    def test_inference_leaves_weights_untouched(self):
        rng = np.random.default_rng(7)
        layer, spk = tiny_model()
        before = layer.weights.copy()
        simulate(layer, positive_input(rng), spk, rng)
        assert np.array_equal(layer.weights, before)

    def test_all_black_image_is_inert(self):
        rng = np.random.default_rng(8)
        layer, spk = tiny_model()
        el = EligibilityTrace.zeros_like(layer.weights, 0.99)
        before = layer.weights.copy()
        final = simulate(layer, np.zeros((1, 15)), spk, rng, POSITIVE, SymmetricProb(), el, 0.1)
        assert np.all(final == 0.0)
        assert np.array_equal(layer.weights, before)
        assert np.all(el.e == 0.0)

    def test_same_seed_same_trace(self):
        layer, spk = tiny_model()
        x = positive_input(np.random.default_rng(9))
        a = simulate(layer, x, spk, np.random.default_rng(123))
        b = simulate(layer, x, spk, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_training_requires_eligibility(self):
        layer, spk = tiny_model()
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            simulate(layer, positive_input(rng), spk, rng, POSITIVE, SymmetricProb(), eta=0.1)

    def test_plasticity_gated_to_active_window(self, monkeypatch, numpy_path):
        # Record every timestep's input spikes and output trace, then replay
        # the dense rule over the last active_window steps only.  e starts
        # nonzero, so an update outside the window decays it once too often
        # and a missing update inside it once too rarely.  One row runs
        # event-driven, four run the dense rule.  The recorded spikes are the
        # positions the encoder fired among the nonzero inputs.  The recorders
        # sit in the numpy loop, so the compiled sample is switched off.
        spikes_seen, traces_seen = [], []
        real_encode, real_trace_step = spiking_mod.rate_encode, spiking_mod.trace_step

        def recording_encode(*args):
            spikes_seen.append(real_encode(*args))
            return spikes_seen[-1]

        def recording_trace_step(*args):
            trace = real_trace_step(*args)
            traces_seen.append(trace.value.copy())
            return trace

        monkeypatch.setattr(spiking_mod, "rate_encode", recording_encode)
        monkeypatch.setattr(spiking_mod, "trace_step", recording_trace_step)
        rng = np.random.default_rng(10)
        enc = SpikeEncoderConfig(scale=0.25, steps=12, active_window=4)
        prob, tau_e, eta = SymmetricProb(), 0.99, 0.1
        layer, spk = tiny_model(prob, encoder=enc)
        for rows in (1, 4):
            spikes_seen.clear()
            traces_seen.clear()
            e0 = rng.standard_normal(layer.weights.shape)
            w0 = layer.weights.copy()
            el = EligibilityTrace(np.array(e0, order="F"), tau_e)
            codes = np.resize(np.array([1, -1], dtype=np.int8), rows)
            X = rng.uniform(0.0, 1.0, size=(rows, 15))
            simulate(layer, X, spk, rng, codes, prob, el, eta)
            assert len(spikes_seen) == len(traces_seen) == enc.steps

            e_ref, w_ref = e0.copy(), w0.copy()
            for t in range(enc.steps - enc.active_window, enc.steps):
                _, modulation = modulation_batch(traces_seen[t], codes, prob, layer.partition)
                impulse = (modulation * traces_seen[t]).T @ densify(X, spikes_seen[t]) / rows
                e_ref += (1.0 - tau_e) * (impulse - e_ref)
                w_ref += eta * e_ref
            assert np.allclose(el.e, e_ref, rtol=0, atol=1e-12), rows
            assert np.allclose(layer.weights, w_ref, rtol=0, atol=1e-12), rows
            # one decay step more or less moves e by (1 - tau_e) |e|, far above the tolerance
            assert np.abs(el.e - e0).min() > 1e-4

    def test_zero_active_window_never_updates(self):
        rng = np.random.default_rng(11)
        enc = SpikeEncoderConfig(scale=0.25, steps=12, active_window=0)
        layer, spk = tiny_model(encoder=enc)
        el = EligibilityTrace.zeros_like(layer.weights, 0.99)
        before = layer.weights.copy()
        simulate(layer, positive_input(rng), spk, rng, POSITIVE, SymmetricProb(), el, 0.5)
        assert np.array_equal(layer.weights, before)


class TestMalformedPlasticCalls:
    """A plastic call needs one polarity code per row of a nonempty batch, on every path."""

    @pytest.mark.parametrize("path", ["numpy", "compiled"])
    @pytest.mark.parametrize("rows,codes", [
        (4, [1]), (4, [1, -1, 1]), (4, [[1, -1, 1, -1]]), (1, [1, -1]), (0, []),
    ], ids=["one_code_for_four_rows", "three_codes_for_four_rows", "codes_of_two_dims",
            "two_codes_for_one_row", "no_rows"])
    @pytest.mark.parametrize("tau_e", [0.3, 0.99])
    def test_refused_before_either_path(self, request, path, rows, codes, tau_e):
        if path == "numpy":
            request.getfixturevalue("numpy_path")
        layer, spk = tiny_model()
        el = EligibilityTrace.zeros_like(layer.weights, tau_e)
        el.e += 0.01
        before = layer.weights.copy(), el.e.copy()
        X = np.random.default_rng(3).uniform(0.0, 1.0, size=(rows, 15))
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="one polarity code per row of a nonempty batch"):
            simulate(layer, X, spk, rng, np.array(codes, dtype=np.int8), SymmetricProb(), el,
                     0.1)
        assert np.array_equal(layer.weights, before[0]) and np.array_equal(el.e, before[1])
        assert rng.bit_generator.state == state

    def test_plasticity_free_calls_take_any_row_count(self):
        layer, spk = tiny_model()
        assert simulate(layer, np.zeros((0, 15)), spk, np.random.default_rng(1)).shape == (0, 10)


def dense_simulate(layer, X, spiking, rng, codes, prob_fn, eligibility, eta):
    """The plastic lockstep loop on the dense rule alone: the oracle of the event-driven path.

    It replays the spikes the production encoder draws from the same generator
    state as dense arrays, and runs dense GEMMs on them.
    """
    enc = spiking.encoder
    shape = (X.shape[0], layer.n_out)
    lif = LIFState.zeros(shape, spiking.lif)
    trace = OutputTrace.zeros(shape, spiking.trace)
    active_start = enc.steps - enc.active_window
    for t in range(enc.steps):
        spikes = drawn_spikes(X, enc.scale, rng)
        spiking_mod.trace_step(trace, lif_step(lif, layer.weights, spikes))
        if t >= active_start:
            hebbian_impulse(trace.value, spikes, codes, prob_fn, layer.partition, eligibility.impulse)
            eligibility_step(eligibility, layer.weights, eta)
    return trace.value


def dense_eval_simulate(layer, X, spiking, rng):
    """A plasticity-free run on the dense encoder that address events replaced."""
    shape = (X.shape[0], layer.n_out)
    lif = LIFState.zeros(shape, spiking.lif)
    trace = OutputTrace.zeros(shape, spiking.trace)
    for _ in range(spiking.encoder.steps):
        spikes = dense_rate_encode(X, spiking.encoder.scale, rng)
        spiking_mod.trace_step(trace, lif_step(lif, layer.weights, spikes))
    return trace.value


class TestEventDrivenPlasticity:
    """A plastic B=1 call updates only the synapses of inputs that spiked; the dense rule is its oracle."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense_input", "silent_steps"])
    @pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
    @pytest.mark.parametrize("trace", TRACE_KINDS)
    @pytest.mark.parametrize("prob", [SigmoidProb(theta=1.0), SymmetricProb()], ids=["sigmoid", "symmetric"])
    @pytest.mark.parametrize("tau_e", [0.0, 0.3, 0.9, 0.999])
    def test_matches_dense_rule(self, monkeypatch, numpy_path, tau_e, prob, trace, reset_mode,
                                sparse):
        # the counters sit in the numpy event path, so the compiled sample is off
        n_in, n_out, eta = 40, 12, 0.2
        spk = SpikingConfig(
            n_out=n_out, tau_e=tau_e,
            lif=LIFConfig(reset_mode=reset_mode), trace=TraceConfig(kind=trace),
            encoder=SpikeEncoderConfig(scale=0.25, steps=12, active_window=8),
        )
        data_rng = np.random.default_rng(30)
        X = data_rng.uniform(0.0, 1.0, size=(6, n_in))
        if sparse:
            # a few dim pixels: most timesteps carry no input spike at all
            X *= data_rng.random(X.shape) < 0.05
            X[0] = 0.0
        layer = DenseLayer.initialize(n_in, n_out, partition_for(prob, n_out), seed=5)
        layer.weights = np.asfortranarray(layer.weights)
        ref_layer = DenseLayer(layer.weights.copy(), layer.partition)
        e0 = 0.1 * data_rng.standard_normal(layer.weights.shape)
        el, ref_el = EligibilityTrace(np.array(e0, order="F"), tau_e), EligibilityTrace(e0.copy(), tau_e)

        silent_steps, dense_steps, folds = [], [], []
        real_encode, real_step = spiking_mod.rate_encode, spiking_mod.eligibility_step
        real_fold = spiking_mod._EventSynapses.fold

        def recording_encode(*args):
            fired = real_encode(*args)
            silent_steps.append(fired.size == 0)
            return fired

        def counting_step(*args):
            dense_steps.append(True)
            return real_step(*args)

        def counting_fold(synapses):
            folds.append(True)
            return real_fold(synapses)

        monkeypatch.setattr(spiking_mod, "rate_encode", recording_encode)
        monkeypatch.setattr(spiking_mod, "eligibility_step", counting_step)
        monkeypatch.setattr(spiking_mod._EventSynapses, "fold", counting_fold)
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        for i, x in enumerate(X):
            codes = np.array([1 if i % 2 == 0 else -1], dtype=np.int8)
            got = simulate(layer, x[None, :], spk, rng, codes, prob, el, eta)
            want = dense_simulate(ref_layer, x[None, :], spk, ref_rng, codes, prob, ref_el, eta)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert np.allclose(layer.weights, ref_layer.weights, rtol=0, atol=1e-12)
            assert np.allclose(el.e, ref_el.e, rtol=0, atol=1e-12)

        assert not np.allclose(layer.weights, DenseLayer.initialize(n_in, n_out, layer.partition, 5).weights)
        if sparse:
            assert sum(silent_steps) > len(silent_steps) // 2
        # tau_e < 1/2 stays on the dense rule; otherwise each call folds once at
        # its end, and tau_e = 0.9 once more mid-window (0.9**7 < 1/2)
        event = tau_e >= 0.5
        assert len(dense_steps) == (0 if event else len(X) * spk.encoder.active_window)
        assert len(folds) == (0 if not event else len(X) * (2 if tau_e == 0.9 else 1))

    @pytest.mark.parametrize("tau_e", [0.9, 0.999])
    def test_online_epoch_matches_dense_rule(self, small_data, monkeypatch, tau_e):
        prob = SymmetricProb(epsilon=0.5)
        cfg = TrainConfig(eta=0.03, batch_size=1, epochs=1, seed=6, prob_fn=prob)
        spk = SpikingConfig(n_out=40, tau_e=tau_e)
        layer, log = train_hebbian(cfg, small_data, "online", spk)
        # with the kernels unloaded, online training is a loop of simulate calls
        monkeypatch.setattr(_kernels, "library", lambda: None)
        monkeypatch.setattr(spiking_mod, "simulate", dense_simulate)
        ref_layer, ref_log = train_hebbian(cfg, small_data, "online", spk)
        init = DenseLayer.initialize(small_data.input_dim, 40, layer.partition, 6)
        assert np.abs(layer.weights - init.weights).max() > 1e-3
        assert np.allclose(layer.weights, ref_layer.weights, rtol=0, atol=1e-12)
        assert log[0].train_loss == pytest.approx(ref_log[0].train_loss, rel=1e-9)


class TestPresynapticMajor:
    """Plastic synapses are stored Fortran-ordered, so W.T and e.T are C-contiguous rows per input."""

    @pytest.mark.parametrize("trace", TRACE_KINDS)
    @pytest.mark.parametrize("prob", [SigmoidProb(theta=1.0), SymmetricProb()], ids=["sigmoid", "symmetric"])
    @pytest.mark.parametrize("rows,tau_e", [(2, 0.99), (7, 0.9), (1, 0.3)])
    def test_dense_plastic_calls_equal_the_row_major_reference_bitwise(self, rows, tau_e, prob,
                                                                       trace):
        layer, spk = tiny_model(prob, n_in=40, tau_e=tau_e, trace=TraceConfig(kind=trace))
        ref_layer = DenseLayer(np.ascontiguousarray(layer.weights), layer.partition)
        e0 = 0.1 * np.random.default_rng(40).standard_normal(layer.weights.shape)
        el = EligibilityTrace(np.array(e0, order="F"), tau_e)
        ref_el = EligibilityTrace(e0.copy(), tau_e)
        data_rng, rng, ref_rng = (np.random.default_rng(s) for s in (41, 42, 42))
        codes = np.resize(np.array([1, -1], dtype=np.int8), rows)
        for _ in range(3):
            X = data_rng.uniform(0.0, 1.0, size=(rows, 40)) * (data_rng.random((rows, 40)) < 0.6)
            got = simulate(layer, X, spk, rng, codes, prob, el, 0.2)
            want = row_major_simulate(ref_layer, X, spk, ref_rng, codes, prob, ref_el, 0.2)
            assert np.array_equal(got, want)
            assert np.array_equal(layer.weights, ref_layer.weights)
            assert np.array_equal(el.e, ref_el.e)
        assert layer.weights.T.flags.c_contiguous and el.e.T.flags.c_contiguous
        assert not np.array_equal(el.e, e0)

    @pytest.mark.parametrize("mode", ["batch", "online"])
    def test_train_hebbian_returns_presynaptic_major_weights(self, small_data, mode):
        cfg = TrainConfig(eta=0.1, batch_size=20, epochs=1, seed=6, prob_fn=SigmoidProb())
        spk = SpikingConfig(n_out=12, encoder=SpikeEncoderConfig(steps=8, active_window=3))
        sub = ExperimentData(
            Dataset(small_data.train.images[:40], small_data.train.labels[:40]),
            small_data.test, small_data.codebook,
        )
        layer, _ = train_hebbian(cfg, sub, mode, spk)
        assert layer.weights.T.flags.c_contiguous

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("row_major", ["weights", "eligibility"])
    def test_plastic_call_refuses_row_major_storage(self, rows, row_major):
        layer, spk = tiny_model()
        el = EligibilityTrace.zeros_like(layer.weights, 0.99)
        if row_major == "weights":
            layer.weights = np.ascontiguousarray(layer.weights)
        else:
            el = EligibilityTrace.zeros_like(np.ascontiguousarray(layer.weights), 0.99)
        before = layer.weights.copy()
        codes = np.resize(np.array([1, -1], dtype=np.int8), rows)
        with pytest.raises(ConfigError, match="presynaptic-major"):
            simulate(layer, np.full((rows, 15), 0.5), spk, np.random.default_rng(0), codes,
                     SymmetricProb(), el, 0.1)
        assert np.array_equal(layer.weights, before) and np.all(el.e == 0.0)

    @pytest.mark.parametrize("rows", [1, 6])
    def test_loaded_checkpoint_gives_the_latents_of_the_presynaptic_major_layer(self, tmp_path,
                                                                                 rows):
        # a loaded checkpoint is row-major: a plasticity-free call copies W.T once
        # and then runs exactly as on the presynaptic-major layer it was saved from
        layer, spk = tiny_model(n_in=30)
        book = LabelCodebook(length=4, density=0.5, seed=1)
        save_checkpoint(tmp_path / "model.ffaw", layer, book)
        loaded, _ = load_checkpoint(tmp_path / "model.ffaw")
        assert loaded.weights.flags.c_contiguous and not loaded.weights.flags.f_contiguous
        X = np.random.default_rng(3).uniform(0.0, 1.0, size=(rows, 30))
        want = simulate(layer, X, spk, np.random.default_rng(4))
        got = simulate(loaded, X, spk, np.random.default_rng(4))
        assert want.sum() > 0
        assert np.array_equal(got, want)


class TestSimulateLatents:
    """Lockstep runs of many instances at once."""

    def test_lockstep_matches_run_sample_distributionally(self):
        # same model, same input: 300 single-instance calls and one 300-row
        # call draw different random streams but share the dynamics, so the
        # mean trace over many draws must agree
        rng = np.random.default_rng(12)
        layer, spk = tiny_model()
        x = positive_input(rng)
        singles = np.concatenate([
            simulate(layer, x, spk, np.random.default_rng(1000 + i)) for i in range(300)
        ])
        batched = simulate(layer, np.tile(x, (300, 1)), spk, np.random.default_rng(5000))
        assert np.allclose(singles.mean(0), batched.mean(0), atol=4 * singles.std(0).max() / np.sqrt(300) + 1e-9)

    def test_matches_dense_encoder_distributionally(self):
        # The dense encoder drew one double per input per step; address events
        # draw only for nonzero inputs.  The streams differ but the spike
        # distribution is the same, so for each of three inputs, half of them
        # zero, the latent per-unit means and goodness distributions agree.
        rng = np.random.default_rng(13)
        layer, spk = tiny_model(n_in=30)
        inputs = rng.uniform(0.0, 1.0, size=(3, 30)) * (rng.random((3, 30)) < 0.5)
        X = np.repeat(inputs, 1500, axis=0)
        new = simulate(layer, X, spk, np.random.default_rng(14))
        old = dense_eval_simulate(layer, X, spk, np.random.default_rng(15))
        for k in range(3):
            a, b = new[k * 1500 : (k + 1) * 1500], old[k * 1500 : (k + 1) * 1500]
            assert a.sum() > 0
            se = np.sqrt((a.var(0) + b.var(0)) / 1500)
            assert np.all(np.abs(a.mean(0) - b.mean(0)) <= 5 * se + 1e-12), k
            ks = stats.ks_2samp((a * a).sum(1), (b * b).sum(1))
            assert ks.pvalue > 1e-3, (k, ks.pvalue)

    @pytest.mark.parametrize("value", [1.5, -0.2, np.nan, np.inf])
    def test_rejects_out_of_range(self, value):
        layer, spk = tiny_model()
        X = np.full((2, 15), 0.5)
        X[1, 3] = value
        with pytest.raises(DataError):
            simulate(layer, X, spk, np.random.default_rng(0))

    @pytest.mark.parametrize("width", [6, 20])
    @pytest.mark.parametrize("mode", ["eval", "batch", "online"])
    def test_rejects_wrong_width(self, mode, width):
        # Every path, the event-driven online one included, checks the input
        # width before it draws or touches a weight.
        layer, spk = tiny_model()
        rows = 1 if mode == "online" else 4
        plastic = () if mode == "eval" else (
            np.where(np.arange(rows) % 2 == 0, 1, -1).astype(np.int8), SymmetricProb(),
            EligibilityTrace.zeros_like(layer.weights, 0.99), 0.1,
        )
        before = layer.weights.copy()
        with pytest.raises(ConfigError, match=r"batch has shape .*, layer expects \[B, 15\]"):
            simulate(layer, np.full((rows, width), 0.5), spk, np.random.default_rng(0), *plastic)
        assert np.array_equal(layer.weights, before)


class TestTrainHebbian:

    def test_batch_mode_learns(self, small_data):
        prob = SigmoidProb()
        cfg = TrainConfig(eta=0.1, batch_size=50, epochs=5, seed=6, prob_fn=prob)
        spk = SpikingConfig(n_out=40, tau_e=0.99)
        layer, log = train_hebbian(cfg, small_data, "batch", spk)
        acc = metrics.accuracy(layer, small_data.test, small_data.codebook,
                               metrics.spiking_runner(spk, 6), prob)
        assert acc >= 0.6, f"batch sigmoid reached only {acc:.3f}"
        assert len(log) == 5

    def test_online_mode_learns(self, small_data):
        prob = SymmetricProb(epsilon=0.5)
        cfg = TrainConfig(eta=0.03, batch_size=1, epochs=2, seed=6, prob_fn=prob)
        spk = SpikingConfig(n_out=40, tau_e=0.999)
        layer, log = train_hebbian(cfg, small_data, "online", spk)
        acc = metrics.accuracy(layer, small_data.test, small_data.codebook,
                               metrics.spiking_runner(spk, 6), prob)
        assert acc >= 0.6, f"online symmetric reached only {acc:.3f}"

    @pytest.mark.parametrize("kind", ["li", "hard_li", "relu"])
    def test_all_traces_run(self, small_data, kind):
        prob = SymmetricProb()
        cfg = TrainConfig(eta=0.1, batch_size=50, epochs=1, seed=6, prob_fn=prob)
        spk = SpikingConfig(n_out=20, trace=TraceConfig(kind=kind))
        layer, log = train_hebbian(cfg, small_data, "batch", spk)
        assert np.all(np.isfinite(layer.weights))
        assert np.isfinite(log[-1].train_loss)

    @pytest.mark.parametrize("mode", ["batch", "online"])
    def test_deterministic(self, small_data, mode):
        prob = SigmoidProb()
        cfg = TrainConfig(eta=0.1, batch_size=20, epochs=1, seed=13, prob_fn=prob)
        spk = SpikingConfig(n_out=12, encoder=SpikeEncoderConfig(steps=8, active_window=3))
        sub = ExperimentData(
            type(small_data.train)(small_data.train.images[:120], small_data.train.labels[:120]),
            small_data.test, small_data.codebook,
        )
        layer_a, _ = train_hebbian(cfg, sub, mode, spk)
        layer_b, _ = train_hebbian(cfg, sub, mode, spk)
        assert np.array_equal(layer_a.weights, layer_b.weights)

    def test_online_forces_batch_size_one(self, small_data):
        # online mode simulates one instance at a time, whatever batch_size says
        prob = SigmoidProb()
        spk = SpikingConfig(n_out=10, encoder=SpikeEncoderConfig(steps=8, active_window=3))
        sub = ExperimentData(
            Dataset(small_data.train.images[:60], small_data.train.labels[:60]),
            small_data.test, small_data.codebook,
        )
        weights = []
        for batch_size in (50, 1):
            cfg = TrainConfig(eta=0.1, batch_size=batch_size, epochs=1, seed=6, prob_fn=prob)
            layer, log = train_hebbian(cfg, sub, "online", spk)
            assert len(log) == 1
            weights.append(layer.weights.tobytes())
        init = DenseLayer.initialize(sub.input_dim, 10, partition_for(prob, 10), 6)
        assert weights[0] != init.weights.tobytes()
        assert weights[0] == weights[1]

    def test_invalid_mode(self, small_data):
        cfg = TrainConfig(eta=0.1, batch_size=1, epochs=1, seed=6)
        with pytest.raises(ConfigError):
            train_hebbian(cfg, small_data, "streaming", SpikingConfig(n_out=10))


class TestConfigValidation:
    def test_encoder_window_bounds(self):
        with pytest.raises(ConfigError):
            SpikeEncoderConfig(scale=0.25, steps=10, active_window=11)
        with pytest.raises(ConfigError):
            SpikeEncoderConfig(scale=1.5, steps=10, active_window=2)

    def test_lif_validation(self):
        with pytest.raises(ConfigError):
            LIFConfig(decay=1.3)
        with pytest.raises(ConfigError):
            LIFConfig(reset_mode="clamp")

    def test_eligibility_tau_bounds(self):
        with pytest.raises(ConfigError):
            EligibilityTrace(np.zeros((2, 2)), 1.0)
