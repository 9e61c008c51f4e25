"""The compiled kernels against their numpy rules, bit for bit, and the loader's fallbacks.

Every kernel test also checks that the kernel really ran, so none of them
can pass by comparing numpy with itself.
"""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffa
from ffa import _kernels
from ffa.analog import ADAM_TILE, AdamState, DenseLayer, TrainConfig, adam_step, partition_for
from ffa.checkpoint import save_checkpoint
from ffa.core import PolarityPartition, SigmoidProb, SymmetricProb
from ffa.errors import ConfigError
from ffa.spiking import (
    ONLINE_BLOCK,
    RESET_MODES,
    TRACE_KINDS,
    EligibilityTrace,
    LIFConfig,
    SpikeEncoderConfig,
    SpikingConfig,
    TraceConfig,
    simulate,
    simulate_online,
    train_hebbian,
)

from tests.reference import left_to_right_sum

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The kind of each compiled ``simulate`` call, whatever its length: "event"
    (the event path), "plastic" or "eval" (the lockstep path)."""
    calls, real = [], _kernels.simulate

    def counting(*args, **kwargs):
        calls.append("event" if kwargs.get("fold_below") is not None
                     else "plastic" if kwargs.get("e") is not None else "eval")
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "simulate", counting)
    return calls


@pytest.fixture()
def kernels():
    """Skip a test of the compiled kernels when they cannot load, as under ``CC=false``."""
    if _kernels.library() is None:
        pytest.skip(f"the compiled kernels do not build with CC={_kernels.compiler()}")


def test_kernels_load_here():
    # a compiler that is present must work, so the kernel tests never skip unasked
    if os.environ.get("CC") and _kernels.library() is None:
        pytest.skip(f"CC={os.environ['CC']} was chosen and does not build the kernels")
    if shutil.which(shlex.split(_kernels.compiler())[0]) is None:
        pytest.skip(f"no C compiler {_kernels.compiler()!r} here; the numpy path runs")
    assert _kernels.library() is not None


def plastic_model(prob, n_in=884, n_out=200, tau_e=0.999, **spiking):
    layer = DenseLayer.initialize(n_in, n_out, partition_for(prob, n_out), seed=3)
    layer.weights = np.asfortranarray(layer.weights)
    e0 = 0.01 * np.random.default_rng(5).standard_normal(layer.weights.shape)
    return layer, EligibilityTrace(np.array(e0, order="F"), tau_e), SpikingConfig(
        n_out=n_out, tau_e=tau_e, **spiking)


def run_calls(rows, prob, compiled, monkeypatch, tau_e=0.999, **spiking):
    """Plastic B = 1 calls over ``rows``; the weights, the eligibility, the
    traces and the generator state after every call."""
    layer, el, spk = plastic_model(prob, n_in=rows.shape[1], tau_e=tau_e, **spiking)
    rng = np.random.default_rng(11)
    states = []
    with monkeypatch.context() as mp:
        if not compiled:
            mp.setattr(_kernels, "library", lambda: None)
        for i, x in enumerate(rows):
            codes = np.array([1 if i % 2 == 0 else -1], dtype=np.int8)
            trace = simulate(layer, x[None, :], spk, rng, codes, prob, el, 0.03)
            states.append((trace, layer.weights.copy(), el.e.copy(), rng.bit_generator.state))
    return states


def input_rows(kind, n=6, n_in=884):
    rng = np.random.default_rng(21)
    X = rng.random((n, n_in))
    if kind == "sparse":
        X *= rng.random(X.shape) < 0.15
    elif kind == "black":
        X[::2] = 0.0  # every other row has no nonzero input: nnz = 0
    return X


ARRAY_ARGUMENTS = ["weights", "p", "cols", "starts", "e", "impulse", "pos_mask", "positive"]

# every output trace under each reset, named "<trace kind>-<reset mode>"
DYNAMICS = [f"{kind}-{reset}" for kind in TRACE_KINDS for reset in RESET_MODES]


def dynamics_of(name, tau_o=0.9):
    """The trace and LIF parts of a ``SpikingConfig`` for a DYNAMICS name."""
    kind, reset = name.split("-")
    return dict(trace=TraceConfig(kind=kind, tau_o=tau_o), lif=LIFConfig(reset_mode=reset))


class KernelCall:
    """The arguments of a plastic ``_kernels.simulate`` call over ``rows`` (1 or
    2) rows of a 10-input, 4-output layer."""

    def __init__(self, rows, **extra):
        self.layer, self.el, spk = plastic_model(SymmetricProb(), n_in=10, n_out=4)
        self.args = dict(
            weights=self.layer.weights, spiking=spk, p=np.full(rows + 1, 0.5),
            cols=np.array([3, 7, 2][: rows + 1]), starts=np.array([0, 2, 3][: rows + 1]),
            rng=np.random.default_rng(1), e=self.el.e, impulse=self.el.impulse, tau_e=0.99,
            eta=0.1, pos_mask=self.layer.partition.pos_mask,
            positive=np.array([True, False][:rows]), epsilon=0.5, **extra)

    def assert_refused(self):
        """The call raises a ValueError before it draws a uniform or writes a synapse."""
        weights, e = self.layer.weights.copy(), self.el.e.copy()
        state = self.args["rng"].bit_generator.state
        with pytest.raises(ValueError, match="do not fit"):
            _kernels.simulate(**self.args)
        assert np.array_equal(self.layer.weights, weights) and np.array_equal(self.el.e, e)
        assert self.args["rng"].bit_generator.state == state


class TestOnlineSample:
    """A compiled event-driven call equals ``simulate``'s numpy event path bitwise."""

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("tau_e", [0.999, 0.9, 0.5])
    @pytest.mark.parametrize("kind", ["sparse", "dense", "black"])
    def test_single_calls_equal_the_numpy_path(self, monkeypatch, kernel_calls, kind, tau_e):
        # tau_e = 0.9 folds mid-window (0.9**7 < 1/2), 0.5 after every step
        rows = input_rows(kind)
        got = run_calls(rows, SymmetricProb(), True, monkeypatch, tau_e)
        assert kernel_calls == ["event"] * len(rows)
        want = run_calls(rows, SymmetricProb(), False, monkeypatch, tau_e)
        assert kernel_calls == ["event"] * len(rows)
        for call, (g, w) in enumerate(zip(got, want)):
            trace, weights, e, state = g
            assert np.array_equal(trace, w[0]), call
            assert np.array_equal(weights, w[1]), call
            assert np.array_equal(e, w[2]), call
            assert state == w[3], call
        assert got[-1][0].sum() > 0
        assert not np.array_equal(got[0][1], got[-1][1])

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("n_out", [12, 40, 300])
    def test_partition_sums_follow_numpy_at_every_width(self, monkeypatch, kernel_calls, n_out):
        # halves of 6, 20 and 150, on both sides of numpy's pairwise blocks (8 and 128)
        rows = input_rows("dense", n=4, n_in=120)
        got = run_calls(rows, SymmetricProb(), True, monkeypatch, n_out=n_out)
        want = run_calls(rows, SymmetricProb(), False, monkeypatch, n_out=n_out)
        assert kernel_calls == ["event"] * len(rows)
        for g, w in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(g[:3], w[:3]))
            assert g[3] == w[3]

    @pytest.mark.usefixtures("kernels")
    def test_online_epoch_checkpoint_is_byte_identical(self, small_data, tmp_path, monkeypatch,
                                                        kernel_calls):
        cfg = TrainConfig(eta=0.03, batch_size=1, epochs=1, seed=6, prob_fn=SymmetricProb())
        spk = SpikingConfig(n_out=40, tau_e=0.999)
        layer, log = train_hebbian(cfg, small_data, "online", spk)
        blocks = -(-len(small_data.train) // ONLINE_BLOCK)  # one call per block of images
        assert kernel_calls == ["event"] * blocks
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "library", lambda: None)
            ref_layer, ref_log = train_hebbian(cfg, small_data, "online", spk)
        assert len(kernel_calls) == blocks
        paths = [tmp_path / name for name in ("c.ffaw", "numpy.ffaw")]
        for path, trained in zip(paths, (layer, ref_layer)):
            save_checkpoint(path, trained, small_data.codebook)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        fields = [(e.mean_goodness_pos, e.mean_goodness_neg, e.train_loss) for e in log]
        assert fields == [(e.mean_goodness_pos, e.mean_goodness_neg, e.train_loss) for e in ref_log]

    @pytest.mark.parametrize("prob,spiking", [
        (SigmoidProb(theta=1.0), {}),
        (SymmetricProb(), {"trace": TraceConfig(kind="li")}),
        (SymmetricProb(), {"trace": TraceConfig(kind="hard_li")}),
        (SymmetricProb(), {"lif": LIFConfig(reset_mode="subtract")}),
    ], ids=["sigmoid", "li", "hard_li", "subtract"])
    def test_only_sigmoid_plasticity_runs_numpy(self, kernel_calls, prob, spiking):
        layer, el, spk = plastic_model(prob, n_in=60, n_out=20, **spiking)
        X = np.random.default_rng(2).random((1, 60))
        before = layer.weights.copy()
        simulate(layer, X, spk, np.random.default_rng(3), np.array([1], dtype=np.int8), prob,
                 el, 0.1)
        compiled = isinstance(prob, SymmetricProb) and _kernels.library() is not None
        assert kernel_calls == (["event"] if compiled else [])
        assert not np.array_equal(layer.weights, before)

    def test_plasticity_free_calls_run_the_lockstep_step(self, kernel_calls):
        layer, _, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20)
        simulate(layer, np.random.default_rng(2).random((1, 60)), spk, np.random.default_rng(3))
        assert kernel_calls == (["eval"] if _kernels.library() is not None else [])

    def test_unloaded_kernels_run_numpy(self, kernel_calls, numpy_path):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20)
        codes = np.array([1], dtype=np.int8)
        simulate(layer, np.random.default_rng(2).random((1, 60)), spk, np.random.default_rng(3),
                 codes, SymmetricProb(), el, 0.1)
        assert kernel_calls == []

    # a one-element polarity is contiguous at any stride
    @pytest.mark.sanitized
    @pytest.mark.parametrize("arg", [a for a in ARRAY_ARGUMENTS if a != "positive"])
    @pytest.mark.parametrize("fault", ["dtype", "layout"])
    def test_refuses_arguments_that_do_not_fit(self, fault, arg):
        call = KernelCall(rows=1, fold_below=0.5)
        call.args[arg] = misfit(call.args[arg], fault)
        call.assert_refused()

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    def test_refuses_a_plastic_window_longer_than_the_call(self):
        # the event path sizes its fold queue from the number of plastic steps
        call = KernelCall(rows=1, fold_below=0.5)
        spk = call.args["spiking"]
        encoder = SimpleNamespace(steps=spk.encoder.steps, active_window=spk.encoder.steps + 1)
        call.args["spiking"] = SimpleNamespace(encoder=encoder, lif=spk.lif, trace=spk.trace)
        call.assert_refused()

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    def test_refuses_a_column_out_of_range(self):
        call = KernelCall(rows=1, fold_below=0.5)
        call.args["cols"] = np.array([3, 10])
        call.assert_refused()


def misfit(a, fault):
    """``a`` in another dtype, or in the same values but a layout the kernels do not read."""
    if fault == "dtype":
        return a.astype(np.float32 if a.dtype != np.float32 else np.float64)
    if a.ndim == 2:
        return np.ascontiguousarray(a) if a.flags.f_contiguous else np.asfortranarray(a)
    doubled = np.repeat(a, 2)
    return doubled[::2]  # the same values, every other element of a longer array


def calls_of(rows, n_out, tau_e, compiled, monkeypatch, n_in=150, calls=2, X=None,
             run=simulate, **spiking):
    """``calls`` calls of ``run`` over ``rows`` rows (by default sparse ones, the second
    all zero), plastic unless ``tau_e`` is None; the traces, the weights, the eligibility
    and the generator state after every call."""
    prob = SymmetricProb()
    layer, el, spk = plastic_model(prob, n_in=n_in, n_out=n_out, tau_e=tau_e or 0.99, **spiking)
    if X is None:
        X = input_rows("sparse", n=rows, n_in=n_in)
        if rows > 1:
            X[1] = 0.0  # an all-zero input row
    codes = np.resize(np.array([1, -1, -1], dtype=np.int8), rows)
    plastic = () if tau_e is None else (codes, prob, el, 0.03)
    rng = np.random.default_rng(11)
    states = []
    with monkeypatch.context() as mp:
        if not compiled:
            mp.setattr(_kernels, "library", lambda: None)
        for _ in range(calls):
            trace = run(layer, X, spk, rng, *plastic)
            states.append((trace, layer.weights.copy(), el.e.copy(), rng.bit_generator.state))
    return states


def assert_same_states(got, want):
    for call, (g, w) in enumerate(zip(got, want, strict=True)):
        for name, a, b in zip(("trace", "weights", "e"), g[:3], w[:3]):
            assert np.array_equal(a, b), (call, name)
        assert g[3] == w[3], call


class TestOnlineBlock:
    """A compiled ``simulate_online`` block equals its numpy loop of one-row calls bitwise."""

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("tau_e", [0.5, 0.6, 0.999])
    @pytest.mark.parametrize("rows", [1, 2, 3, 100])
    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_blocks_equal_the_numpy_loop(self, monkeypatch, kernel_calls, dynamics, rows, tau_e):
        # 0.5 folds after every plastic step, 0.6 every other one (0.6**2 < 1/2)
        parts = dynamics_of(dynamics)
        got = calls_of(rows, 200, tau_e, True, monkeypatch, run=simulate_online, **parts)
        assert kernel_calls == ["event"] * 2
        want = calls_of(rows, 200, tau_e, False, monkeypatch, run=simulate_online, **parts)
        assert kernel_calls == ["event"] * 2
        assert_same_states(got, want)
        assert got[-1][0].shape == (rows, 200) and got[-1][0].sum() > 0
        if rows > 1:
            assert np.all(got[-1][0][1] == 0.0)  # the all-zero row never fires
        assert not np.array_equal(got[0][1], got[-1][1])

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("n_out", [14, 16, 18, 254, 256, 258])
    def test_partition_sums_follow_numpy_at_every_width(self, monkeypatch, kernel_calls, n_out):
        got = calls_of(3, n_out, 0.999, True, monkeypatch, n_in=60, run=simulate_online)
        want = calls_of(3, n_out, 0.999, False, monkeypatch, n_in=60, run=simulate_online)
        assert kernel_calls == ["event"] * 2
        assert_same_states(got, want)
        assert not np.array_equal(got[0][1], got[-1][1])

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("kind", ["sparse", "zero"])
    @pytest.mark.parametrize("tau_e", [0.5, 0.55, 0.999])
    @pytest.mark.parametrize("rows", [1, 2, 100])
    def test_queued_folds_equal_the_dense_folds(self, monkeypatch, kernel_calls, rows, tau_e,
                                                kind):
        # the kernel applies each fold to an input's rows when the input next fires, and
        # to every row at the end of the call.  0.999 folds at each row's end only, 0.5
        # and 0.55 also every other plastic step, so a row queues five folds.  Input 0
        # fires at every step of row 0 (at scale 1.0) and never again, so it is brought
        # up to date there and at the end; input 1 never fires; in an all-zero block no
        # input fires and every fold waits for the end of the call
        X = np.zeros((rows, 60))
        if kind == "sparse":
            X = input_rows("sparse", n=rows, n_in=60)
            X[:, :2] = 0.0
            X[0, 0] = 1.0
        parts = dict(encoder=SpikeEncoderConfig(scale=1.0), run=simulate_online, n_in=60)
        got = calls_of(rows, 200, tau_e, True, monkeypatch, X=X, **parts)
        assert kernel_calls == ["event"] * 2
        want = calls_of(rows, 200, tau_e, False, monkeypatch, X=X, **parts)
        assert kernel_calls == ["event"] * 2
        assert_same_states(got, want)
        before = plastic_model(SymmetricProb(), n_in=60, n_out=200)[0].weights
        assert not np.array_equal(got[0][1][:, 1], before[:, 1])  # folds reach input 1
        assert (got[-1][0].sum() > 0) == (kind == "sparse")
        if kind == "sparse":  # input 0's row took plastic steps too, not folds alone
            X[0, 0] = 0.0
            silent = calls_of(rows, 200, tau_e, False, monkeypatch, X=X, **parts)
            assert not np.array_equal(silent[0][1][:, 0], got[0][1][:, 0])

    def test_the_block_is_a_loop_of_one_row_calls(self, monkeypatch):
        # the rule itself, whatever runs it: row b is a one-row plastic simulate call
        got = calls_of(4, 20, 0.99, _kernels.library() is not None, monkeypatch, n_in=60,
                       run=simulate_online)

        def loop(layer, X, spk, rng, codes, *plastic):
            return np.concatenate([simulate(layer, X[b : b + 1], spk, rng, codes[b : b + 1],
                                            *plastic) for b in range(len(X))])

        want = calls_of(4, 20, 0.99, False, monkeypatch, n_in=60, run=loop)
        assert_same_states(got, want)

    @pytest.mark.parametrize("prob,tau_e", [(SymmetricProb(), 0.3),
                                            (SigmoidProb(theta=1.0), 0.999)],
                             ids=["tau_e_0.3", "sigmoid"])
    def test_other_blocks_loop_over_one_row_calls(self, kernel_calls, prob, tau_e):
        # tau_e < 1/2 makes one compiled lockstep call per row; sigmoid plasticity runs numpy
        layer, el, spk = plastic_model(prob, n_in=60, n_out=20, tau_e=tau_e)
        X = np.random.default_rng(2).random((3, 60))
        codes = np.array([1, -1, 1], dtype=np.int8)
        before = layer.weights.copy()
        simulate_online(layer, X, spk, np.random.default_rng(3), codes, prob, el, 0.1)
        compiled = isinstance(prob, SymmetricProb) and _kernels.library() is not None
        assert kernel_calls == (["plastic"] * 3 if compiled else [])
        assert not np.array_equal(layer.weights, before)

    @pytest.mark.sanitized
    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    @pytest.mark.parametrize("codes", [[1], [1, -1, 1], [[1, -1]], None],
                             ids=["short", "long", "2d", "none"])
    def test_refuses_codes_that_do_not_fit(self, monkeypatch, compiled, codes):
        if not compiled:
            monkeypatch.setattr(_kernels, "library", lambda: None)
        layer, el, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20)
        X, rng = np.random.default_rng(2).random((2, 60)), np.random.default_rng(3)
        weights, e, state = layer.weights.copy(), el.e.copy(), rng.bit_generator.state
        codes = None if codes is None else np.array(codes, dtype=np.int8)
        with pytest.raises(ConfigError, match="polarity code|plasticity needs"):
            simulate_online(layer, X, spk, rng, codes, SymmetricProb(), el, 0.1)
        assert np.array_equal(layer.weights, weights) and np.array_equal(el.e, e)
        assert rng.bit_generator.state == state

    @pytest.mark.sanitized
    @pytest.mark.parametrize("positive", [[True], [True, False, True]], ids=["short", "long"])
    def test_kernel_refuses_polarities_that_do_not_fit_the_block(self, positive):
        call = KernelCall(rows=2, fold_below=0.5)
        call.args["positive"] = np.array(positive)
        call.assert_refused()


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("width", [7, 8, 9, 127, 128, 129, 150])
def test_scipy_sparse_products_add_left_to_right(rows, width):
    # the kernel's two sparse sums (scipy 1.17): simulate's spikes @ W.T adds the fired
    # rows of W.T in ascending column order, and hebbian_impulse's post.T @ spikes adds
    # each input's row posts in row order b = 0..B-1, each from 0.0
    from scipy.sparse import csr_array

    rng = np.random.default_rng(width)
    dense = rng.random((rows, width)) < 0.9
    dense[0] = True  # a row whose current adds all `width` rows of W.T
    spikes = csr_array(dense.astype(np.float64))
    weights = np.asfortranarray(rng.standard_normal((width, width)))
    post = rng.standard_normal((rows, width))
    terms = {
        "current": (spikes @ weights.T, [[weights[j, dense[b]] for j in range(width)]
                                         for b in range(rows)]),
        "impulse": (post.T @ spikes, [[post[dense[:, i], j] for i in range(width)]
                                      for j in range(width)]),
    }
    for name, (got, sums) in terms.items():
        assert got.tolist() == [[left_to_right_sum(t) for t in row] for row in sums], name
        if name == "current" or rows > 1:  # another order gives other bits on this data
            assert got.tolist() != [[left_to_right_sum(t[::-1]) for t in row] for row in sums]


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_next_double_draws_the_stream_of_generator_random(n):
    # the draws of the simulate kernel (numpy 2.4): successive calls of the generator's
    # next_double give Generator.random(n) and leave the generator in its end state
    drawn, ref = np.random.default_rng(n), np.random.default_rng(n)
    bits = drawn.bit_generator.ctypes
    assert [bits.next_double(bits.state_address) for _ in range(n)] == ref.random(n).tolist()
    assert drawn.bit_generator.state == ref.bit_generator.state
    assert drawn.random(3).tolist() == ref.random(3).tolist()


@pytest.mark.sanitized
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
@pytest.mark.parametrize("rng", [np.random.RandomState(3), np.random.PCG64(3)],
                         ids=["RandomState", "PCG64"])
def test_simulate_refuses_a_generator_that_is_not_numpys(monkeypatch, compiled, rng):
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    layer, el, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20)
    X, before = np.random.default_rng(2).random((1, 60)), layer.weights.copy()
    for plastic in ((), (np.array([1], dtype=np.int8), SymmetricProb(), el, 0.1)):
        with pytest.raises(ConfigError, match="numpy Generator"):
            simulate(layer, X, spk, rng, *plastic)
    assert np.array_equal(layer.weights, before)


@st.composite
def simulate_calls(draw):
    """A ``simulate`` call: its path and rows, shape, inputs, polarity, tau_e, window,
    output trace and reset."""
    path, rows = draw(st.sampled_from([("eval", 0), ("eval", 1), ("eval", 3), ("lockstep", 1),
                                       ("lockstep", 2), ("lockstep", 3)] + [("event", 1)] * 3
                                      + [("online", 1)] * 4))
    if path == "online":
        rows = draw(st.integers(1, 12))
    # one row runs event-driven from tau_e = 1/2 on, and so does an online block
    taus = {"event": [0.5, 0.6, 0.9, 0.999], "online": [0.5, 0.6, 0.9, 0.999],
            "lockstep": [0.3, 0.49] if rows == 1 else [0.3, 0.49, 0.5, 0.9, 0.999],
            "eval": [0.9]}[path]
    steps = draw(st.integers(1, 24))
    return dict(
        rows=rows, plastic=path != "eval", online=path == "online", n_in=draw(st.integers(1, 40)),
        n_out=draw(st.sampled_from([14, 16, 18, 254, 256, 258])),
        density=draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0])),
        scale=draw(st.sampled_from([0.25, 1.0])),
        mask=draw(st.sampled_from(["positive", "negative", "split"])),
        tau_e=draw(st.sampled_from(taus)), steps=steps,
        window=draw(st.integers(0, steps)), seed=draw(st.integers(0, 2**32 - 1)),
        trace=TraceConfig(draw(st.sampled_from(TRACE_KINDS)),
                          draw(st.sampled_from([0.1, 0.37, 1.0])),
                          draw(st.sampled_from([0.0, 0.5, 0.9]))),
        reset=draw(st.sampled_from(RESET_MODES)))


def run_drawn_call(call, compiled):
    """The trace, weights, eligibility and generator state after ``call``."""
    rng = np.random.default_rng(call["seed"])
    n_in, n_out = call["n_in"], call["n_out"]
    mask = {"positive": np.ones(n_out, dtype=bool), "negative": np.zeros(n_out, dtype=bool),
            "split": rng.random(n_out) < 0.5}[call["mask"]]
    layer = DenseLayer.initialize(n_in, n_out, PolarityPartition(mask), seed=call["seed"])
    layer.weights = np.asfortranarray(layer.weights)
    el = EligibilityTrace(np.asfortranarray(0.01 * rng.standard_normal((n_out, n_in))),
                          call["tau_e"])
    X = rng.random((call["rows"], n_in)) * (rng.random((call["rows"], n_in)) < call["density"])
    X[X == 0.0] = 0.0  # no -0.0
    codes = rng.choice(np.array([1, -1], dtype=np.int8), call["rows"])
    spk = SpikingConfig(n_out=n_out, tau_e=call["tau_e"], encoder=SpikeEncoderConfig(
        call["scale"], call["steps"], call["window"]), trace=call["trace"],
        lif=LIFConfig(reset_mode=call["reset"]))
    plastic = (codes, SymmetricProb(), el, 0.05) if call["plastic"] else ()
    with pytest.MonkeyPatch.context() as mp:
        if not compiled:
            mp.setattr(_kernels, "library", lambda: None)
        runs = _kernels.runs
        trace = (simulate_online if call["online"] else simulate)(layer, X, spk, rng, *plastic)
        assert _kernels.runs == runs + compiled
    return trace, layer.weights, el.e, rng.bit_generator.state


@pytest.mark.sanitized
@pytest.mark.usefixtures("kernels")
@pytest.mark.parametrize("rows,tau_e", [(1, 0.999), (1, 0.3), (3, 0.99)],
                         ids=["event", "1", "3"])
def test_calls_of_a_one_unit_layer_equal_the_numpy_path(monkeypatch, kernel_calls, rows, tau_e):
    # split_halves(1) leaves the negative half empty: its goodness is 0.0 on both paths
    got = calls_of(rows, 1, tau_e, True, monkeypatch, n_in=60)
    want = calls_of(rows, 1, tau_e, False, monkeypatch, n_in=60)
    assert kernel_calls == ["event" if rows == 1 and tau_e >= 0.5 else "plastic"] * 2
    assert_same_states(got, want)
    assert not np.array_equal(got[0][1], got[-1][1])


@pytest.mark.sanitized
@pytest.mark.usefixtures("kernels")
@settings(max_examples=200)
@given(call=simulate_calls())
def test_drawn_calls_equal_the_numpy_path(call):
    # B 0-3, event-driven B = 1 and online blocks of B 1-12, widths at numpy's block
    # edges, densities from none to all, all-positive, all-negative and split masks,
    # tau_e on both sides of 1/2, every output trace (mu, tau_o) and both resets
    got, want = run_drawn_call(call, True), run_drawn_call(call, False)
    for name, a, b in zip(("trace", "weights", "e"), got[:3], want[:3]):
        assert np.array_equal(a, b), name
    assert got[3] == want[3]


class TestLockstepStep:
    """A compiled call equals ``simulate``'s numpy lockstep path bitwise."""

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("rows,tau_e", [
        (0, None), (1, None), (1, 0.3), (2, 0.99), (3, 0.99), (100, 0.99), (1000, 0.99),
        (1000, None),
    ], ids=["0", "1-eval", "1-tau_e_0.3", "2", "3", "100", "1000", "1000-eval"])
    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_calls_equal_the_numpy_path(self, monkeypatch, kernel_calls, dynamics, rows, tau_e):
        parts = dynamics_of(dynamics)
        got = calls_of(rows, 200, tau_e, True, monkeypatch, **parts)
        kind = "eval" if tau_e is None else "plastic"
        assert kernel_calls == [kind] * 2
        want = calls_of(rows, 200, tau_e, False, monkeypatch, **parts)
        assert kernel_calls == [kind] * 2
        assert_same_states(got, want)
        if rows:
            assert got[-1][0].sum() > 0
        assert np.array_equal(got[0][1], got[-1][1]) == (tau_e is None)

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n_out", [14, 16, 18, 254, 256, 258, 300])
    def test_partition_sums_follow_numpy_at_every_width(self, monkeypatch, kernel_calls, rows,
                                                        n_out):
        # halves of 7, 8 and 9, 127, 128 and 129 (the edges of numpy's pairwise blocks)
        # and 150; one row and a stack both sum each half left to right
        got = calls_of(rows, n_out, 0.3, True, monkeypatch, n_in=60)
        want = calls_of(rows, n_out, 0.3, False, monkeypatch, n_in=60)
        assert kernel_calls == ["plastic"] * 2
        assert_same_states(got, want)
        assert not np.array_equal(got[0][1], got[-1][1])

    @pytest.mark.sanitized
    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("n_out,tau_o", [(14, 0.0), (16, 0.9), (18, 0.0), (254, 0.9),
                                             (256, 0.0), (258, 0.9)])
    @pytest.mark.parametrize("dynamics", DYNAMICS)
    def test_every_trace_and_reset_follows_numpy_at_the_block_edges(
            self, monkeypatch, kernel_calls, dynamics, n_out, tau_o):
        # halves of 7-9 and 127-129 units, each edge at tau_o 0 and 0.9, on the lockstep
        # path and in an online block
        parts = dynamics_of(dynamics, tau_o)
        for run in (simulate, simulate_online):
            got = calls_of(3, n_out, 0.99, True, monkeypatch, n_in=60, run=run, **parts)
            want = calls_of(3, n_out, 0.99, False, monkeypatch, n_in=60, run=run, **parts)
            assert_same_states(got, want)
            assert not np.array_equal(got[0][1], got[-1][1])
        assert kernel_calls == ["plastic"] * 2 + ["event"] * 2

    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("tau_e", [None, 0.99])
    def test_a_call_with_no_events_equals_the_numpy_path(self, monkeypatch, kernel_calls,
                                                          tau_e):
        # no input spikes: a zero current, and plastic steps that only decay e into W
        X = np.zeros((4, 60))
        got = calls_of(4, 20, tau_e, True, monkeypatch, n_in=60, X=X)
        want = calls_of(4, 20, tau_e, False, monkeypatch, n_in=60, X=X)
        assert kernel_calls == ["eval" if tau_e is None else "plastic"] * 2
        assert_same_states(got, want)
        assert np.all(got[-1][0] == 0.0)

    @pytest.mark.usefixtures("kernels")
    def test_batch_epoch_checkpoint_is_byte_identical(self, small_data, tmp_path, monkeypatch,
                                                      kernel_calls):
        cfg = TrainConfig(eta=0.3, batch_size=20, epochs=1, seed=6, prob_fn=SymmetricProb())
        spk = SpikingConfig(n_out=40, tau_e=0.99)
        layer, log = train_hebbian(cfg, small_data, "batch", spk)
        batches = -(-len(small_data.train) // cfg.batch_size)
        assert kernel_calls == ["plastic"] * batches
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "library", lambda: None)
            ref_layer, ref_log = train_hebbian(cfg, small_data, "batch", spk)
        assert len(kernel_calls) == batches
        paths = [tmp_path / name for name in ("c.ffaw", "numpy.ffaw")]
        for path, trained in zip(paths, (layer, ref_layer)):
            save_checkpoint(path, trained, small_data.codebook)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        fields = [(e.mean_goodness_pos, e.mean_goodness_neg, e.train_loss) for e in log]
        assert fields == [(e.mean_goodness_pos, e.mean_goodness_neg, e.train_loss) for e in ref_log]

    @pytest.mark.parametrize("tau_e,rows", [(0.3, 1), (0.999, 4)], ids=["tau_e_0.3", "four_rows"])
    def test_other_plastic_calls_run_the_lockstep_step(self, kernel_calls, tau_e, rows):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20, tau_e=tau_e)
        X = np.random.default_rng(2).random((rows, 60))
        codes = np.resize(np.array([1, -1], dtype=np.int8), rows)
        before = layer.weights.copy()
        simulate(layer, X, spk, np.random.default_rng(3), codes, SymmetricProb(), el, 0.1)
        assert kernel_calls == (["plastic"] if _kernels.library() is not None else [])
        assert not np.array_equal(layer.weights, before)

    @pytest.mark.parametrize("prob,spiking,plastic", [
        (SigmoidProb(theta=1.0), {}, True),
        (SymmetricProb(), {"trace": TraceConfig(kind="li")}, True),
        (SymmetricProb(), {"trace": TraceConfig(kind="hard_li")}, True),
        (SymmetricProb(), {"lif": LIFConfig(reset_mode="subtract")}, True),
        (SymmetricProb(), {"trace": TraceConfig(kind="li")}, False),
        (SymmetricProb(), {"lif": LIFConfig(reset_mode="subtract")}, False),
    ], ids=["sigmoid", "li", "hard_li", "subtract", "li-eval", "subtract-eval"])
    def test_only_sigmoid_plasticity_makes_no_lockstep_call(self, kernel_calls, prob, spiking,
                                                            plastic):
        layer, el, spk = plastic_model(prob, n_in=60, n_out=20, tau_e=0.99, **spiking)
        X = np.random.default_rng(2).random((4, 60))
        codes = np.resize(np.array([1, -1], dtype=np.int8), 4)
        before = layer.weights.copy()
        simulate(layer, X, spk, np.random.default_rng(3), *(
            (codes, prob, el, 0.1) if plastic else ()))
        compiled = (isinstance(prob, SymmetricProb) or not plastic) and (
            _kernels.library() is not None)
        assert kernel_calls == ([("plastic" if plastic else "eval")] if compiled else [])
        assert np.array_equal(layer.weights, before) != plastic

    def test_unloaded_kernels_run_numpy(self, kernel_calls, numpy_path):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20)
        codes = np.array([1, -1], dtype=np.int8)
        X = np.random.default_rng(2).random((2, 60))
        simulate(layer, X, spk, np.random.default_rng(3), codes, SymmetricProb(), el, 0.1)
        simulate(layer, X, spk, np.random.default_rng(3))
        assert kernel_calls == []

    @pytest.mark.sanitized
    @pytest.mark.parametrize("arg", ARRAY_ARGUMENTS)
    @pytest.mark.parametrize("fault", ["dtype", "layout"])
    def test_refuses_arguments_that_do_not_fit(self, fault, arg):
        call = KernelCall(rows=2)
        call.args[arg] = misfit(call.args[arg], fault)
        call.assert_refused()

    @pytest.mark.sanitized
    @pytest.mark.parametrize("fault", ["column", "starts", "no_rows", "no_eligibility",
                                       "event_no_rows"])
    def test_refuses_events_and_steps_that_do_not_fit(self, request, fault):
        call = KernelCall(rows=2)
        if fault in ("column", "starts"):  # checked by the kernel itself
            request.getfixturevalue("kernels")
        if fault == "column":
            call.args["cols"] = np.array([3, 10, 2])
        elif fault == "starts":
            call.args["starts"] = np.array([0, 4, 3])
        elif fault == "no_eligibility":
            del call.args["e"], call.args["impulse"]
        else:  # no rows, on the lockstep or the event path
            call.args.update(p=np.zeros(0), cols=np.zeros(0, dtype=np.intp),
                             starts=np.zeros(1, dtype=np.intp), positive=np.zeros(0, dtype=bool))
            if fault == "event_no_rows":
                call.args["fold_below"] = 0.5
        call.assert_refused()


class TestFusedAdam:
    @pytest.mark.usefixtures("kernels")
    def test_300_steps_equal_the_tiled_numpy_pass(self, monkeypatch):
        shape = (3, ADAM_TILE // 2 + 13)  # not a multiple of the tile
        rng = np.random.default_rng(4)
        w0 = rng.standard_normal(shape)
        tensors = {"c": w0.copy(), "numpy": w0.copy()}
        states = {name: AdamState.zeros_like(w0) for name in tensors}
        calls, real = [], _kernels.adam
        monkeypatch.setattr(_kernels, "adam", lambda *a: calls.append(True) or real(*a))
        for step in range(300):
            g = rng.standard_normal(shape) * (rng.random(shape) >= 0.3)
            adam_step(tensors["c"], g, states["c"], 0.01)
            with monkeypatch.context() as mp:
                mp.setattr(_kernels, "library", lambda: None)
                adam_step(tensors["numpy"], g, states["numpy"], 0.01)
        assert len(calls) == 300
        assert np.array_equal(tensors["c"], tensors["numpy"])
        assert np.array_equal(states["c"].m, states["numpy"].m)
        assert np.array_equal(states["c"].v, states["numpy"].v)
        assert states["c"].step == states["numpy"].step == 300
        assert not np.array_equal(tensors["c"], w0)

    def test_other_dtypes_and_layouts_run_numpy(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_kernels, "adam", lambda *a: calls.append(True))
        w = np.zeros((4, 6))
        adam_step(w, np.ones((6, 4)).T, AdamState.zeros_like(w), 0.1)  # F-ordered gradient
        adam_step(w, np.ones((4, 6), dtype=np.float32), AdamState.zeros_like(w), 0.1)
        assert calls == []
        assert np.all(w < 0)


class TestBuildRules:
    def test_flags_keep_numpy_rounding(self):
        assert "-ffp-contract=off" in _kernels.FLAGS
        for banned in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                       "-fassociative-math", "-freciprocal-math"):
            assert banned not in _kernels.FLAGS

    @pytest.mark.usefixtures("kernels")
    def test_contracted_build_breaks_bit_equality(self, tmp_path, monkeypatch):
        # what -ffp-contract=off prevents: FMA contraction changes ADAM's bits
        macros = _kernels.target(_kernels.compiler())
        if not any(f"#define {m} " in macros for m in ("__FMA__", "__ARM_FEATURE_FMA")):
            pytest.skip("the native target has no FMA instruction to contract into")
        fused = tuple("-ffp-contract=fast" if f == "-ffp-contract=off" else f
                      for f in _kernels.FLAGS)
        monkeypatch.setattr(_kernels, "FLAGS", fused)
        lib = _kernels.open_library(tmp_path, _kernels.compiler())
        rng = np.random.default_rng(8)
        w = rng.standard_normal(5000)
        m, v = np.zeros_like(w), np.zeros_like(w)
        ref, ref_state = w.copy(), AdamState.zeros_like(w)
        monkeypatch.setattr(_kernels, "library", lambda: None)
        for _ in range(20):
            g = rng.standard_normal(5000)
            adam_step(ref, g, ref_state, 0.01)
            c1, c2 = 1.0 - 0.9**ref_state.step, 1.0 - 0.999**ref_state.step
            lib.ffa_adam(w.size, *(a.ctypes.data for a in (w, g, m, v)), 1.0 - 0.9, 1.0 - 0.999,
                         c1, c2, 0.01, 1e-8)
        assert not np.array_equal(v, ref_state.v)


class TestLoader:
    @pytest.mark.usefixtures("kernels")
    def test_truncated_library_is_rebuilt(self, tmp_path):
        # built but never loaded: truncating a loaded library would fault its mapping
        cc = _kernels.compiler()
        path = _kernels.library_path(tmp_path, cc)
        _kernels._compile(path, cc)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        _kernels.open_library(tmp_path, cc)
        assert path.read_bytes() == whole
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_failed_build_leaves_no_file(self, tmp_path):
        with pytest.raises(subprocess.CalledProcessError):
            _kernels._compile(tmp_path / "_kernels.so", "false")
        assert list(tmp_path.iterdir()) == []

    def test_key_follows_the_native_target(self, tmp_path, monkeypatch):
        # a cache shared by two CPUs must not hand one the other's -march=native build
        paths = []
        for macros in ("#define __AVX2__ 1", "#define __AVX2__ 1", "#define __AVX512F__ 1"):
            monkeypatch.setattr(_kernels, "target", lambda cc, m=macros: m)
            paths.append(_kernels.library_path(tmp_path, "cc"))
        assert paths[0] == paths[1] != paths[2]

    @pytest.mark.usefixtures("kernels")
    def test_target_names_the_compiler_version(self):
        assert "__VERSION__" in _kernels.target(_kernels.compiler())

    def test_failed_compile_logs_once_and_runs_numpy(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _kernels.library.cache_clear()
        try:
            with caplog.at_level("WARNING", logger="ffa._kernels"):
                assert _kernels.library() is None
        finally:
            _kernels.library.cache_clear()
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage().startswith(
            "compiled kernels unavailable, running numpy (false exited with 1")

    def test_cache_falls_back_to_the_temp_directory(self, tmp_path, monkeypatch):
        blocked = tmp_path / "file"
        blocked.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
        monkeypatch.setattr(_kernels.tempfile, "tempdir", str(tmp_path / "tmp"))
        assert _kernels._cache_dir() == tmp_path / "tmp" / f"ffa-{os.getuid()}"

    @pytest.mark.sanitized
    @pytest.mark.parametrize("mode", [0o777, 0o775, 0o757])
    def test_cache_refuses_a_directory_others_can_write(self, tmp_path, monkeypatch, mode):
        # another user could make <tmp>/ffa-<uid> first and plant a library in it
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(_kernels.tempfile, "tempdir", str(tmp_path))
        planted = tmp_path / f"ffa-{os.getuid()}"
        planted.mkdir()
        planted.chmod(mode)
        with pytest.raises(OSError, match="no private writable cache directory"):
            _kernels._cache_dir()
        _kernels.library.cache_clear()
        try:
            assert _kernels.library() is None
        finally:
            _kernels.library.cache_clear()
        assert list(planted.iterdir()) == []

    @pytest.mark.sanitized
    def test_cache_refuses_a_symlink(self, tmp_path, monkeypatch):
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        (tmp_path / "xdg").mkdir()
        (tmp_path / "xdg" / "ffa").symlink_to(tmp_path / "elsewhere")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setattr(_kernels.tempfile, "tempdir", str(tmp_path / "tmp"))
        assert _kernels._cache_dir() == tmp_path / "tmp" / f"ffa-{os.getuid()}"

    @pytest.mark.sanitized
    def test_cache_refuses_a_directory_of_another_user(self, tmp_path, monkeypatch):
        directory = tmp_path / "ffa"
        directory.mkdir(mode=0o700)
        assert _kernels._private(directory)
        monkeypatch.setattr(_kernels.os, "getuid", lambda: os.stat(directory).st_uid + 1)
        assert not _kernels._private(directory)

    def test_cache_without_a_home_directory_uses_the_temp_directory(self, tmp_path, monkeypatch):
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(_kernels.Path, "home", no_home)
        monkeypatch.setattr(_kernels.tempfile, "tempdir", str(tmp_path))
        assert _kernels._cache_dir() == tmp_path / f"ffa-{os.getuid()}"


def python_env(**extra):
    path = os.pathsep.join([str(REPO / "src"), str(REPO)])
    return {**os.environ, "PYTHONPATH": path, **extra}


ONLINE_EPOCH = """
import sys
from ffa import _kernels
from ffa.analog import TrainConfig
from ffa.checkpoint import save_checkpoint
from ffa.core import SymmetricProb
from ffa.data import ExperimentData, LabelCodebook
from ffa.spiking import SpikingConfig, train_hebbian
from tests.conftest import make_synthetic

train, test = make_synthetic(150, 10, dim=40, seed=4)
data = ExperimentData(train, test, LabelCodebook(length=12, density=0.3, seed=9))
cfg = TrainConfig(eta=0.03, batch_size=1, epochs=1, seed=6, prob_fn=SymmetricProb())
layer, _ = train_hebbian(cfg, data, "online", SpikingConfig(n_out=30, tau_e=0.999))
save_checkpoint(sys.argv[1], layer, data.codebook)
print(f"c ({_kernels.compiler()})" if _kernels.runs else "numpy")
"""


BATCH_EPOCH = """
import sys
from ffa import _kernels, metrics
from ffa.analog import TrainConfig
from ffa.checkpoint import load_checkpoint, save_checkpoint
from ffa.core import SymmetricProb
from ffa.data import ExperimentData, LabelCodebook
from ffa.spiking import LIFConfig, SpikingConfig, TraceConfig, train_hebbian
from tests.conftest import make_synthetic

train, test = make_synthetic(150, 60, dim=40, seed=4)
data = ExperimentData(train, test, LabelCodebook(length=12, density=0.3, seed=9))
spk = SpikingConfig(n_out=30, tau_e=0.99, trace=TraceConfig(kind=sys.argv[3]),
                    lif=LIFConfig(reset_mode=sys.argv[4]))
if sys.argv[2] == "train":
    cfg = TrainConfig(eta=0.3, batch_size=10, epochs=1, seed=6, prob_fn=SymmetricProb())
    layer, _ = train_hebbian(cfg, data, "batch", spk)
    save_checkpoint(sys.argv[1], layer, data.codebook)
layer, book = load_checkpoint(sys.argv[1])
report, _ = metrics.evaluate(layer, test, book, metrics.spiking_runner(spk, 6), SymmetricProb())
print(report.format())
print(f"c ({_kernels.compiler()})" if _kernels.runs else "numpy")
"""


def run_script(code, *args, prefix=(), **env):
    return subprocess.run([*prefix, sys.executable, "-c", code, *map(str, args)], cwd=REPO,
                          env=python_env(**env), capture_output=True, text=True, timeout=300,
                          check=True)


class TestFallbackProcess:
    @pytest.mark.usefixtures("kernels")
    def test_no_compiler_trains_the_same_bytes_on_numpy(self, tmp_path):
        runs = {}
        for name, extra in (("c", {}), ("numpy", {"CC": "false",
                                                  "XDG_CACHE_HOME": str(tmp_path / "fresh")})):
            out = tmp_path / f"{name}.ffaw"
            done = subprocess.run([sys.executable, "-c", ONLINE_EPOCH, str(out)], cwd=REPO,
                                  env=python_env(**extra), capture_output=True, text=True,
                                  timeout=300, check=True)
            runs[name] = (done.stdout.strip(), done.stderr, out.read_bytes())
        assert runs["c"][0] == f"c ({os.environ.get('CC') or 'cc'})"
        assert runs["numpy"][0] == "numpy"
        assert runs["numpy"][1].count("compiled kernels unavailable") == 1
        assert runs["c"][2] == runs["numpy"][2]

    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("dynamics", ["relu-to_zero", "li-subtract"])
    def test_no_compiler_trains_and_evaluates_a_batch_epoch_the_same(self, tmp_path, dynamics):
        runs = {}
        for name, extra in (("c", {}), ("numpy", {"CC": "false",
                                                  "XDG_CACHE_HOME": str(tmp_path / "fresh")})):
            out = tmp_path / f"{name}.ffaw"
            done = run_script(BATCH_EPOCH, out, "train", *dynamics.split("-"), **extra)
            *report, backend = done.stdout.strip().splitlines()
            runs[name] = (backend, report, out.read_bytes())
        assert runs["c"][0] == f"c ({os.environ.get('CC') or 'cc'})"
        assert runs["numpy"][0] == "numpy"
        assert runs["c"][2] == runs["numpy"][2]
        assert runs["c"][1] == runs["numpy"][1]
        assert runs["c"][1][1].startswith("accuracy: ")

    @pytest.mark.skipif(shutil.which("taskset") is None, reason="no taskset to pin a process")
    def test_a_spiking_eval_on_one_core_prints_the_report_of_all_cores(self, tmp_path):
        model = tmp_path / "model.ffaw"
        everywhere = run_script(BATCH_EPOCH, model, "train", "relu", "to_zero").stdout
        pinned = run_script(BATCH_EPOCH, model, "eval", "relu", "to_zero",
                            prefix=("taskset", "-c", "0")).stdout
        assert pinned == everywhere
        assert "separability: " in pinned

    @pytest.mark.usefixtures("kernels")
    def test_two_processes_building_one_key_both_load(self, tmp_path):
        env = python_env(XDG_CACHE_HOME=str(tmp_path))
        code = "from ffa import _kernels; print(_kernels.library() is not None)"
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) for _ in range(2)]
        outs = [proc.communicate(timeout=300) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outs
        assert [out.strip() for out, _ in outs] == ["True"] * 2
        names = [p.name for p in (tmp_path / "ffa").iterdir()]
        assert len(names) == 1 and names[0].endswith(".so"), names


def gcc_runtime(name):
    """The path of gcc's runtime library ``name``, or None when gcc finds none."""
    try:
        done = subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                              text=True, timeout=60)
    except OSError:
        return None
    found = Path(done.stdout.strip())
    return found if found.is_absolute() and found.is_file() else None


def test_oracle_tests_pass_under_address_and_undefined_sanitizers(tmp_path):
    # the kernels take raw addresses: an off-by-one in C reads or writes outside an
    # array silently unless a sanitizer watches every access
    asan = gcc_runtime("libasan.so")
    if asan is None:
        pytest.skip("gcc -print-file-name=libasan.so finds no AddressSanitizer runtime")
    runtimes = [str(path) for path in (asan, gcc_runtime("libubsan.so")) if path]
    # the tests marked sanitized are the simulate kernel's oracle and refusal tests; every
    # one the marker selects unsanitized must pass sanitized: none may error or skip
    collected = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                "--collect-only", "-m", "sanitized", __file__], cwd=REPO,
                               env=python_env(), capture_output=True, text=True, timeout=300,
                               check=True)
    selected = sum("::" in line for line in collected.stdout.splitlines())
    env = python_env(CC="gcc -fsanitize=address,undefined -fno-sanitize-recover=all",
                     LD_PRELOAD=":".join(runtimes),
                     ASAN_OPTIONS="detect_leaks=0", XDG_CACHE_HOME=str(tmp_path / "xdg"))
    # --capture=sys leaves the sanitizers' reports on the child's stderr
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--capture=sys", "--basetemp", str(tmp_path / "run"), "-m", "sanitized",
                           __file__],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=600)
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert summary.startswith(f"{selected} passed, ") and "skipped" not in summary, summary
    # the library those tests loaded is the sanitized build
    built = list((tmp_path / "run").rglob("_kernels-*.so"))
    assert len(built) == 1, built
    assert b"__asan_report_load8" in built[0].read_bytes()
    assert b"__ubsan_handle" in built[0].read_bytes()


def test_import_leaves_the_loader_unloaded_and_the_cache_untouched(tmp_path):
    # numpy itself imports ctypes, so ffa must add no import of its own
    code = ("import sys; import numpy; before = 'ctypes' in sys.modules; import ffa; "
            "print(before == ('ctypes' in sys.modules), 'ffa._kernels' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=python_env(
        XDG_CACHE_HOME=str(tmp_path / "cache")), capture_output=True, text=True, check=True,
        timeout=120)
    assert done.stdout.split() == ["True", "False"]
    assert not (tmp_path / "cache").exists()
    assert Path(ffa.__file__).with_name("_kernels.c") == _kernels.SOURCE


def test_source_ships_with_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text())
    assert "_kernels.c" in pyproject["tool"]["setuptools"]["package-data"]["ffa"]
    assert _kernels.SOURCE.is_file()


@pytest.mark.parametrize("dynamics", DYNAMICS)
def test_every_trace_and_reset_makes_one_compiled_call(kernel_calls, dynamics):
    # a call runs compiled unless it is plastic under the sigmoid probability
    X = np.random.default_rng(2).random((3, 60))
    codes = np.array([1, -1, 1], dtype=np.int8)
    for prob in (SymmetricProb(), SigmoidProb(theta=1.0)):
        layer, el, spk = plastic_model(prob, n_in=60, n_out=20, tau_e=0.99,
                                       **dynamics_of(dynamics))
        rng = np.random.default_rng(3)
        kernel_calls.clear()
        simulate(layer, X, spk, rng)
        simulate(layer, X, spk, rng, codes, prob, el, 0.1)
        simulate(layer, X[:1], spk, rng, codes[:1], prob, el, 0.1)
        simulate_online(layer, X, spk, rng, codes, prob, el, 0.1)
        want = ["eval", "plastic", "event", "event"] if isinstance(prob, SymmetricProb) else [
            "eval"]
        assert kernel_calls == (want if _kernels.library() is not None else []), prob
