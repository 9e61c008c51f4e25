"""The compiled kernels against their numpy rules, bit for bit, and the loader's fallbacks.

Every kernel test also checks that the kernel really ran, so none of them
can pass by comparing numpy with itself.
"""

import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ffa
from ffa import _kernels
from ffa.analog import ADAM_TILE, AdamState, DenseLayer, TrainConfig, adam_step, partition_for
from ffa.checkpoint import save_checkpoint
from ffa.core import SigmoidProb, SymmetricProb
from ffa.spiking import (
    EligibilityTrace,
    LIFConfig,
    SpikingConfig,
    TraceConfig,
    kernel_covers,
    simulate,
    train_hebbian,
)

from tests.reference import left_to_right_sum, pairwise_sum

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Count the calls that reach the compiled online sample."""
    calls, real = [], _kernels.online_sample

    def counting(*args):
        calls.append(True)
        return real(*args)

    monkeypatch.setattr(_kernels, "online_sample", counting)
    return calls


@pytest.fixture()
def lockstep_calls(monkeypatch):
    """Count the compiled lockstep steps: one per timestep of a covered call."""
    calls, real = [], _kernels.Lockstep.step

    def counting(self, u, plastic):
        calls.append(plastic)
        return real(self, u, plastic)

    monkeypatch.setattr(_kernels.Lockstep, "step", counting)
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


class TestOnlineSample:
    """The compiled sample equals ``simulate``'s numpy event path bitwise."""

    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("tau_e", [0.999, 0.9, 0.5])
    @pytest.mark.parametrize("kind", ["sparse", "dense", "black"])
    def test_single_calls_equal_the_numpy_path(self, monkeypatch, kernel_calls, kind, tau_e):
        # tau_e = 0.9 folds mid-window (0.9**7 < 1/2), 0.5 after every step
        rows = input_rows(kind)
        got = run_calls(rows, SymmetricProb(), True, monkeypatch, tau_e)
        assert len(kernel_calls) == len(rows)
        want = run_calls(rows, SymmetricProb(), False, monkeypatch, tau_e)
        assert len(kernel_calls) == len(rows)
        for call, (g, w) in enumerate(zip(got, want)):
            trace, weights, e, state = g
            assert np.array_equal(trace, w[0]), call
            assert np.array_equal(weights, w[1]), call
            assert np.array_equal(e, w[2]), call
            assert state == w[3], call
        assert got[-1][0].sum() > 0
        assert not np.array_equal(got[0][1], got[-1][1])

    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("n_out", [12, 40, 300])
    def test_partition_sums_follow_numpy_at_every_width(self, monkeypatch, kernel_calls, n_out):
        # halves of 6 (below numpy's 8-accumulator block), 20 and 150 (split in two)
        rows = input_rows("dense", n=4, n_in=120)
        got = run_calls(rows, SymmetricProb(), True, monkeypatch, n_out=n_out)
        want = run_calls(rows, SymmetricProb(), False, monkeypatch, n_out=n_out)
        assert len(kernel_calls) == len(rows)
        for g, w in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(g[:3], w[:3]))
            assert g[3] == w[3]

    @pytest.mark.usefixtures("kernels")
    def test_online_epoch_checkpoint_is_byte_identical(self, small_data, tmp_path, monkeypatch,
                                                        kernel_calls):
        cfg = TrainConfig(eta=0.03, batch_size=1, epochs=1, seed=6, prob_fn=SymmetricProb())
        spk = SpikingConfig(n_out=40, tau_e=0.999)
        layer, log = train_hebbian(cfg, small_data, "online", spk)
        assert len(kernel_calls) == 2 * len(small_data.train)
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "library", lambda: None)
            ref_layer, ref_log = train_hebbian(cfg, small_data, "online", spk)
        assert len(kernel_calls) == 2 * len(small_data.train)
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
    def test_uncovered_configurations_run_numpy(self, kernel_calls, lockstep_calls, prob,
                                                spiking):
        layer, el, spk = plastic_model(prob, n_in=60, n_out=20, **spiking)
        X = np.random.default_rng(2).random((1, 60))
        before = layer.weights.copy()
        simulate(layer, X, spk, np.random.default_rng(3), np.array([1], dtype=np.int8), prob,
                 el, 0.1)
        assert not kernel_covers(spk, prob)
        assert kernel_calls == [] and lockstep_calls == []
        assert not np.array_equal(layer.weights, before)

    def test_plasticity_free_calls_run_the_lockstep_step(self, kernel_calls, lockstep_calls):
        layer, _, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20)
        simulate(layer, np.random.default_rng(2).random((1, 60)), spk, np.random.default_rng(3))
        assert kernel_calls == []
        ran = _kernels.library() is not None
        assert lockstep_calls == ([False] * spk.encoder.steps if ran else [])

    def test_unloaded_kernels_run_numpy(self, kernel_calls, numpy_path):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20)
        codes = np.array([1], dtype=np.int8)
        simulate(layer, np.random.default_rng(2).random((1, 60)), spk, np.random.default_rng(3),
                 codes, SymmetricProb(), el, 0.1)
        assert kernel_calls == []

    @pytest.mark.parametrize("arg", ["weights", "e", "pos_mask", "p", "cols", "u"])
    @pytest.mark.parametrize("fault", ["dtype", "layout"])
    def test_refuses_arguments_that_do_not_fit(self, fault, arg):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=10, n_out=4)
        args = dict(weights=layer.weights, e=el.e, pos_mask=layer.partition.pos_mask,
                    p=np.full(2, 0.5), cols=np.array([3, 7]), u=np.zeros(spk.encoder.steps * 2))
        args[arg] = misfit(args[arg], fault)
        before = layer.weights.copy(), el.e.copy()
        with pytest.raises(ValueError, match="do not fit"):
            _kernels.online_sample(args["weights"], args["e"], 0.999, 0.1, spk, args["pos_mask"],
                                   True, 0.5, args["p"], args["cols"], args["u"], 0.5)
        assert np.array_equal(layer.weights, before[0]) and np.array_equal(el.e, before[1])

    def test_refuses_a_column_out_of_range(self):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=10, n_out=4)
        p, cols = np.full(2, 0.5), np.array([3, 10])
        with pytest.raises(ValueError, match="do not fit"):
            _kernels.online_sample(layer.weights, el.e, 0.999, 0.1, spk, layer.partition.pos_mask,
                                   True, 0.5, p, cols, np.zeros(spk.encoder.steps * 2), 0.5)


def misfit(a, fault):
    """``a`` in another dtype, or in the same values but a layout the kernels do not read."""
    if fault == "dtype":
        return a.astype(np.float32 if a.dtype != np.float32 else np.float64)
    if a.ndim == 2:
        return np.ascontiguousarray(a) if a.flags.f_contiguous else np.asfortranarray(a)
    doubled = np.repeat(a, 2)
    return doubled[::2]  # the same values, every other element of a longer array


def lockstep_calls_of(rows, n_out, tau_e, compiled, monkeypatch, n_in=150, calls=2,
                      X=None, **spiking):
    """``calls`` lockstep calls over ``rows`` rows, plastic unless ``tau_e`` is None; the
    traces, the weights, the eligibility and the generator state after every call."""
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
            trace = simulate(layer, X, spk, rng, *plastic)
            states.append((trace, layer.weights.copy(), el.e.copy(), rng.bit_generator.state))
    return states


def assert_same_states(got, want):
    for call, (g, w) in enumerate(zip(got, want, strict=True)):
        for name, a, b in zip(("trace", "weights", "e"), g[:3], w[:3]):
            assert np.array_equal(a, b), (call, name)
        assert g[3] == w[3], call


@pytest.mark.parametrize("n", [7, 8, 9, 127, 128, 129, 150])
def test_numpy_sums_one_row_pairwise_and_a_stack_left_to_right(n):
    # the order the kernels' partition sums follow (numpy 2.4): sq[:, mask].sum(axis=1)
    # is pairwise per row for one row, but column by column for a stack of rows
    sq = np.random.default_rng(n).random((3, 2 * n)) ** 2 * 1e3
    mask = np.arange(2 * n) % 2 == 0
    assert sq[:1, mask].sum(axis=1)[0] == pairwise_sum(sq[0, mask])
    assert sq[:, mask].sum(axis=1).tolist() == [left_to_right_sum(row) for row in sq[:, mask]]
    if n == 150:  # the two orders differ here, so the checks above tell them apart
        assert pairwise_sum(sq[0, mask]) != left_to_right_sum(sq[0, mask])


class TestLockstepStep:
    """A compiled lockstep step per timestep equals ``simulate``'s numpy lockstep path bitwise."""

    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("rows,tau_e", [
        (0, None), (1, None), (1, 0.3), (2, 0.99), (3, 0.99), (100, 0.99), (1000, 0.99),
        (1000, None),
    ], ids=["0", "1-eval", "1-tau_e_0.3", "2", "3", "100", "1000", "1000-eval"])
    def test_calls_equal_the_numpy_path(self, monkeypatch, kernel_calls, lockstep_calls, rows,
                                        tau_e):
        got = lockstep_calls_of(rows, 200, tau_e, True, monkeypatch)
        steps = SpikingConfig().encoder.steps
        assert len(lockstep_calls) == 2 * steps
        want = lockstep_calls_of(rows, 200, tau_e, False, monkeypatch)
        assert len(lockstep_calls) == 2 * steps and kernel_calls == []
        assert_same_states(got, want)
        if rows:
            assert got[-1][0].sum() > 0
        assert np.array_equal(got[0][1], got[-1][1]) == (tau_e is None)

    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n_out", [14, 16, 18, 254, 256, 258, 300])
    def test_partition_sums_follow_numpy_at_every_width(self, monkeypatch, lockstep_calls, rows,
                                                        n_out):
        # halves of 7, 8 and 9 (numpy's 8-accumulator block), 127, 128 and 129 (its
        # 128-element block) and 150; one row sums pairwise, a stack left to right
        got = lockstep_calls_of(rows, n_out, 0.3, True, monkeypatch, n_in=60)
        want = lockstep_calls_of(rows, n_out, 0.3, False, monkeypatch, n_in=60)
        assert len(lockstep_calls) == 2 * SpikingConfig().encoder.steps
        assert_same_states(got, want)
        assert not np.array_equal(got[0][1], got[-1][1])

    @pytest.mark.usefixtures("kernels")
    @pytest.mark.parametrize("tau_e", [None, 0.99])
    def test_a_call_with_no_events_equals_the_numpy_path(self, monkeypatch, lockstep_calls,
                                                          tau_e):
        # no input spikes: a zero current, and plastic steps that only decay e into W
        X = np.zeros((4, 60))
        got = lockstep_calls_of(4, 20, tau_e, True, monkeypatch, n_in=60, X=X)
        want = lockstep_calls_of(4, 20, tau_e, False, monkeypatch, n_in=60, X=X)
        assert len(lockstep_calls) == 2 * SpikingConfig().encoder.steps
        assert_same_states(got, want)
        assert np.all(got[-1][0] == 0.0)

    @pytest.mark.usefixtures("kernels")
    def test_batch_epoch_checkpoint_is_byte_identical(self, small_data, tmp_path, monkeypatch,
                                                      lockstep_calls):
        cfg = TrainConfig(eta=0.3, batch_size=20, epochs=1, seed=6, prob_fn=SymmetricProb())
        spk = SpikingConfig(n_out=40, tau_e=0.99)
        layer, log = train_hebbian(cfg, small_data, "batch", spk)
        batches = -(-len(small_data.train) // cfg.batch_size)
        assert len(lockstep_calls) == batches * spk.encoder.steps
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "library", lambda: None)
            ref_layer, ref_log = train_hebbian(cfg, small_data, "batch", spk)
        assert len(lockstep_calls) == batches * spk.encoder.steps
        paths = [tmp_path / name for name in ("c.ffaw", "numpy.ffaw")]
        for path, trained in zip(paths, (layer, ref_layer)):
            save_checkpoint(path, trained, small_data.codebook)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        fields = [(e.mean_goodness_pos, e.mean_goodness_neg, e.train_loss) for e in log]
        assert fields == [(e.mean_goodness_pos, e.mean_goodness_neg, e.train_loss) for e in ref_log]

    @pytest.mark.parametrize("tau_e,rows", [(0.3, 1), (0.999, 4)], ids=["tau_e_0.3", "four_rows"])
    def test_other_plastic_calls_run_the_lockstep_step(self, kernel_calls, lockstep_calls, tau_e,
                                                       rows):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20, tau_e=tau_e)
        X = np.random.default_rng(2).random((rows, 60))
        codes = np.resize(np.array([1, -1], dtype=np.int8), rows)
        before = layer.weights.copy()
        simulate(layer, X, spk, np.random.default_rng(3), codes, SymmetricProb(), el, 0.1)
        assert kernel_calls == []
        enc = spk.encoder
        want = [False] * (enc.steps - enc.active_window) + [True] * enc.active_window
        assert lockstep_calls == (want if _kernels.library() is not None else [])
        assert not np.array_equal(layer.weights, before)

    @pytest.mark.parametrize("prob,spiking,plastic", [
        (SigmoidProb(theta=1.0), {}, True),
        (SymmetricProb(), {"trace": TraceConfig(kind="li")}, True),
        (SymmetricProb(), {"trace": TraceConfig(kind="hard_li")}, True),
        (SymmetricProb(), {"lif": LIFConfig(reset_mode="subtract")}, True),
        (SymmetricProb(), {"trace": TraceConfig(kind="li")}, False),
        (SymmetricProb(), {"lif": LIFConfig(reset_mode="subtract")}, False),
    ], ids=["sigmoid", "li", "hard_li", "subtract", "li-eval", "subtract-eval"])
    def test_uncovered_configurations_make_no_lockstep_call(self, lockstep_calls, prob, spiking,
                                                            plastic):
        layer, el, spk = plastic_model(prob, n_in=60, n_out=20, tau_e=0.99, **spiking)
        X = np.random.default_rng(2).random((4, 60))
        codes = np.resize(np.array([1, -1], dtype=np.int8), 4)
        before = layer.weights.copy()
        simulate(layer, X, spk, np.random.default_rng(3), *(
            (codes, prob, el, 0.1) if plastic else ()))
        assert not kernel_covers(spk, prob if plastic else None)
        assert lockstep_calls == []
        assert np.array_equal(layer.weights, before) != plastic

    def test_unloaded_kernels_run_numpy(self, lockstep_calls, numpy_path):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=60, n_out=20)
        codes = np.array([1, -1], dtype=np.int8)
        X = np.random.default_rng(2).random((2, 60))
        simulate(layer, X, spk, np.random.default_rng(3), codes, SymmetricProb(), el, 0.1)
        simulate(layer, X, spk, np.random.default_rng(3))
        assert lockstep_calls == []

    @pytest.mark.parametrize("arg", ["weights", "p", "cols", "starts", "e", "impulse",
                                     "pos_mask", "positive", "u"])
    @pytest.mark.parametrize("fault", ["dtype", "layout"])
    def test_refuses_arguments_that_do_not_fit(self, fault, arg):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=10, n_out=4)
        args = dict(weights=layer.weights, p=np.full(3, 0.5), cols=np.array([3, 7, 2]),
                    starts=np.array([0, 2, 3]), e=el.e, impulse=el.impulse,
                    pos_mask=layer.partition.pos_mask, positive=np.array([True, False]),
                    u=np.zeros(3))
        args[arg] = misfit(args[arg], fault)
        u = args.pop("u")
        before = layer.weights.copy(), el.e.copy()
        with pytest.raises(ValueError, match="do not fit"):
            run = _kernels.Lockstep(spiking=spk, tau_e=0.99, eta=0.1, epsilon=0.5, **args)
            run.step(u, True)
        assert np.array_equal(layer.weights, before[0]) and np.array_equal(el.e, before[1])

    @pytest.mark.parametrize("fault", ["column", "starts", "no_rows", "no_eligibility"])
    def test_refuses_events_and_steps_that_do_not_fit(self, fault):
        layer, el, spk = plastic_model(SymmetricProb(), n_in=10, n_out=4)
        args = dict(weights=layer.weights, spiking=spk, p=np.full(3, 0.5),
                    cols=np.array([3, 7, 2]), starts=np.array([0, 2, 3]), e=el.e,
                    impulse=el.impulse, tau_e=0.99, eta=0.1, pos_mask=layer.partition.pos_mask,
                    positive=np.array([True, False]), epsilon=0.5)
        if fault == "column":
            args["cols"] = np.array([3, 10, 2])
        elif fault == "starts":
            args["starts"] = np.array([0, 4, 3])
        elif fault == "no_rows":
            args.update(p=np.zeros(0), cols=np.zeros(0, dtype=np.intp),
                        starts=np.zeros(1, dtype=np.intp), positive=np.zeros(0, dtype=bool))
        else:
            for name in ("e", "impulse", "pos_mask", "positive"):
                del args[name]
        with pytest.raises(ValueError, match="do not fit"):
            _kernels.Lockstep(**args).step(np.zeros(args["p"].size), True)


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

    def test_cache_refuses_a_symlink(self, tmp_path, monkeypatch):
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        (tmp_path / "xdg").mkdir()
        (tmp_path / "xdg" / "ffa").symlink_to(tmp_path / "elsewhere")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setattr(_kernels.tempfile, "tempdir", str(tmp_path / "tmp"))
        assert _kernels._cache_dir() == tmp_path / "tmp" / f"ffa-{os.getuid()}"

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
from ffa.spiking import SpikingConfig, train_hebbian
from tests.conftest import make_synthetic

train, test = make_synthetic(150, 60, dim=40, seed=4)
data = ExperimentData(train, test, LabelCodebook(length=12, density=0.3, seed=9))
spk = SpikingConfig(n_out=30, tau_e=0.99)
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
    def test_no_compiler_trains_and_evaluates_a_batch_epoch_the_same(self, tmp_path):
        runs = {}
        for name, extra in (("c", {}), ("numpy", {"CC": "false",
                                                  "XDG_CACHE_HOME": str(tmp_path / "fresh")})):
            out = tmp_path / f"{name}.ffaw"
            done = run_script(BATCH_EPOCH, out, "train", **extra)
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
        everywhere = run_script(BATCH_EPOCH, model, "train").stdout
        pinned = run_script(BATCH_EPOCH, model, "eval", prefix=("taskset", "-c", "0")).stdout
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


def test_package_defaults_are_covered():
    spk = SpikingConfig()
    assert kernel_covers(spk, SymmetricProb())
    assert kernel_covers(spk, None)
    assert kernel_covers(replace(spk, tau_e=0.49), SymmetricProb())
    assert not kernel_covers(spk, SigmoidProb())
    assert not kernel_covers(replace(spk, trace=TraceConfig(kind="li")), None)
