"""The fork map and the spiking runner's forked label passes."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from ffa import forks
from ffa import spiking as spiking_mod
from ffa.analog import DenseLayer
from ffa.core import PolarityPartition, SymmetricProb
from ffa.data import Dataset, LabelCodebook, embed_batch
from ffa.errors import DataError
from ffa.metrics import scan, spiking_runner
from ffa.spiking import SpikeEncoderConfig, SpikingConfig, simulate
from tests.test_metrics import keyed, per_label_scan

SPIKING = SpikingConfig(n_out=14, encoder=SpikeEncoderConfig(steps=12, active_window=4))


def layer_for(n_in, seed=30):
    rng = np.random.default_rng(seed)
    return DenseLayer(rng.uniform(-0.3, 0.3, size=(14, n_in)), PolarityPartition.split_halves(14))


@pytest.fixture()
def cores(monkeypatch):
    """Set the usable core count the spiking runner sees."""
    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cores


@pytest.fixture()
def started(monkeypatch):
    """The item count of every child that fork_map starts in this process."""
    counts, real = [], forks._start_worker

    def spy(ctx, fn, items):
        counts.append(len(items))
        return real(ctx, fn, items)

    monkeypatch.setattr(forks, "_start_worker", spy)
    return counts


class TestForkMap:
    def test_item_i_runs_in_worker_i_mod_w(self, started):
        pids = list(forks.fork_map(lambda i: os.getpid(), range(7), 3))
        assert pids == [pids[i % 3] for i in range(7)]
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        assert started == [2, 2]

    def test_results_in_item_order(self):
        assert list(forks.fork_map(lambda x: x * x, [3, 1, 4, 1, 5], 2)) == [9, 1, 16, 1, 25]

    def test_child_exception_raised_in_caller(self):
        def fail_odd(i):
            if i % 2:
                raise ValueError(f"item {i}")
            return i

        results = forks.fork_map(fail_odd, range(4), 2)
        assert next(results) == 0
        with pytest.raises(ValueError, match="item 1"):
            next(results)
        assert not multiprocessing.active_children()

    def test_dropped_map_stops_busy_children(self):
        def slow(i):
            if i:
                time.sleep(60)
            return i

        results = forks.fork_map(slow, range(3), 3)
        start = time.monotonic()
        assert next(results) == 0
        results.close()
        assert time.monotonic() - start < 30
        assert not multiprocessing.active_children()

    def test_nested_map_runs_serially(self, started):
        def inner_pids(i):
            return os.getpid(), list(forks.fork_map(lambda j: os.getpid(), range(3), 3))

        results = list(forks.fork_map(inner_pids, range(2), 2))
        assert results[0][0] == os.getpid() and results[1][0] != os.getpid()
        for pid, inner in results:
            assert inner == [pid] * 3
        assert started == [1]


class TestForkedScan:
    @staticmethod
    def forked_and_replayed(data, workers, cores, started):
        """A forked scan of 40 rows in ragged chunks of 16, and the serial keyed replay."""
        sub = Dataset(data.test.images[:40], data.test.labels[:40])
        book, prob = data.codebook, SymmetricProb()
        layer = layer_for(sub.images.shape[1] + book.length)
        cores(workers)
        got = scan(layer, sub, book, spiking_runner(SPIKING, seed=9), prob, chunk=16)
        # per ragged chunk, child w of W runs passes w, w + W, ...
        assert started == {1: [], 2: [5], 3: [3, 3]}[workers] * 3
        generators = keyed(9)
        want = per_label_scan(layer, sub, book,
                              lambda X: simulate(layer, X, SPIKING, next(generators)),
                              prob, chunk=16)
        return got, want

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forked_equals_serial_bitwise(self, synthetic_data, cores, started, workers):
        got, want = self.forked_and_replayed(synthetic_data, workers, cores, started)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.any(got[1] > 0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forked_equals_serial_under_another_encoder(self, synthetic_data, cores, started,
                                                        monkeypatch, numpy_path, workers):
        # the runner knows nothing of how many uniforms the encoder draws per step
        real = spiking_mod.rate_encode

        def one_extra_draw(p, rng):
            rng.random()
            return real(p, rng)

        before, _ = self.forked_and_replayed(synthetic_data, workers, cores, started)
        started.clear()
        monkeypatch.setattr(spiking_mod, "rate_encode", one_extra_draw)
        got, want = self.forked_and_replayed(synthetic_data, workers, cores, started)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert not np.array_equal(got[1], before[1])

    def test_calls_and_passes_are_keyed_in_order(self, synthetic_data, cores, started):
        images, book = synthetic_data.test.images[:23], synthetic_data.codebook
        layer = layer_for(images.shape[1] + book.length)
        run = spiking_runner(SPIKING, seed=10)
        cores(3)
        first = list(run(layer, images, book))
        cores(2)
        second = list(run(layer, images[:7], book))
        # ten passes over three workers, then ten over two
        assert started == [3, 3, 5]
        for k, (rows, blocks) in enumerate([(images, first), (images[:7], second)]):
            assert len(blocks) == 10
            for e, got in enumerate(blocks):
                generator = np.random.default_rng([10, 0, 0xE7A1, k, e])
                assert np.array_equal(got, simulate(layer, embed_batch(rows, e, book),
                                                    SPIKING, generator))
        # the scan makes one ten-pass call per ragged chunk: calls 0, 1 and 2
        sub = Dataset(images, synthetic_data.test.labels[:23])
        prob = SymmetricProb()
        got = scan(layer, sub, book, spiking_runner(SPIKING, seed=10), prob, chunk=10)
        generators = keyed(10)
        want = per_label_scan(layer, sub, book,
                              lambda X: simulate(layer, X, SPIKING, next(generators)),
                              prob, chunk=10)
        assert np.array_equal(got[1], want[1])
        assert np.any(want[1] > 0)

    def test_nan_in_a_child_entry_is_a_data_error(self, synthetic_data, cores, started):
        images = synthetic_data.test.images[:12]
        vectors = synthetic_data.codebook.vectors.copy()
        vectors[1, 0] = np.nan
        book = LabelCodebook.from_vectors(vectors, density=0.3, seed=0)
        layer = layer_for(images.shape[1] + book.length)
        cores(2)
        passes = spiking_runner(SPIKING, seed=11)(layer, images, book)
        assert np.all(np.isfinite(next(passes)))
        with pytest.raises(DataError, match="must lie in"):
            next(passes)
        assert started == [5]
        assert not multiprocessing.active_children()

    def test_dropped_scan_leaves_no_child(self, synthetic_data, cores, started):
        # each pass's latents (1,200 x 14 doubles) outgrow a pipe's 64 KiB buffer, so
        # every child is still blocked in its first send when the scan is dropped
        images = np.tile(synthetic_data.test.images, (2, 1))
        book = synthetic_data.codebook
        layer = layer_for(images.shape[1] + book.length)
        cores(3)
        passes = spiking_runner(SPIKING, seed=12)(layer, images, book)
        next(passes)
        assert len(multiprocessing.active_children()) == 2
        passes.close()
        assert started == [3, 3]
        assert not multiprocessing.active_children()
