from itertools import count

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ffa.metrics
from ffa.analog import DenseLayer, forward_batch, forward_labelled
from ffa.core import PolarityPartition, SigmoidProb, SymmetricProb
from ffa.data import Dataset, LabelCodebook, embed_batch
from ffa.errors import ConfigError, DataError
from ffa.metrics import (
    LatentDump,
    accuracy,
    analog_runner,
    collect_latents,
    evaluate,
    export_latents,
    goodness_scores,
    hoyer_summary,
    scan,
    separability_index,
    spiking_runner,
)
from ffa.spiking import SpikeEncoderConfig, SpikingConfig, simulate
from tests.reference import forward, goodness, left_to_right_sum, partition_goodness, read_latents


class TestHoyerIndex:
    @pytest.mark.parametrize("n", [2, 4, 200])
    def test_one_hot_is_one(self, n):
        v = np.zeros(n)
        v[0] = 3.7
        assert hoyer_summary(v)[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 64])
    def test_uniform_is_zero(self, n):
        assert hoyer_summary(np.full(n, 0.8))[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated(self):
        # l1 = 7, l2 = 5, n = 4: (2 - 1.4) / (2 - 1) = 0.6
        assert hoyer_summary(np.array([3.0, 4.0, 0.0, 0.0]))[0] == pytest.approx(0.6, abs=1e-12)

    def test_zero_vector_convention(self):
        assert hoyer_summary(np.zeros(16))[0] == 1.0

    @pytest.mark.parametrize("latents", [np.array([1.0]), np.ones((5, 1)), np.zeros((3, 0))])
    def test_too_short(self, latents):
        with pytest.raises(DataError, match="at least 2 components"):
            hoyer_summary(latents)

    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariant(self, c):
        v = np.array([0.1, 0.9, 0.0, 0.4, 2.0])
        assert hoyer_summary(c * v)[0] == pytest.approx(hoyer_summary(v)[0], abs=1e-12)

    def test_summary_counts_dead_latents(self):
        latents = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
        mean, std, dead = hoyer_summary(latents)
        assert dead == 1
        values = [1.0, 1.0, 0.0]
        assert mean == pytest.approx(np.mean(values), abs=1e-12)
        assert std == pytest.approx(np.std(values), abs=1e-12)


def brute_force_si(latents, labels, k):
    """Independent quadratic-loop kNN oracle."""
    q = len(labels)
    matches = 0
    for a in range(q):
        dists = [(np.sum((latents[a] - latents[b]) ** 2), b) for b in range(q) if b != a]
        dists.sort()
        for _, b in dists[:k]:
            matches += labels[a] == labels[b]
    return matches / (q * k)


def feature_order_si(latents, labels, k):
    """kNN oracle on the textbook distance: squared differences summed in feature
    order (the order cdist uses), then a full sort with ties broken by index."""
    q = len(labels)
    d = np.zeros((q, q))
    for column in latents.T:
        diff = column[:, None] - column[None, :]
        d += diff * diff
    np.fill_diagonal(d, np.inf)
    nearest = np.lexsort((np.broadcast_to(np.arange(q), d.shape), d))[:, :k]
    return int((labels[nearest] == labels[:, None]).sum()) / (q * k)


def spiking_like(rng, q, n, mu=0.1, steps=24):
    """Relu output traces: mu times a spike, accumulated step by step."""
    trace = np.zeros((q, n))
    rate = rng.uniform(0.0, 0.5, size=(q, n))
    for _ in range(steps):
        trace = mu * (rng.random((q, n)) < rate) + trace
    return trace


def near_tie_triples(rng, clusters=40, n=8, offset=1e3):
    """Per cluster a query and two neighbours at one distance up to the rounding of
    their coordinates, far below the GEMM screen's rounding at this offset."""
    rows = []
    for i in range(clusters):
        a = offset + 100.0 * i + rng.normal(size=n)
        step = rng.normal(size=n)
        rows += [a, a + step, a + step[::-1]]
    return np.array(rows)


ORACLE_CASES = {
    "crosses_chunks": lambda rng: rng.normal(size=(700, 12)),
    "duplicate_rows": lambda rng: np.vstack([rng.normal(size=(150, 10))] * 2),
    "dead_rows": lambda rng: np.vstack(
        [np.maximum(rng.normal(size=(250, 10)), 0.0), np.zeros((50, 10))]
    ),
    "integer_ties": lambda rng: rng.integers(0, 3, size=(300, 5)).astype(float),
    "spiking_multiples_of_mu": lambda rng: spiking_like(rng, 300, 20),
    "large_offset_and_scale": lambda rng: rng.normal(size=(300, 10)) * 1e6 + 1e3,
    "large_offset_small_spread": lambda rng: rng.normal(size=(300, 10)) + 1e6,
    "near_ties_below_screen_rounding": near_tie_triples,
}


class TestSeparabilityIndex:
    def test_single_label_is_one(self):
        rng = np.random.default_rng(0)
        dump = LatentDump(rng.uniform(0, 1, size=(30, 4)), np.zeros(30, dtype=int))
        assert separability_index(dump, k_nn=5) == 1.0

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 0.05, size=(8, 3))
        b = rng.normal(10.0, 0.05, size=(8, 3))
        dump = LatentDump(np.vstack([a, b]), np.array([0] * 8 + [1] * 8))
        assert separability_index(dump, k_nn=5) == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        latents = rng.normal(size=(40, 6))
        labels = rng.integers(0, 3, size=40)
        dump = LatentDump(latents, labels)
        for k in (1, 3, 5):
            assert separability_index(dump, k_nn=k) == pytest.approx(
                brute_force_si(latents, labels, k), abs=1e-12
            )

    def test_random_labels_near_class_prior(self):
        rng = np.random.default_rng(3)
        latents = rng.normal(size=(2000, 8))
        labels = rng.integers(0, 10, size=2000)
        si = separability_index(LatentDump(latents, labels), k_nn=5)
        assert abs(si - 0.1) < 0.03

    def test_coordinate_permutation_invariance(self):
        rng = np.random.default_rng(4)
        latents = rng.normal(size=(60, 10))
        labels = rng.integers(0, 4, size=60)
        si = separability_index(LatentDump(latents, labels))
        perm = rng.permutation(10)
        si_perm = separability_index(LatentDump(latents[:, perm], labels))
        assert si_perm == pytest.approx(si, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        latents = rng.normal(size=(60, 10))
        labels = rng.integers(0, 4, size=60)
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        si = separability_index(LatentDump(latents, labels))
        si_rot = separability_index(LatentDump(latents @ q, labels))
        assert si_rot == pytest.approx(si, abs=1e-12)

    def test_duplicate_latents_tie_break_in_index_order(self):
        latents = np.zeros((6, 2))
        labels = np.array([0, 0, 1, 1, 1, 1])
        # all points identical: each query's k=3 neighbors are the lowest
        # other indices, namely {0,1,2} minus itself plus 3 when displaced;
        # every query then sees exactly one same-label neighbor
        si = separability_index(LatentDump(latents, labels), k_nn=3)
        assert si == pytest.approx(1 / 3, abs=1e-12)

    def test_requires_more_samples_than_k(self):
        dump = LatentDump(np.zeros((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(DataError):
            separability_index(dump, k_nn=5)

    def test_requires_positive_k(self):
        dump = LatentDump(np.zeros((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(DataError):
            separability_index(dump, k_nn=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e155])
    def test_rejects_latents_without_finite_squared_norms(self, bad):
        latents = np.zeros((8, 3))
        latents[2, 1] = bad
        with pytest.raises(DataError):
            separability_index(LatentDump(latents, np.zeros(8, dtype=int)))

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("chunk", [97, 256])
    def test_equals_feature_order_oracle(self, case, chunk):
        rng = np.random.default_rng(sorted(ORACLE_CASES).index(case))
        latents = ORACLE_CASES[case](rng)
        # 0, 0, 1 per triple: the near-tie neighbours of a query differ in label
        labels = np.arange(len(latents)) % 3 // 2
        dump = LatentDump(latents, labels)
        for k in (1, 5):
            assert separability_index(dump, k_nn=k, chunk=chunk) == feature_order_si(
                latents, labels, k
            )


class TestExport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        dump = LatentDump(rng.uniform(-5, 5, size=(20, 7)), rng.integers(0, 10, 20))
        path = tmp_path / "latents.csv"
        export_latents(dump, path)
        loaded = read_latents(path)
        assert np.array_equal(loaded.labels, dump.labels)
        assert np.allclose(loaded.latents, dump.latents, rtol=5e-9, atol=1e-12)

    def test_header_only_for_empty_dump(self, tmp_path):
        dump = LatentDump(np.zeros((0, 5)), np.zeros(0, dtype=int))
        path = tmp_path / "latents.csv"
        export_latents(dump, path)
        lines = path.read_text().splitlines()
        assert lines == ["label,h0,h1,h2,h3,h4"]

    def test_row_count(self, tmp_path):
        dump = LatentDump(np.ones((13, 3)), np.ones(13, dtype=int))
        path = tmp_path / "latents.csv"
        export_latents(dump, path)
        assert len(path.read_text().splitlines()) == 14

    @pytest.mark.parametrize(
        "body", ["3,0.5\n4,0.25\n", "3,0.5,1.5\n4,0.25\n", "3,0.5,1.5\n4,0.25,1,2\n"]
    )
    def test_row_width_must_match_header(self, tmp_path, body):
        path = tmp_path / "latents.csv"
        path.write_text("label,h0,h1\n" + body)
        line = 2 if body.startswith("3,0.5\n") else 3
        with pytest.raises(DataError, match=f"latents.csv:{line}: expected 2 values"):
            read_latents(path)


def trained_like_layer(rng, n_out, n_in):
    return DenseLayer(rng.uniform(-0.3, 0.3, size=(n_out, n_in)),
                      PolarityPartition.split_halves(n_out))


def oracle_prediction(layer, image, book, prob):
    """Per-image goodness scan: ten embedded rows, one forward each, argmax."""
    latents = [forward(layer, embed_batch(image[None, :], c, book)[0])[1] for c in range(10)]
    if isinstance(prob, SigmoidProb):
        scores = [goodness(h) for h in latents]
    else:
        scores = [partition_goodness(h, layer.partition)[0] for h in latents]
    return int(np.argmax(scores))


class TestClassify:
    def test_all_zero_weights_tie_breaks_to_label_zero(self):
        book = LabelCodebook(length=8, density=0.3, seed=3)
        layer = DenseLayer(np.zeros((6, 18)), PolarityPartition.all_positive(6))
        images = Dataset(np.zeros((3, 10)), [3, 0, 9])
        predictions, _ = scan(layer, images, book, analog_runner(), SigmoidProb())
        assert predictions.tolist() == [0, 0, 0]

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        book = LabelCodebook(length=8, density=0.3, seed=3)
        layer = trained_like_layer(rng, 12, 18)
        images = Dataset(rng.uniform(0, 1, size=(25, 10)), rng.integers(0, 10, 25))
        runner = analog_runner()
        scaled = DenseLayer(3.7 * layer.weights, layer.partition)
        for prob in (SigmoidProb(), SymmetricProb()):
            before, _ = scan(layer, images, book, runner, prob)
            after, _ = scan(scaled, images, book, runner, prob)
            assert np.array_equal(before, after)

    def test_untrained_accuracy_near_chance(self, synthetic_data):
        rng = np.random.default_rng(8)
        layer = trained_like_layer(rng, 30, 120)
        acc = accuracy(layer, synthetic_data.test, synthetic_data.codebook,
                       analog_runner(), SymmetricProb())
        assert 0.02 <= acc <= 0.25

    @pytest.mark.parametrize("prob", [SigmoidProb(), SymmetricProb()])
    def test_accuracy_agrees_with_classify_loop(self, synthetic_data, prob):
        rng = np.random.default_rng(9)
        layer = trained_like_layer(rng, 20, 120)
        data = synthetic_data.test
        sub = Dataset(data.images[:40], data.labels[:40])
        predictions, _ = scan(layer, sub, synthetic_data.codebook, analog_runner(), prob, chunk=16)
        book = synthetic_data.codebook
        oracle = [oracle_prediction(layer, img, book, prob) for img in sub.images]
        assert predictions.tolist() == oracle
        acc = accuracy(layer, sub, synthetic_data.codebook, analog_runner(), prob)
        assert acc == np.mean(np.asarray(oracle) == sub.labels)

    def test_spiking_runner_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        book = LabelCodebook(length=8, density=0.3, seed=3)
        layer = trained_like_layer(rng, 10, 18)
        spk = SpikingConfig(n_out=10, encoder=SpikeEncoderConfig(steps=6, active_window=2))
        images = Dataset(rng.uniform(0, 1, size=(5, 10)), [1, 4, 4, 0, 9])
        a = scan(layer, images, book, spiking_runner(spk, seed=4), SigmoidProb())
        b = scan(layer, images, book, spiking_runner(spk, seed=4), SigmoidProb())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def recording(runner):
    """The runner, plus one entry per call: the list of latent blocks that call yielded."""
    calls = []

    def run(layer, images, codebook, label_sets):
        calls.append([])
        for latents in runner(layer, images, codebook, label_sets):
            calls[-1].append(latents)
            yield latents

    return run, calls


class TestScan:
    SPIKING = SpikingConfig(n_out=14, encoder=SpikeEncoderConfig(steps=12, active_window=4))

    def test_evaluate_runs_ten_passes_per_chunk(self, synthetic_data):
        layer = trained_like_layer(np.random.default_rng(13), 14, 120)
        sub = Dataset(synthetic_data.test.images[:50], synthetic_data.test.labels[:50])
        runner, calls = recording(analog_runner())
        evaluate(layer, sub, synthetic_data.codebook, runner, SigmoidProb())
        assert [len(blocks) for blocks in calls] == [10]
        runner, calls = recording(analog_runner())
        scan(layer, sub, synthetic_data.codebook, runner, SigmoidProb(), chunk=16)
        assert [len(blocks) for blocks in calls] == [10] * 4

    @pytest.mark.parametrize("prob", [SigmoidProb(), SymmetricProb()])
    def test_spiking_report_latents_are_the_scored_ones(self, synthetic_data, prob):
        layer = trained_like_layer(np.random.default_rng(14), 14, 120)
        sub = Dataset(synthetic_data.test.images[:60], synthetic_data.test.labels[:60])
        runner, calls = recording(spiking_runner(self.SPIKING, seed=5))
        _, dump = evaluate(layer, sub, synthetic_data.codebook, runner, prob)
        scored = np.array([
            goodness_scores(calls[0][label][q : q + 1], prob, layer)[0]
            for q, label in enumerate(sub.labels)
        ])
        assert np.any(scored > 0)
        assert np.array_equal(goodness_scores(dump.latents, prob, layer), scored)

    def test_a_one_row_dataset_scores_its_positive_goodness_left_to_right(self):
        # a one-row chunk sums its partition as a stack of rows does, not pairwise
        rng = np.random.default_rng(16)
        book = LabelCodebook(length=8, density=0.3, seed=3)
        layer = trained_like_layer(rng, 300, 18)
        runner, calls = recording(analog_runner())
        scan(layer, Dataset(rng.uniform(0, 1, size=(1, 10)), [2]), book, runner, SymmetricProb())
        pairwise_differs = False
        for latents in calls[0]:
            sq = latents[0, layer.partition.pos_mask] ** 2
            want = left_to_right_sum(sq)
            assert goodness_scores(latents, SymmetricProb(), layer).tolist() == [want]
            pairwise_differs |= sq.sum() != want
        assert pairwise_differs

    def test_evaluate_accuracy_equals_accuracy_spiking(self, synthetic_data):
        layer = trained_like_layer(np.random.default_rng(15), 14, 120)
        sub = Dataset(synthetic_data.test.images[:60], synthetic_data.test.labels[:60])
        book, prob = synthetic_data.codebook, SymmetricProb()
        report, _ = evaluate(layer, sub, book, spiking_runner(self.SPIKING, seed=6), prob)
        same_seed = spiking_runner(self.SPIKING, seed=6)
        assert report.accuracy == accuracy(layer, sub, book, same_seed, prob)

    @pytest.mark.parametrize("runner", ["analog", "spiking"])
    def test_bytes_score_as_their_float_twin(self, synthetic_data, runner):
        # a byte split and the floats p / 255 it stands for: the same predictions and latents
        def runner_of():
            return analog_runner() if runner == "analog" else spiking_runner(self.SPIKING, seed=7)

        layer = trained_like_layer(np.random.default_rng(18), 14, 120)
        test, book = synthetic_data.test, synthetic_data.codebook
        pixels = np.round(test.images[:70] * 255.0).astype(np.uint8)
        labels = test.labels[:70]
        as_bytes, twin = Dataset(pixels, labels), Dataset(pixels / 255.0, labels)
        for prob in (SigmoidProb(), SymmetricProb()):
            got = scan(layer, as_bytes, book, runner_of(), prob, chunk=32)
            want = scan(layer, twin, book, runner_of(), prob, chunk=32)
            assert np.array_equal(got[0], want[0]) and len(set(got[0].tolist())) > 1
            assert got[1].tobytes() == want[1].tobytes()
        got = collect_latents(layer, as_bytes, book, runner_of(), chunk=32)
        want = collect_latents(layer, twin, book, runner_of(), chunk=32)
        assert got.latents.tobytes() == want.latents.tobytes() and np.any(got.latents > 0)

    def test_analog_latents_equal_collect_latents(self, synthetic_data):
        layer = trained_like_layer(np.random.default_rng(16), 14, 120)
        sub = Dataset(synthetic_data.test.images[:90], synthetic_data.test.labels[:90])
        _, dump = evaluate(layer, sub, synthetic_data.codebook, analog_runner(), SigmoidProb())
        direct = collect_latents(layer, sub, synthetic_data.codebook, analog_runner())
        assert np.array_equal(dump.latents, direct.latents)
        assert np.array_equal(dump.labels, direct.labels)


def per_label_scan(layer, dataset, book, latents_of, prob, chunk):
    """The scan as it was before the factored runner: per chunk, each label's full
    ``[image ; codeword]`` input through ``latents_of``, one pass per label."""
    predictions = np.empty(len(dataset), dtype=np.int64)
    true_latents = np.empty((len(dataset), layer.n_out))
    for start in range(0, len(dataset), chunk):
        images, labels = dataset.images[start : start + chunk], dataset.labels[start : start + chunk]
        passes = [latents_of(embed_batch(images, c, book)) for c in range(10)]
        # spiking goodness ties exactly, so the scores are summed as the scan sums them
        scores = np.stack([goodness_scores(latents, prob, layer) for latents in passes], axis=1)
        predictions[start : start + chunk] = np.argmax(scores, axis=1)
        true_latents[start : start + chunk] = np.stack(passes)[labels, np.arange(len(labels))]
    return predictions, true_latents


def keyed(seed, epoch=0, entries=10):
    """The generators of a spiking runner's passes in call order, for calls of ``entries``
    entries each: entry e of the k-th call draws from the key (seed, epoch, k, e)."""
    return (np.random.default_rng([seed, epoch, 0xE7A1, k, e])
            for k in count() for e in range(entries))


class TestFactoredScan:
    """The analog runner adds a ten-row label table to one image projection per chunk."""

    @pytest.mark.parametrize("chunk", [16, 2000], ids=["ragged_chunks", "one_chunk"])
    @pytest.mark.parametrize("prob", [SigmoidProb(), SymmetricProb()], ids=["sigmoid", "symmetric"])
    def test_analog_matches_full_forward_per_label(self, synthetic_data, prob, chunk):
        rng = np.random.default_rng(17)
        layer = trained_like_layer(rng, 14, 120)
        sub = Dataset(synthetic_data.test.images[:40], synthetic_data.test.labels[:40])
        book = synthetic_data.codebook
        predictions, latents = scan(layer, sub, book, analog_runner(), prob, chunk=chunk)
        want_predictions, want_latents = per_label_scan(
            layer, sub, book, lambda X: forward_batch(layer, X), prob, chunk)
        assert np.array_equal(predictions, want_predictions)
        assert len(set(predictions.tolist())) > 1
        assert np.count_nonzero(latents) > latents.size // 4
        np.testing.assert_allclose(latents, want_latents, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_latents).max())

    @pytest.mark.parametrize("chunk", [16, 2000], ids=["ragged_chunks", "one_chunk"])
    @pytest.mark.parametrize("prob", [SigmoidProb(), SymmetricProb()], ids=["sigmoid", "symmetric"])
    def test_spiking_equals_per_label_simulate_bitwise(self, synthetic_data, prob, chunk):
        layer = trained_like_layer(np.random.default_rng(18), 14, 120)
        sub = Dataset(synthetic_data.test.images[:40], synthetic_data.test.labels[:40])
        book, spk = synthetic_data.codebook, TestScan.SPIKING
        predictions, latents = scan(layer, sub, book, spiking_runner(spk, seed=8), prob,
                                    chunk=chunk)
        generators = keyed(8)
        want_predictions, want_latents = per_label_scan(
            layer, sub, book, lambda X: simulate(layer, X, spk, next(generators)), prob, chunk)
        assert np.array_equal(predictions, want_predictions)
        assert np.array_equal(latents, want_latents)
        assert np.any(latents > 0)

    def test_spiking_call_embeds_its_images_once(self, synthetic_data, monkeypatch):
        # the entries rewrite the code columns of one row buffer instead of building
        # fresh rows, and a fresh mapping with its page faults, every pass
        built = []

        def counting(*args):
            built.append(args)
            return embed_batch(*args)

        monkeypatch.setattr(ffa.metrics, "embed_batch", counting)
        layer = trained_like_layer(np.random.default_rng(22), 14, 120)
        images, book = synthetic_data.test.images[:12], synthetic_data.codebook
        blocks = list(spiking_runner(TestScan.SPIKING, seed=9)(layer, images, book, range(10)))
        assert len(blocks) == 10 and len(built) == 1

    def test_entries_may_label_each_row(self, synthetic_data):
        rng = np.random.default_rng(19)
        layer = trained_like_layer(rng, 14, 120)
        images, book = synthetic_data.test.images[:25], synthetic_data.codebook
        per_row = rng.integers(0, 10, size=25)
        blocks = list(forward_labelled(layer, images, book, [per_row, 7]))
        assert len(blocks) == 2
        for got, labels in zip(blocks, [per_row, 7]):
            want = forward_batch(layer, embed_batch(images, labels, book))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("labels", [-1, 10, [0, 3, 12]])
    def test_labels_outside_0_9_rejected(self, synthetic_data, labels):
        layer = trained_like_layer(np.random.default_rng(20), 14, 120)
        images = synthetic_data.test.images[:3]
        with pytest.raises(DataError, match="outside 0-9"):
            list(forward_labelled(layer, images, synthetic_data.codebook, [labels]))

    def test_image_width_checked(self, synthetic_data):
        layer = trained_like_layer(np.random.default_rng(21), 14, 120)
        images = synthetic_data.test.images[:3, :-1]
        with pytest.raises(ConfigError, match="code bits"):
            list(forward_labelled(layer, images, synthetic_data.codebook, [0]))

    @pytest.mark.parametrize("score", [scan, accuracy, evaluate])
    def test_empty_dataset_is_a_data_error(self, synthetic_data, score):
        layer = trained_like_layer(np.random.default_rng(23), 14, 120)
        empty = Dataset(np.zeros((0, 100)), [])
        with pytest.raises(DataError, match="empty"):
            score(layer, empty, synthetic_data.codebook, analog_runner(), SigmoidProb())


class TestCollectAndEvaluate:
    def test_latents_match_direct_forward(self, synthetic_data):
        rng = np.random.default_rng(11)
        layer = trained_like_layer(rng, 14, 120)
        sub = Dataset(synthetic_data.test.images[:30], synthetic_data.test.labels[:30])
        dump = collect_latents(layer, sub, synthetic_data.codebook, analog_runner(), "tag")
        for q in (0, 7, 29):
            x = embed_batch(sub.images[q : q + 1], int(sub.labels[q]), synthetic_data.codebook)[0]
            _, latent = forward(layer, x)
            assert np.allclose(dump.latents[q], latent, rtol=1e-13)
        assert dump.model_tag == "tag"

    def test_evaluate_report_fields(self, synthetic_data):
        rng = np.random.default_rng(12)
        layer = trained_like_layer(rng, 14, 120)
        sub = Dataset(synthetic_data.test.images[:50], synthetic_data.test.labels[:50])
        report, dump = evaluate(layer, sub, synthetic_data.codebook, analog_runner(),
                                SymmetricProb(), model_tag="probe")
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.hoyer_mean <= 1.0
        assert 0.0 <= report.separability <= 1.0
        assert dump.latents.shape == (50, 14)
        text = report.format()
        assert "accuracy:" in text and "separability:" in text

    def test_evaluate_refuses_one_unit_layer(self, synthetic_data):
        layer = DenseLayer(np.full((1, 120), 0.1), PolarityPartition.all_positive(1))
        sub = Dataset(synthetic_data.test.images[:20], synthetic_data.test.labels[:20])
        with pytest.raises(DataError, match="at least 2 components"):
            evaluate(layer, sub, synthetic_data.codebook, analog_runner(), SigmoidProb())
