import gzip
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ffa.data import (
    MAX_CODEBOOK_DRAWS,
    Dataset,
    ExperimentData,
    LabelCodebook,
    batches,
    embed_batch,
    load_mnist,
    load_split,
    pair_codes,
    read_idx_images,
    read_idx_labels,
)
from ffa.analog import TrainConfig, train_analog
from ffa.core import SymmetricProb
from ffa.errors import DataError
from tests.conftest import write_idx_images, write_idx_labels


@pytest.fixture()
def small_images():
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(12, 5, 5)).astype(np.uint8)


class TestIdxParsing:
    def test_image_round_trip(self, tmp_path, small_images):
        path = tmp_path / "imgs"
        write_idx_images(path, small_images)
        loaded = read_idx_images(path)
        assert loaded.shape == (12, 25) and loaded.dtype == np.uint8
        assert np.array_equal(loaded, small_images.reshape(12, 25))
        floats = Dataset(loaded, np.zeros(12)).images_at(slice(None))
        assert floats.dtype == np.float64
        assert floats.tobytes() == (small_images.reshape(12, 25) / 255.0).tobytes()

    def test_label_round_trip(self, tmp_path):
        path = tmp_path / "labels"
        labels = np.array([0, 1, 9, 3], dtype=np.uint8)
        write_idx_labels(path, labels)
        assert np.array_equal(read_idx_labels(path), labels)

    def test_gzip_transparent(self, tmp_path, small_images):
        raw = tmp_path / "imgs"
        write_idx_images(raw, small_images)
        gz = tmp_path / "imgs.gz"
        gz.write_bytes(gzip.compress(raw.read_bytes()))
        assert np.array_equal(read_idx_images(gz), read_idx_images(raw))

    def test_bad_magic_names_file(self, tmp_path):
        path = tmp_path / "imgs"
        path.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 12)
        with pytest.raises(DataError, match="imgs"):
            read_idx_images(path)

    def test_truncated_payload(self, tmp_path, small_images):
        path = tmp_path / "imgs"
        write_idx_images(path, small_images)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(DataError, match="expected"):
            read_idx_images(path)

    def test_trailing_payload_names_file(self, tmp_path, small_images):
        path = tmp_path / "imgs"
        write_idx_images(path, small_images)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(DataError, match="expected 300 pixel bytes, found 303") as raised:
            read_idx_images(path)
        assert str(path) in str(raised.value)

    @pytest.mark.parametrize("count,rows,cols", [(-1, 5, 5), (2**31 - 1, 2**15, 2**15)],
                             ids=["negative", "beyond_memory"])
    def test_header_size_that_cannot_be_held(self, tmp_path, count, rows, cols):
        # a lying header is refused before or at its allocation, never read into
        path = tmp_path / "imgs"
        path.write_bytes(struct.pack(">iiii", 0x00000803, count, rows, cols) + b"\x00" * 25)
        with pytest.raises(DataError) as raised:
            read_idx_images(path)
        assert str(path) in str(raised.value)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "imgs"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(DataError, match="truncated"):
            read_idx_images(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "labels"
        write_idx_labels(path, np.array([1, 2, 11], dtype=np.uint8))
        with pytest.raises(DataError, match="0-9") as raised:
            read_idx_labels(path)
        assert str(path) in str(raised.value)

    @pytest.mark.parametrize("labels", [[10, -1], [3, 10], [-1]])
    def test_dataset_rejects_labels_outside_0_9(self, labels):
        with pytest.raises(DataError, match="labels outside 0-9"):
            Dataset(np.zeros((len(labels), 4)), labels)

    def test_load_mnist_layout(self, idx_dataset_dir):
        train, test = load_mnist(idx_dataset_dir)
        assert len(train) == 160 and len(test) == 80
        assert train.images.shape[1] == 36
        for split in (train, test):
            assert split.images.dtype == np.uint8
            floats = split.images_at(slice(None))
            assert floats.tobytes() == (split.images / 255.0).tobytes()
            assert floats.min() >= 0.0 and floats.max() <= 1.0

    def test_load_split_reads_only_its_own_files(self, idx_dataset_dir):
        train, test = load_mnist(idx_dataset_dir)
        for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
            (idx_dataset_dir / name).unlink()
        alone = load_split(idx_dataset_dir, "test")
        assert np.array_equal(alone.images, test.images)
        assert np.array_equal(alone.labels, test.labels)
        with pytest.raises(DataError, match="train-images"):
            load_split(idx_dataset_dir, "train")

    def test_unknown_split_rejected(self, idx_dataset_dir):
        with pytest.raises(DataError, match="unknown split 'valid'"):
            load_split(idx_dataset_dir, "valid")

    def test_splits_of_different_widths_are_refused(self, idx_dataset_dir, small_images):
        # 6x6 train images with 5x5 test images would train a layer the test split cannot feed
        test_file = idx_dataset_dir / "t10k-images-idx3-ubyte"
        write_idx_images(test_file, np.resize(small_images, (80, 5, 5)))
        with pytest.raises(DataError, match="36 pixels .* 25; both splits") as raised:
            load_mnist(idx_dataset_dir)
        assert str(idx_dataset_dir / "train-images-idx3-ubyte") in str(raised.value)
        assert str(test_file) in str(raised.value)

    def test_count_mismatch_between_files(self, tmp_path, small_images):
        write_idx_images(tmp_path / "train-images-idx3-ubyte", small_images)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.zeros(5, dtype=np.uint8))
        write_idx_images(tmp_path / "t10k-images-idx3-ubyte", small_images)
        write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", np.zeros(12, dtype=np.uint8))
        with pytest.raises(DataError, match="12 images but .* 5 labels"):
            load_mnist(tmp_path)

    @pytest.mark.parametrize("split", ["train", "t10k"])
    def test_empty_split_rejected(self, tmp_path, small_images, split):
        for prefix in ("train", "t10k"):
            images = small_images[:0] if prefix == split else small_images
            write_idx_images(tmp_path / f"{prefix}-images-idx3-ubyte", images)
            write_idx_labels(tmp_path / f"{prefix}-labels-idx1-ubyte",
                             np.zeros(len(images), dtype=np.uint8))
        with pytest.raises(DataError, match=f"{split}-images-idx3-ubyte: the split has no images"):
            load_mnist(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_mnist(tmp_path / "absent")


class TestBytePixels:
    def test_every_byte_reads_as_its_float(self):
        pixels = np.arange(256, dtype=np.uint8)
        dataset = Dataset(pixels[:, None], pixels % 10)
        assert dataset.images.dtype == np.uint8
        want = np.arange(256) / 255.0
        assert dataset.images_at(slice(None)).ravel().tobytes() == want.tobytes()
        order = np.random.default_rng(0).permutation(256)
        assert dataset.images_at(order).ravel().tobytes() == want[order].tobytes()

    def test_other_images_are_stored_as_float(self):
        floats = np.random.default_rng(1).uniform(0, 1, size=(6, 4))
        dataset = Dataset(floats, np.arange(6))
        assert dataset.images is floats
        assert np.shares_memory(dataset.images_at(slice(1, 3)), floats)
        assert dataset.images_at([4, 0]).tobytes() == floats[[4, 0]].tobytes()
        # any dtype but uint8 keeps its values: these ints are not bytes standing for p / 255
        ints = Dataset(np.full((2, 3), 255, dtype=np.int64), [0, 1])
        assert ints.images.dtype == np.float64
        assert ints.images_at(slice(None)).max() == 255.0

    def test_batches_of_bytes_equal_batches_of_their_float_twin(self):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, size=(23, 8), dtype=np.uint8)
        labels = rng.integers(0, 10, 23)
        got = list(batches(Dataset(pixels, labels), 5, seed=1, epoch=3))
        want = list(batches(Dataset(pixels / 255.0, labels), 5, seed=1, epoch=3))
        assert len(got) == len(want) == 5
        for a, b in zip(got, want):
            assert a.images.dtype == np.float64
            assert a.images.tobytes() == b.images.tobytes()
            assert np.array_equal(a.labels, b.labels)


class TestPixelMemory:
    """numpy reports its buffers to tracemalloc, so a traced peak shows every pixel copy."""

    N, SIDE = 2000, 28

    @pytest.fixture()
    def split_dir(self, tmp_path):
        rng = np.random.default_rng(3)
        for prefix in ("train", "t10k"):
            write_idx_images(tmp_path / f"{prefix}-images-idx3-ubyte",
                             rng.integers(0, 256, size=(self.N, self.SIDE, self.SIDE)))
            write_idx_labels(tmp_path / f"{prefix}-labels-idx1-ubyte",
                             rng.integers(0, 10, size=self.N))
        return tmp_path

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_loading_a_split_holds_its_bytes_once(self, split_dir):
        # a float copy would trace 8x the pixel bytes, a read through an interim buffer 2x
        pixel_bytes = self.N * self.SIDE * self.SIDE
        train, peak = self.traced_peak(load_split, split_dir, "train")
        assert train.images.nbytes == pixel_bytes
        assert peak < 1.25 * pixel_bytes, peak

    def test_an_analog_epoch_converts_only_its_batches(self, split_dir):
        train, test = load_mnist(split_dir)
        data = ExperimentData(train, test, LabelCodebook(length=10, density=0.3, seed=1))
        config = TrainConfig(eta=0.01, batch_size=50, epochs=1, seed=0, prob_fn=SymmetricProb())
        (layer, log), peak = self.traced_peak(train_analog, config, data, None, 20)
        assert len(log) == 1
        assert peak < train.images.size * 8, peak


class TestLabelCodebook:
    def test_shape_and_binary(self):
        book = LabelCodebook(length=100, density=0.3, seed=101)
        assert book.vectors.shape == (10, 100)
        assert set(np.unique(book.vectors)) <= {0.0, 1.0}

    def test_density_within_three_sigma(self):
        book = LabelCodebook(length=100, density=0.3, seed=101)
        total = book.vectors.sum()
        n = 10 * 100
        sigma = np.sqrt(n * 0.3 * 0.7)
        assert abs(total - n * 0.3) < 3 * sigma

    def test_deterministic(self):
        a = LabelCodebook(length=50, density=0.3, seed=5)
        b = LabelCodebook(length=50, density=0.3, seed=5)
        assert np.array_equal(a.vectors, b.vectors)

    def test_collisions_redrawn_until_distinct(self):
        # 4-bit codewords collide often; construction must bump the seed
        # until all ten are distinct
        book = LabelCodebook(length=4, density=0.5, seed=0)
        assert len({v.tobytes() for v in book.vectors}) == 10
        assert book.seed >= 0

    @pytest.mark.parametrize("seed,drawn", [(0, 33), (34, 59), (101, 308), (12345, 12345)])
    def test_redraw_seeds_are_pinned(self, seed, drawn):
        # the seed each book settles on; a change here changes every label embedding
        assert LabelCodebook(length=4, density=0.5, seed=seed).seed == drawn

    def test_impossible_codebook_rejected(self):
        with pytest.raises(DataError):
            LabelCodebook(length=3, density=0.5, seed=0)

    @pytest.mark.parametrize("length,density", [(4, 0.01), (100, 0.001)])
    def test_too_sparse_codebook_gives_up(self, length, density):
        with pytest.raises(DataError, match=rf"length {length} at density {density} in "
                                            rf"{MAX_CODEBOOK_DRAWS} draws from seed 0"):
            LabelCodebook(length=length, density=density, seed=0)

    def test_round_trip_from_vectors(self):
        book = LabelCodebook(length=30, density=0.3, seed=2)
        clone = LabelCodebook.from_vectors(book.vectors.copy(), book.density, book.seed)
        assert book == clone

    def test_from_vectors_refuses_a_repeated_codeword(self):
        vectors = LabelCodebook(length=30, density=0.3, seed=2).vectors.copy()
        vectors[9] = vectors[4]
        with pytest.raises(DataError, match="codeword 9 repeats codeword 4"):
            LabelCodebook.from_vectors(vectors, 0.3, 2)


class TestEmbedding:
    def test_zero_image_nonzeros_only_in_suffix(self):
        book = LabelCodebook(length=20, density=0.3, seed=3)
        v = embed_batch(np.zeros((1, 50)), 4, book)[0]
        assert v.shape == (70,)
        assert np.all(v[:50] == 0.0)
        assert np.array_equal(v[50:], book.vectors[4])

    def test_labels_differ_exactly_on_suffix(self):
        rng = np.random.default_rng(1)
        book = LabelCodebook(length=20, density=0.3, seed=3)
        image = rng.uniform(0, 1, 50)
        a, b = embed_batch(image[None, :], 2, book)[0], embed_batch(image[None, :], 7, book)[0]
        assert np.array_equal(a[:50], b[:50])
        assert not np.array_equal(a[50:], b[50:])

    def test_rejects_bad_label(self):
        book = LabelCodebook(length=20, density=0.3, seed=3)
        with pytest.raises(DataError):
            embed_batch(np.zeros((1, 5)), 10, book)

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_batch_rejects_bad_label_scalar_and_per_row(self, bad):
        book = LabelCodebook(length=20, density=0.3, seed=3)
        with pytest.raises(DataError, match=f"label {bad} outside 0-9"):
            embed_batch(np.zeros((1, 3)), bad, book)
        with pytest.raises(DataError, match=f"label {bad} outside 0-9"):
            embed_batch(np.zeros((3, 3)), np.array([2, bad, 9]), book)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        book = LabelCodebook(length=8, density=0.3, seed=3)
        images = rng.uniform(0, 1, size=(6, 10))
        stacked = embed_batch(images, 5, book)
        for b in range(6):
            assert np.array_equal(stacked[b], np.concatenate([images[b], book.vectors[5]]))
            assert np.array_equal(stacked[b], embed_batch(images[b : b + 1], 5, book)[0])

    def test_batch_one_label_per_row(self):
        rng = np.random.default_rng(2)
        book = LabelCodebook(length=8, density=0.3, seed=3)
        images = rng.uniform(0, 1, size=(6, 10))
        labels = np.array([4, 0, 9, 4, 2, 7])
        stacked = embed_batch(images, labels, book)
        for b in range(6):
            assert np.array_equal(stacked[b], np.concatenate([images[b], book.vectors[labels[b]]]))


def embedded_labels(X: np.ndarray, book: LabelCodebook) -> np.ndarray:
    """The label whose codeword each row of X carries."""
    match = (X[:, -book.length :, None] == book.vectors.T[None]).all(axis=1)
    assert np.all(match.sum(axis=1) == 1)
    return match.argmax(axis=1)


def wrong_labels(dataset, book, k, seed, epochs):
    """(true label, embedded label) of every negative row of `batches`."""
    true, wrong = [], []
    for epoch in range(epochs):
        for batch in batches(dataset, k, seed, epoch):
            labels = embedded_labels(batch.rows(book), book)
            true.append(labels[0::2])
            wrong.append(labels[1::2])
    return np.concatenate(true), np.concatenate(wrong)


class TestNegativeRows:
    def test_never_the_true_label(self):
        rng = np.random.default_rng(4)
        book = LabelCodebook(length=10, density=0.3, seed=3)
        dataset = Dataset(np.zeros((2000, 1)), rng.integers(0, 10, 2000))
        true, wrong = wrong_labels(dataset, book, 50, seed=4, epochs=5)
        assert true.size == 10_000
        assert np.all(wrong != true)

    def test_wrong_labels_uniform_chi_square(self):
        book = LabelCodebook(length=10, density=0.3, seed=3)
        dataset = Dataset(np.zeros((20_000, 1)), np.full(20_000, 3))
        _, wrong = wrong_labels(dataset, book, 500, seed=5, epochs=5)
        counts = np.bincount(wrong, minlength=10)
        assert counts.sum() == 100_000 and counts[3] == 0
        observed = np.delete(counts, 3)
        _, p_value = stats.chisquare(observed)
        assert p_value > 0.01

    def test_same_seed_and_epoch_same_draws(self):
        rng = np.random.default_rng(9)
        book = LabelCodebook(length=10, density=0.3, seed=3)
        dataset = Dataset(np.zeros((300, 1)), rng.integers(0, 10, 300))
        a = wrong_labels(dataset, book, 7, seed=9, epochs=2)
        b = wrong_labels(dataset, book, 7, seed=9, epochs=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        other_seed = wrong_labels(dataset, book, 7, seed=10, epochs=2)
        assert not np.array_equal(a[1], other_seed[1])


class TestBatches:
    @pytest.fixture()
    def dataset(self):
        rng = np.random.default_rng(6)
        return Dataset(rng.uniform(0, 1, size=(23, 8)), rng.integers(0, 10, 23))

    @pytest.fixture()
    def book(self):
        return LabelCodebook(length=6, density=0.3, seed=3)

    def test_partition_exactly_once(self, dataset, book):
        seen = []
        for batch in batches(dataset, 5, seed=1, epoch=0):
            X = batch.rows(book)
            assert X.shape in ((10, 14), (6, 14))  # 5 pairs per batch, remainder 3 pairs
            assert len(batch) == len(X) and batch.labels.shape == (len(X) // 2, 2)
            seen.extend(X[0::2, :8].tolist())
        assert sorted(seen) == sorted(dataset.images.tolist())

    def test_online_stream(self, dataset, book):
        chunks = list(batches(dataset, 1, seed=1, epoch=0))
        assert len(chunks) == 23
        assert all(c.rows(book).shape == (2, 14) for c in chunks)

    def test_epochs_permute_differently_but_reproducibly(self, dataset, book):
        def order(epoch):
            return [row for batch in batches(dataset, 4, seed=2, epoch=epoch)
                    for row in batch.rows(book)[0::2].tolist()]

        assert order(0) != order(1)
        assert order(0) == order(0)

    def test_rows_pair_one_image_with_its_true_and_a_wrong_label(self, synthetic_data):
        data = synthetic_data
        n_image = data.train.images.shape[1]
        true_of = {row.tobytes(): label for row, label in zip(data.train.images, data.train.labels)}
        seen = 0
        for batch in batches(data.train, 32, seed=1, epoch=0):
            X = batch.rows(data.codebook)
            assert np.array_equal(X[:, -data.codebook.length :], batch.codewords(data.codebook))
            pos, neg = X[0::2], X[1::2]
            assert np.array_equal(pos[:, :n_image], neg[:, :n_image])
            true = np.array([true_of[row.tobytes()] for row in pos[:, :n_image]])
            assert np.array_equal(embedded_labels(pos, data.codebook), true)
            assert np.all(embedded_labels(neg, data.codebook) != true)
            seen += len(pos)
        assert seen == len(data.train)

    def test_pair_codes_alternate(self):
        assert pair_codes(6).tolist() == [1, -1, 1, -1, 1, -1]
        assert pair_codes(6).dtype == np.int8
        assert pair_codes(0).size == 0

    def test_golden_rows(self):
        # (image index, embedded label) per row, captured from the per-sample
        # implementation this layout replaced; pins the shuffle and the draws
        images = np.array([[i / 10, 1 - i / 10] for i in range(7)])
        dataset = Dataset(images, np.array([3, 0, 9, 3, 5, 1, 7]))
        book = LabelCodebook(length=6, density=0.3, seed=3)
        golden = [
            [(2, 9), (2, 3), (3, 3), (3, 6), (0, 3), (0, 2)],
            [(1, 0), (1, 1), (4, 5), (4, 8), (5, 1), (5, 3)],
            [(6, 7), (6, 8)],
        ]
        got = list(batches(dataset, 3, seed=4, epoch=1))
        assert len(got) == len(golden)
        for batch, rows in zip(got, golden):
            idx, labels = np.array(rows).T
            assert np.array_equal(batch.images, images[idx[0::2]])
            assert np.array_equal(batch.labels.ravel(), labels)
            assert np.array_equal(batch.rows(book), embed_batch(images[idx], labels, book))
