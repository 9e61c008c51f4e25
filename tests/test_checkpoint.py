import struct
from types import SimpleNamespace

import numpy as np
import pytest

from ffa.analog import DenseLayer
from ffa.checkpoint import load_checkpoint, save_checkpoint
from ffa.core import PolarityPartition
from ffa.data import LabelCodebook
from ffa.errors import CheckpointError


@pytest.fixture()
def layer_and_book():
    rng = np.random.default_rng(0)
    layer = DenseLayer(rng.standard_normal((6, 11)), PolarityPartition.split_halves(6))
    book = LabelCodebook(length=17, density=0.3, seed=42)
    return layer, book


class TestRoundTrip:
    def test_weights_bitwise(self, tmp_path, layer_and_book):
        layer, book = layer_and_book
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, layer, book)
        loaded, book2 = load_checkpoint(path)
        assert np.array_equal(loaded.weights, layer.weights)
        assert loaded.partition == layer.partition
        assert book2 == book
        assert book2.length == 17 and book2.seed == 42

    @pytest.mark.parametrize("make_book", [
        lambda: LabelCodebook(length=4, density=0.5, seed=3),
        lambda: LabelCodebook(length=100, density=0.95, seed=3),
        lambda: LabelCodebook.from_vectors(np.eye(10, 12), 5e-324, 3),
        lambda: LabelCodebook.from_vectors(np.eye(10, 12), np.nextafter(1.0, 0.0), 3),
    ], ids=["drawn_4", "drawn_100", "least_density", "greatest_density"])
    def test_every_book_saved_loads(self, tmp_path, layer_and_book, make_book):
        # a book holds any density in (0, 1), and its file loads it back unchanged
        layer, _ = layer_and_book
        book = make_book()
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, layer, book)
        _, loaded = load_checkpoint(path)
        assert loaded == book and (loaded.density, loaded.seed) == (book.density, book.seed)

    def test_save_is_deterministic(self, tmp_path, layer_and_book):
        layer, book = layer_and_book
        a, b = tmp_path / "a.ffaw", tmp_path / "b.ffaw"
        save_checkpoint(a, layer, book)
        save_checkpoint(b, layer, book)
        assert a.read_bytes() == b.read_bytes()

    def test_presynaptic_major_layer_writes_the_row_major_bytes(self, tmp_path, layer_and_book):
        # the spiking trainers store W Fortran-ordered; the file is row-major either way
        layer, book = layer_and_book
        presynaptic = DenseLayer(np.asfortranarray(layer.weights), layer.partition)
        assert presynaptic.weights.T.flags.c_contiguous
        a, b = tmp_path / "c.ffaw", tmp_path / "f.ffaw"
        save_checkpoint(a, layer, book)
        save_checkpoint(b, presynaptic, book)
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    def test_bad_magic(self, tmp_path, layer_and_book):
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, *layer_and_book)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path, layer_and_book):
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, *layer_and_book)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, layer_and_book):
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, *layer_and_book)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ffaw")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights(self, tmp_path, layer_and_book, value):
        layer, book = layer_and_book
        layer.weights.flat[3] = value
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, layer, book)
        with pytest.raises(CheckpointError, match="model.ffaw: non-finite weights"):
            load_checkpoint(path)

    def test_repeated_codeword_refused(self, tmp_path, layer_and_book):
        # ties go to the lower label, so label 7 would never be predicted
        layer, book = layer_and_book
        book.vectors[7] = book.vectors[3]
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, layer, book)
        with pytest.raises(CheckpointError, match="model.ffaw: codeword 7 repeats codeword 3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("density", [1.325, 0.0, np.nan], ids=["1.325", "0", "nan"])
    def test_codebook_density_out_of_range_refused(self, tmp_path, layer_and_book, density):
        # the density field follows the magic, the header, the mask and the code length
        layer, book = layer_and_book
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, layer, book)
        data = bytearray(path.read_bytes())
        at = 4 + 16 + layer.n_out + 4
        assert struct.unpack_from("<d", data, at) == (book.density,)
        struct.pack_into("<d", data, at, density)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError,
                           match=r"model.ffaw: codeword density must be in \(0, 1\)"):
            load_checkpoint(path)

    def test_zero_length_codebook_refused(self, tmp_path, layer_and_book):
        # ten empty codewords are all equal
        layer, _ = layer_and_book
        book = SimpleNamespace(length=0, density=0.3, seed=42, vectors=np.zeros((10, 0)))
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, layer, book)
        with pytest.raises(CheckpointError, match="model.ffaw: codeword 1 repeats codeword 0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("flags, message", [
        (1, "carries a bias vector; the layer bias was removed"),
        (2, "unsupported flags 0x2"),
        (6, "unsupported flags 0x6"),
        (0x80000001, "unsupported flags 0x80000001"),
    ], ids=["bias_bit", "unknown_bit", "several_bits", "bias_and_high_bit"])
    def test_nonzero_flags_refused(self, tmp_path, layer_and_book, flags, message):
        # a bias-bit file from before the bias was removed still has its vector after the weights
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, *layer_and_book)
        data = bytearray(path.read_bytes())
        assert data[8:12] == bytes(4)
        data[8:12] = struct.pack("<I", flags)
        path.write_bytes(bytes(data) + bytes(8 * 6) * (flags == 1))
        with pytest.raises(CheckpointError, match=f"model.ffaw: {message}"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path, layer_and_book):
        path = tmp_path / "model.ffaw"
        save_checkpoint(path, *layer_and_book)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
