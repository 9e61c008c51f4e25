"""Dataset ingestion and contrastive batch construction.

MNIST is read from the standard IDX files (raw or gzipped) and its pixels
are kept as bytes; a batch turns only its own rows into floats.  Labels are
embedded into the input by appending a fixed random binary codeword per
class; positive rows carry the true label's codeword, negative rows a
deliberately wrong one.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DataError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

_TRAIN_IMAGES = ("train-images-idx3-ubyte", "train-images.idx3-ubyte")
_TRAIN_LABELS = ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte")
_TEST_IMAGES = ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte")
_TEST_LABELS = ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte")


@dataclass
class Dataset:
    """Flat images in [0, 1] plus integer labels in 0-9.

    ``images`` is stored as given when it is uint8, a byte p standing for
    p / 255 as in the IDX files; any other array is stored as float64.  Read
    float rows through :meth:`images_at`.
    """

    images: np.ndarray  # [N, D] uint8 (p / 255) or float64
    labels: np.ndarray  # [N] int64

    def __post_init__(self):
        images = np.asarray(self.images)
        self.images = images if images.dtype == np.uint8 else np.asarray(images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"images/labels shape mismatch: {self.images.shape} vs {self.labels.shape}"
            )
        if np.any((self.labels < 0) | (self.labels > 9)):
            raise DataError(f"labels outside 0-9: {np.setdiff1d(self.labels, range(10)).tolist()}")

    def __len__(self) -> int:
        return self.images.shape[0]

    def images_at(self, index) -> np.ndarray:
        """The float64 rows ``index`` selects: bytes become ``p / 255``, floats read as stored."""
        rows = self.images[index]
        return np.divide(rows, 255.0, dtype=np.float64) if rows.dtype == np.uint8 else rows


def _open_maybe_gzip(path: Path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_header(f, path: Path, n_fields: int) -> tuple[int, ...]:
    raw = f.read(4 * n_fields)
    if len(raw) != 4 * n_fields:
        raise DataError(f"{path}: truncated IDX header")
    return struct.unpack(f">{n_fields}i", raw)


def read_idx_images(path: Path) -> np.ndarray:
    """Parse an IDX3 image file into its [N, rows*cols] uint8 pixels, read in place."""
    path = Path(path)
    with _open_maybe_gzip(path) as f:
        magic, count, rows, cols = _read_header(f, path, 4)
        if magic != IMAGE_MAGIC:
            raise DataError(f"{path}: bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}")
        if min(count, rows, cols) < 0:
            raise DataError(f"{path}: negative image count or size {count}x{rows}x{cols}")
        expected = count * rows * cols
        try:
            pixels = np.empty(expected, dtype=np.uint8)
        except (MemoryError, ValueError) as exc:
            raise DataError(f"{path}: cannot hold the {expected} pixel bytes the header "
                            "claims") from exc
        view, filled = memoryview(pixels), 0
        while filled < expected and (n := f.readinto(view[filled:])):
            filled += n
        if filled == expected:
            filled += len(f.read())
    if filled != expected:
        raise DataError(f"{path}: expected {expected} pixel bytes, found {filled}")
    return pixels.reshape(count, rows * cols)


def read_idx_labels(path: Path) -> np.ndarray:
    """Parse an IDX1 label file into a [N] int64 array."""
    path = Path(path)
    with _open_maybe_gzip(path) as f:
        magic, count = _read_header(f, path, 2)
        if magic != LABEL_MAGIC:
            raise DataError(f"{path}: bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}")
        payload = f.read()
    if len(payload) != count:
        raise DataError(f"{path}: expected {count} label bytes, found {len(payload)}")
    labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() > 9):
        raise DataError(f"{path}: labels outside 0-9")
    return labels


def _find_file(directory: Path, names: tuple[str, ...]) -> Path:
    for name in names:
        for candidate in (directory / name, directory / (name + ".gz")):
            if candidate.is_file():
                return candidate
    raise DataError(f"none of {names} (or .gz) found in {directory}")


_SPLITS = {
    "train": (_TRAIN_IMAGES, _TRAIN_LABELS),
    "test": (_TEST_IMAGES, _TEST_LABELS),
}


def _split_files(directory: Path, split: str) -> tuple[Path, Path]:
    """The image and label files of ``split`` ("train" or "test") in ``directory``."""
    if split not in _SPLITS:
        raise DataError(f"unknown split {split!r}; expected one of {sorted(_SPLITS)}")
    if not directory.is_dir():
        raise DataError(f"dataset directory not found: {directory}")
    image_names, label_names = _SPLITS[split]
    return _find_file(directory, image_names), _find_file(directory, label_names)


def load_split(path, split: str) -> Dataset:
    """Load one split ("train" or "test") from a directory of IDX files, its pixels as bytes."""
    image_path, label_path = _split_files(Path(path), split)
    images = read_idx_images(image_path)
    labels = read_idx_labels(label_path)
    if images.shape[0] != labels.shape[0]:
        raise DataError(
            f"{image_path} has {images.shape[0]} images but {label_path} has "
            f"{labels.shape[0]} labels"
        )
    if images.shape[0] == 0:
        raise DataError(f"{image_path}: the split has no images")
    return Dataset(images, labels)


def load_mnist(path) -> tuple[Dataset, Dataset]:
    """Load the train and test splits from a directory of IDX files; their widths must agree."""
    train, test = load_split(path, "train"), load_split(path, "test")
    if train.images.shape[1] != test.images.shape[1]:
        train_file, test_file = (_split_files(Path(path), split)[0] for split in ("train", "test"))
        raise DataError(
            f"{train_file} has images of {train.images.shape[1]} pixels but {test_file} "
            f"has images of {test.images.shape[1]}; both splits must have the same size"
        )
    return train, test


# A codebook gives up after this many draws (under a second at length 100):
# a density too sparse for ten distinct codewords would otherwise redraw forever.
MAX_CODEBOOK_DRAWS = 10_000


def _repeated_codeword(vectors: np.ndarray) -> tuple[int, int] | None:
    """The first (i, j), j < i, with codeword i equal to codeword j; None if all differ."""
    rows = [v.tobytes() for v in vectors]
    return next(((i, rows.index(row)) for i, row in enumerate(rows) if rows.index(row) < i), None)


class LabelCodebook:
    """Ten fixed binary codewords appended to the image to embed a label.

    Codewords are drawn once, Bernoulli(p) per bit; if any two classes
    collide the whole book is redrawn with the seed incremented, so the
    label embedding is always injective.  After ``MAX_CODEBOOK_DRAWS``
    draws without ten distinct codewords it is a DataError.
    """

    def __init__(self, length: int = 100, density: float = 0.3, seed: int = 101):
        if length < 4:
            raise DataError("codeword length must be >= 4 (ten distinct codewords needed)")
        if not 0.0 < density < 1.0:
            raise DataError("codeword density must be in (0, 1)")
        if seed < 0:
            raise DataError("codebook seed must be >= 0")
        self.length = length
        self.density = density
        for draw_seed in range(seed, seed + MAX_CODEBOOK_DRAWS):
            rng = np.random.default_rng(draw_seed)
            vectors = (rng.random((10, length)) < density).astype(np.float64)
            if _repeated_codeword(vectors) is None:
                self.seed, self.vectors = draw_seed, vectors
                return
        raise DataError(
            f"no ten distinct codewords of length {length} at density {density} "
            f"in {MAX_CODEBOOK_DRAWS} draws from seed {seed}"
        )

    @classmethod
    def from_vectors(cls, vectors: np.ndarray, density: float, seed: int) -> "LabelCodebook":
        book = cls.__new__(cls)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape[0] != 10:
            raise DataError(f"codebook must have 10 codewords, got {vectors.shape[0]}")
        repeat = _repeated_codeword(vectors)
        if repeat is not None:
            raise DataError("codeword {} repeats codeword {}; labels must embed distinctly"
                            .format(*repeat))
        book.length = vectors.shape[1]
        book.density = density
        book.seed = seed
        book.vectors = vectors
        return book

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelCodebook) and np.array_equal(self.vectors, other.vectors)


def embed_batch(images: np.ndarray, labels, codebook: LabelCodebook) -> np.ndarray:
    """Append to every row of an image stack the codeword of one label, or of its own label."""
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.size and not 0 <= labels.min() <= labels.max() <= 9:
        bad = labels[(labels < 0) | (labels > 9)].flat[0]
        raise DataError(f"label {bad} outside 0-9")
    suffix = np.broadcast_to(codebook.vectors[labels], (images.shape[0], codebook.length))
    return np.hstack([images, suffix])


def pair_codes(rows: int) -> np.ndarray:
    """Polarity codes of a :class:`PairBatch`'s rows: +1 on even rows, -1 on odd rows."""
    codes = np.ones(rows, dtype=np.int8)
    codes[1::2] = -1
    return codes


@dataclass(frozen=True)
class PairBatch:
    """m contrastive pairs: ``images`` [m, D] and their (true, wrong) ``labels`` [m, 2].

    The batch stands for 2m rows.  Row 2i is image i with its true label's
    codeword appended, row 2i + 1 the same image with the wrong label's.
    Both rows share the image, so the analog trainer projects it once and
    only the spiking trainer builds the rows themselves (:meth:`rows`).
    """

    images: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        """The number of rows, two per image."""
        return self.labels.size

    def codewords(self, codebook: LabelCodebook) -> np.ndarray:
        """The code part of every row [2m, codebook.length]."""
        return codebook.vectors[self.labels.ravel()]

    def rows(self, codebook: LabelCodebook) -> np.ndarray:
        """The rows themselves [2m, D + codebook.length]."""
        return embed_batch(np.repeat(self.images, 2, axis=0), self.labels.ravel(), codebook)


def batches(dataset: Dataset, k: int, seed: int, epoch: int) -> Iterator[PairBatch]:
    """Yield shuffled batches of k (positive, negative) pairs for one epoch.

    Each batch holds m images (m = k except in the last batch), each with its
    true label and a wrong label drawn uniformly from the other nine;
    ``pair_codes(len(batch))`` gives the polarity codes of its rows.  The
    shuffle and the wrong-label draws are reproducible functions of
    (seed, epoch), so distinct epochs see distinct permutations.
    """
    if k < 1:
        raise DataError("batch size must be >= 1")
    rng = np.random.default_rng([seed, epoch, 0xBA7C4])
    order = rng.permutation(len(dataset))
    for start in range(0, len(order), k):
        chunk = order[start : start + k]
        labels = dataset.labels[chunk]
        draw = rng.integers(9, size=chunk.size)
        wrong = draw + (draw >= labels)
        yield PairBatch(dataset.images_at(chunk), np.stack([labels, wrong], axis=1))


@dataclass
class ExperimentData:
    """Prepared train/test splits plus the shared label codebook."""

    train: Dataset
    test: Dataset
    codebook: LabelCodebook

    @property
    def input_dim(self) -> int:
        return self.train.images.shape[1] + self.codebook.length
