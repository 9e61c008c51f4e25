"""Dataset ingestion and contrastive batch construction.

MNIST is read from the standard IDX files (raw or gzipped).  Labels are
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
    """Flat images in [0, 1] plus integer labels in 0-9."""

    images: np.ndarray  # [N, D] float64
    labels: np.ndarray  # [N] int64

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"images/labels shape mismatch: {self.images.shape} vs {self.labels.shape}"
            )
        if np.any((self.labels < 0) | (self.labels > 9)):
            raise DataError(f"labels outside 0-9: {np.setdiff1d(self.labels, range(10)).tolist()}")

    def __len__(self) -> int:
        return self.images.shape[0]


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
    """Parse an IDX3 image file into a [N, rows*cols] float64 array in [0, 1]."""
    path = Path(path)
    with _open_maybe_gzip(path) as f:
        magic, count, rows, cols = _read_header(f, path, 4)
        if magic != IMAGE_MAGIC:
            raise DataError(f"{path}: bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}")
        payload = f.read()
    expected = count * rows * cols
    if len(payload) != expected:
        raise DataError(f"{path}: expected {expected} pixel bytes, found {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    return pixels.astype(np.float64) / 255.0


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


def _load_split(directory: Path, image_names, label_names) -> Dataset:
    image_path = _find_file(directory, image_names)
    label_path = _find_file(directory, label_names)
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
    """Load the train and test splits from a directory of IDX files."""
    directory = Path(path)
    if not directory.is_dir():
        raise DataError(f"dataset directory not found: {directory}")
    train = _load_split(directory, _TRAIN_IMAGES, _TRAIN_LABELS)
    test = _load_split(directory, _TEST_IMAGES, _TEST_LABELS)
    return train, test


class LabelCodebook:
    """Ten fixed binary codewords appended to the image to embed a label.

    Codewords are drawn once, Bernoulli(p) per bit; if any two classes
    collide the whole book is redrawn with the seed incremented, so the
    label embedding is always injective.
    """

    def __init__(self, length: int = 100, density: float = 0.3, seed: int = 101):
        if length < 4:
            raise DataError("codeword length must be >= 4 (ten distinct codewords needed)")
        if not 0.0 < density < 1.0:
            raise DataError("codeword density must be in (0, 1)")
        self.length = length
        self.density = density
        self.seed = seed
        while True:
            rng = np.random.default_rng(self.seed)
            vectors = (rng.random((10, length)) < density).astype(np.float64)
            if len({v.tobytes() for v in vectors}) == 10:
                break
            self.seed += 1
        self.vectors = vectors

    @classmethod
    def from_vectors(cls, vectors: np.ndarray, density: float, seed: int) -> "LabelCodebook":
        book = cls.__new__(cls)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape[0] != 10:
            raise DataError(f"codebook must have 10 codewords, got {vectors.shape[0]}")
        book.length = vectors.shape[1]
        book.density = density
        book.seed = seed
        book.vectors = vectors
        return book

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelCodebook) and np.array_equal(self.vectors, other.vectors)


def check_labels(labels) -> np.ndarray:
    """``labels`` (one or an array) as an array, after checking each lies in 0-9."""
    labels = np.asarray(labels)
    if labels.size and not 0 <= labels.min() <= labels.max() <= 9:
        bad = labels[(labels < 0) | (labels > 9)].flat[0]
        raise DataError(f"label {bad} outside 0-9")
    return labels


def embed_batch(images: np.ndarray, labels, codebook: LabelCodebook) -> np.ndarray:
    """Append to every row of an image stack the codeword of one label, or of its own label."""
    images = np.asarray(images, dtype=np.float64)
    labels = check_labels(labels)
    suffix = np.broadcast_to(codebook.vectors[labels], (images.shape[0], codebook.length))
    return np.hstack([images, suffix])


def pair_codes(rows: int) -> np.ndarray:
    """Polarity codes of a :func:`batches` array: +1 on even rows, -1 on odd rows."""
    codes = np.ones(rows, dtype=np.int8)
    codes[1::2] = -1
    return codes


def batches(
    dataset: Dataset, codebook: LabelCodebook, k: int, seed: int, epoch: int
) -> Iterator[np.ndarray]:
    """Yield shuffled batches of k (positive, negative) pairs for one epoch.

    Each batch is one array ``X`` [2m, n_in] (m = k except in the last batch).
    Row 2i is an image with its true label's codeword and row 2i+1 the same
    image with a wrong label drawn uniformly from the other nine;
    ``pair_codes(len(X))`` gives their polarity codes.  The shuffle and the
    wrong-label draws are reproducible functions of (seed, epoch), so
    distinct epochs see distinct permutations.
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
        rows = np.stack([labels, wrong], axis=1).ravel()
        yield embed_batch(np.repeat(dataset.images[chunk], 2, axis=0), rows, codebook)


@dataclass
class ExperimentData:
    """Prepared train/test splits plus the shared label codebook."""

    train: Dataset
    test: Dataset
    codebook: LabelCodebook

    @property
    def input_dim(self) -> int:
        return self.train.images.shape[1] + self.codebook.length
