"""Seeded MNIST-shaped synthetic IDX files.

Real MNIST is not shipped with the repository, so the benchmark writes its
own 28x28 uint8 images in the standard IDX layout and the program reads them
through ``ffa.data.load_mnist`` like any other dataset.

Each class owns a few stroke-like prototypes (sums of elongated Gaussian
blobs).  An image is a shifted prototype of its class blended with a shifted
prototype of another class, plus coarse noise, so the classes overlap and
neither accuracy nor kNN separability saturates at 1.  One prototype per
class would make every class a tight cluster and pin separability at 1.0.
Each image is thresholded at its own quantile so that about 19% of the
pixels are nonzero with a mean intensity of about 0.13, as in MNIST; the
input spike rate of the rate encoder therefore matches MNIST's.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
N_CLASSES = 10
PROTOTYPES_PER_CLASS = 4
NONZERO_FRAC = 0.19
# Share of the nonzero pixels pushed to full intensity.
SATURATED_FRAC = 0.45
BLEND_MAX = 0.25
NOISE = 0.15
MASS_SPREAD = 0.05
MAX_SHIFT = 1
# Images rendered per draw, which bounds the float64 working set.
CHUNK = 5000
# The prototypes play the part of MNIST's digit shapes: fixed across seeds,
# so the task is equally hard for every seed and only the draws vary.
PROTOTYPE_SEED = 0x1D8

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    """[classes, prototypes, 28, 28] smooth stroke fields."""
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    protos = np.zeros((N_CLASSES, PROTOTYPES_PER_CLASS, SIDE, SIDE))
    # A class is defined by a set of anchor strokes; its prototypes jitter them.
    for c in range(N_CLASSES):
        anchors = rng.uniform(7.0, 21.0, size=(5, 2))
        angles = rng.uniform(0.0, np.pi, size=5)
        for k in range(PROTOTYPES_PER_CLASS):
            field = np.zeros((SIDE, SIDE))
            for (cy, cx), angle in zip(anchors + rng.normal(0.0, 1.5, (5, 2)), angles):
                a = angle + rng.normal(0.0, 0.3)
                u = (yy - cy) * np.cos(a) + (xx - cx) * np.sin(a)
                v = -(yy - cy) * np.sin(a) + (xx - cx) * np.cos(a)
                field += np.exp(-0.5 * ((u / 4.0) ** 2 + (v / 1.2) ** 2))
            protos[c, k] = field / field.max()
    return protos


def _shifted(protos: np.ndarray) -> np.ndarray:
    """Every prototype at every shift: [classes, prototypes * shifts, 784]."""
    shifts = range(-MAX_SHIFT, MAX_SHIFT + 1)
    out = [
        np.roll(protos, (dy, dx), axis=(2, 3)).reshape(N_CLASSES, PROTOTYPES_PER_CLASS, -1)
        for dy in shifts
        for dx in shifts
    ]
    return np.concatenate(out, axis=1)


def _render(templates: np.ndarray, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """uint8 [n, 784] images of the given labels."""
    n = labels.shape[0]
    n_templates = templates.shape[1]
    own = templates[labels, rng.integers(n_templates, size=n)]
    other_label = (labels + rng.integers(1, N_CLASSES, size=n)) % N_CLASSES
    other = templates[other_label, rng.integers(n_templates, size=n)]
    blend = rng.uniform(0.0, BLEND_MAX, size=(n, 1))
    coarse = rng.normal(0.0, NOISE, size=(n, 7, 7))
    noise = np.kron(coarse, np.ones((4, 4))).reshape(n, -1)
    field = (1.0 - blend) * own + blend * other + noise
    # Stroke mass varies per image, as digit thickness does in MNIST.
    nonzero = rng.uniform(NONZERO_FRAC - MASS_SPREAD, NONZERO_FRAC + MASS_SPREAD, size=(n, 1))
    ranked = np.sort(field, axis=1)
    last = field.shape[1] - 1
    lo = np.take_along_axis(ranked, np.round((1.0 - nonzero) * last).astype(int), axis=1)
    hi_rank = np.round((1.0 - nonzero * SATURATED_FRAC) * last).astype(int)
    hi = np.take_along_axis(ranked, hi_rank, axis=1)
    pixels = np.clip((field - lo) / (hi - lo), 0.0, 1.0)
    return np.round(pixels * 255.0).astype(np.uint8)


def _write_images(path: Path, images: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, images.shape[0], SIDE, SIDE))
        f.write(images.tobytes())


def _write_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


def write_dataset(directory: Path, n_train: int, n_test: int, seed: int) -> dict:
    """Write train and t10k IDX files; the same seed writes the same bytes.

    Returns pixel statistics of the train split (nonzero share and mean
    intensity in [0, 1]).
    """
    directory.mkdir(parents=True, exist_ok=True)
    templates = _shifted(_prototypes(np.random.default_rng(PROTOTYPE_SEED)))
    rng = np.random.default_rng([seed, 0xDA7A])
    stats = {}
    for split, n, img_name, lab_name in (
        ("train", n_train, TRAIN_IMAGES, TRAIN_LABELS),
        ("test", n_test, TEST_IMAGES, TEST_LABELS),
    ):
        labels = rng.integers(N_CLASSES, size=n)
        images = np.empty((n, SIDE * SIDE), dtype=np.uint8)
        for start in range(0, n, CHUNK):
            images[start:start + CHUNK] = _render(templates, labels[start:start + CHUNK], rng)
        _write_images(directory / img_name, images)
        _write_labels(directory / lab_name, labels)
        if split == "train":
            stats = {
                "pixel_nonzero_frac": float(np.count_nonzero(images) / images.size),
                "pixel_mean": float(images.mean() / 255.0),
            }
    return stats


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path)
    parser.add_argument("--train", type=int, required=True)
    parser.add_argument("--test", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(write_dataset(args.directory, args.train, args.test, args.seed)))
