import multiprocessing
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ffa.data import Dataset, ExperimentData, LabelCodebook

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled kernels into a directory of this session, never the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture()
def numpy_path(monkeypatch):
    """Run the numpy rules: the compiled kernels count as unavailable."""
    from ffa import _kernels

    monkeypatch.setattr(_kernels, "library", lambda: None)


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process running, after stopping the children."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    if left:
        pytest.fail(f"the test left {len(left)} child process(es) running")


def make_synthetic(
    n_train: int,
    n_test: int,
    dim: int = 100,
    seed: int = 1,
    n_classes: int = 10,
) -> tuple[Dataset, Dataset]:
    """Learnable toy task: each class is a noisy fixed binary prototype."""
    rng = np.random.default_rng(seed)
    protos = (rng.random((n_classes, dim)) < 0.18).astype(float)

    def draw(n):
        labels = rng.integers(0, n_classes, size=n)
        images = protos[labels] * rng.uniform(0.55, 1.0, size=(n, dim))
        images += rng.uniform(0.0, 0.08, size=(n, dim))
        return Dataset(np.clip(images, 0.0, 1.0), labels)

    return draw(n_train), draw(n_test)


@pytest.fixture(scope="session")
def small_data() -> ExperimentData:
    train, test = make_synthetic(800, 300, dim=60, seed=4)
    book = LabelCodebook(length=16, density=0.3, seed=9)
    return ExperimentData(train, test, book)


@pytest.fixture(scope="session")
def synthetic_data() -> ExperimentData:
    train, test = make_synthetic(2000, 600, dim=100, seed=1)
    book = LabelCodebook(length=20, density=0.3, seed=7)
    return ExperimentData(train, test, book)


# --- IDX fixture files ------------------------------------------------------


def write_idx_images(path: Path, images: np.ndarray) -> None:
    """images: uint8 [N, rows, cols]."""
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def write_idx_dataset(directory: Path, train: Dataset, test: Dataset, side: int) -> Path:
    """Materialize two Dataset splits as standard IDX files."""
    directory.mkdir(parents=True, exist_ok=True)

    def to_u8(ds: Dataset) -> np.ndarray:
        return np.round(ds.images * 255.0).astype(np.uint8).reshape(-1, side, side)

    write_idx_images(directory / "train-images-idx3-ubyte", to_u8(train))
    write_idx_labels(directory / "train-labels-idx1-ubyte", train.labels)
    write_idx_images(directory / "t10k-images-idx3-ubyte", to_u8(test))
    write_idx_labels(directory / "t10k-labels-idx1-ubyte", test.labels)
    return directory


@pytest.fixture()
def idx_dataset_dir(tmp_path) -> Path:
    """Small on-disk dataset in the standard IDX layout (6x6 images)."""
    train, test = make_synthetic(160, 80, dim=36, seed=5)
    return write_idx_dataset(tmp_path / "data", train, test, side=6)


# --- real MNIST gating ------------------------------------------------------

MNIST_ENV = "FFA_MNIST_DIR"


def mnist_dir() -> Path | None:
    path = Path(os.environ.get(MNIST_ENV, "data/mnist"))
    names = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    for name in names:
        if not ((path / name).is_file() or (path / (name + ".gz")).is_file()):
            return None
    return path


def require_mnist() -> Path:
    path = mnist_dir()
    if path is None:
        pytest.skip(
            f"MNIST IDX files not found (set ${MNIST_ENV} or place them in data/mnist); "
            "this criterion trains on the real dataset"
        )
    return path
