"""Golden fingerprints: the sha256 of what small runs of every trainer write.

``tests/golden.json`` holds, for each cell of a tiny ``perfbench/synth.py``
run, the sha256 of its ``model.ffaw``, its ``log.csv`` and its ``ffa export``
CSV.  The test retrains every cell through the CLI, compiled and on numpy,
and compares.  The oracle tests compare the two paths with each other; this
catches a change that moves an artifact by one bit on both.

The bits rest on numpy, the BLAS and the CPU, so the file holds one
``{key, cells}`` entry per environment, keyed by them; the test uses the
entry whose key matches this environment and skips, naming what differs,
only when none does.  ``PYTHONPATH=src python -m tests.test_golden``, run
from the repository root, writes this environment's entry and leaves the
others as they are; a change that means to move outputs regenerates every
entry it can and says in CHANGES which entries moved and why.
"""

import ctypes
import hashlib
import json
import subprocess
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ffa import _kernels, cli
from ffa.spiking import RESET_MODES, TRACE_KINDS
from perfbench import synth

GOLDEN = Path(__file__).with_name("golden.json")
ARTIFACTS = ("model.ffaw", "log.csv", "latents.csv")

CELLS = {
    **{f"analog-{prob}": {"experiment.model": "analog", "experiment.prob": prob}
       for prob in ("symmetric", "sigmoid")},
    **{f"{model}-sigmoid-relu-to_zero": {"experiment.model": model, "experiment.prob": "sigmoid"}
       for model in ("hebbian", "hebbian_online")},
    **{f"{model}-symmetric-{trace}-{reset}": {"experiment.model": model, "experiment.trace": trace,
                                              "lif.reset_mode": reset}
       for model in ("hebbian", "hebbian_online") for trace in TRACE_KINDS
       for reset in RESET_MODES},
    # At tau_e 0.75 a row folds at the third step of its 4-step plastic window and
    # again at its end, with a different (scale, decay) each time, so this cell sees
    # the order the compiled path applies queued folds in.  At the default 0.999
    # every fold is the same row-end fold.
    "hebbian_online-symmetric-relu-to_zero-tau_e_0.75": {"experiment.model": "hebbian_online",
                                                         "experiment.tau_e": 0.75},
}

CONFIG = """
[experiment]
epochs = 2
batch_size = 20
seed = 3
n_hidden = 20

[labels]
length = 10
codebook_seed = 5

[encoder]
steps = 12
active_window = 4

[paths]
data_dir = {data}
"""


def blas_threads():
    """The thread count of the OpenBLAS that numpy bundles; None for another BLAS."""
    for path in Path(np.__file__).parents[1].joinpath("numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))  # the library numpy already loaded
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def environment() -> dict:
    """What the artifacts' bits rest on: numpy, its BLAS and the compiler's native target."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        macros = _kernels.target(_kernels.compiler())
        target = hashlib.sha256(macros.encode()).hexdigest()[:16]
    except (OSError, subprocess.SubprocessError):
        target = None  # no compiler to ask
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads(), "target": target}


def write_fixture(directory: Path) -> Path:
    """A 60/30-image synthetic dataset and the config of every cell; returns the config."""
    synth.write_dataset(directory / "data", n_train=60, n_test=30, seed=11)
    config = directory / "config.ini"
    config.write_text(CONFIG.format(data=directory / "data"))
    return config


def run_cells(config: Path, out: Path, compiled: bool) -> dict:
    """Each cell trained and exported by the CLI into ``out``: the sha256 of its artifacts."""
    hashes = {}
    with pytest.MonkeyPatch.context() as mp:
        if not compiled:
            mp.setattr(_kernels, "library", lambda: None)
        for name, overrides in CELLS.items():
            run = out / name
            flags = ["--config", str(config), "--out-dir", str(run)]
            for key, value in overrides.items():
                flags += ["--set", f"{key}={value}"]
            assert cli.main(["train", *flags]) == 0, name
            assert cli.main(["export", *flags, "--checkpoint", str(run / "model.ffaw"),
                             "--output", str(run / "latents.csv")]) == 0, name
            hashes[name] = {artifact: hashlib.sha256((run / artifact).read_bytes()).hexdigest()
                            for artifact in ARTIFACTS}
    return hashes


@pytest.fixture(scope="module")
def fixture_config(tmp_path_factory):
    return write_fixture(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_artifacts_keep_their_golden_fingerprints(fixture_config, tmp_path, compiled):
    here = environment()
    entry = next((entry for entry in json.loads(GOLDEN.read_text()) if entry["key"] == here), None)
    if entry is None:
        pytest.skip(f"{GOLDEN.name} has no entry for this environment, {here}")
    if compiled and _kernels.library() is None:
        pytest.skip(f"the compiled kernels do not build with CC={_kernels.compiler()}")
    runs = _kernels.runs
    got = run_cells(fixture_config, tmp_path, compiled)
    assert (_kernels.runs > runs) == compiled
    assert got == entry["cells"]


def regenerate() -> None:
    """Write this environment's entry of ``tests/golden.json`` from this tree, once both
    paths agree on every hash; the other environments' entries stay as they are."""
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        config = write_fixture(directory)
        compiled, numpy = (run_cells(config, directory / name, name == "compiled")
                           for name in ("compiled", "numpy"))
        if compiled != numpy:
            raise SystemExit(f"compiled and numpy artifacts differ: "
                             f"{[cell for cell in CELLS if compiled[cell] != numpy[cell]]}")
    here = environment()
    others = [entry for entry in json.loads(GOLDEN.read_text()) if entry["key"] != here]
    entries = [*others, {"key": here, "cells": numpy}]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
