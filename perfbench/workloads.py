"""The three benchmark workloads and what one repetition of each does.

A repetition is what a user does with ``ffa train`` followed by
``ffa eval``: load the IDX files, train one epoch, save and reload the
checkpoint, then ``metrics.evaluate`` on the eval split.  It calls the
program only through ``load_mnist``, ``train_analog``/``train_hebbian``,
``save_checkpoint``/``load_checkpoint`` and ``metrics.evaluate`` (plus the
config types and latent runners they take), each looked up on its module at
call time so a traced repetition sees the same calls.

Every workload runs at MNIST shape (784 pixels + 100 code bits -> 200
units) with the symmetric probability and, for the spiking trainers, the
relu output trace.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ffa.analog
import ffa.checkpoint
import ffa.data
import ffa.metrics
import ffa.spiking
from ffa.core import SymmetricProb
from ffa.spiking import SpikingConfig

# Fixed, so that a workload's seed only changes the generated data.
TRAIN_SEED = 0
K_NN = 5
REFERENCE_ROWS = 2000
# Query rows per distance block of the brute-force reference.
REFERENCE_BLOCK = 64


@dataclass(frozen=True)
class Workload:
    name: str
    trainer: str  # "analog", "batch" or "online"
    n_train: int
    n_test: int
    eta: float
    batch_size: int
    tau_e: float  # spiking trainers only
    # Well above the 0.1 chance level of ten classes.
    accuracy_floor: float
    why: str


# Sizes fit at least three repetitions into a 32-second run on two cores.
# analog and hebbian_online use the package's tuned eta (and tau_e); the batch
# trainer gets a larger eta and a shorter tau_e so that it learns visibly
# within 40 updates.  Accuracy floors sit well below every seed measured.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analog", "analog", n_train=20000, n_test=3000, eta=0.01, batch_size=50,
            tau_e=0.0, accuracy_floor=0.6,
            why="ADAM, sample construction and GEMMs in training; exact kNN is most of eval",
        ),
        Workload(
            "hebbian_online", "online", n_train=400, n_test=300, eta=0.03, batch_size=1,
            tau_e=0.999, accuracy_floor=0.2,
            why="B=1 online trainer; the dense 200x884 plasticity step dominates training",
        ),
        Workload(
            "hebbian_batch", "batch", n_train=2000, n_test=1000, eta=0.3, batch_size=50,
            tau_e=0.99, accuracy_floor=0.4,
            why="lockstep batch trainer and spiking scan; LIF GEMMs over [B, n] dominate",
        ),
    )
}


class OpFailed(Exception):
    """An operation raised; it has been counted and the repetition stops."""


class Ops:
    """Counts operations (phase calls and correctness checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark reports a failing phase, it does not crash
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc

    def check(self, name, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())
        return ok


def spiking_config(workload: Workload) -> SpikingConfig:
    # Package defaults: relu trace, 200 units, 24 timesteps of which 9 plastic.
    return SpikingConfig(tau_e=workload.tau_e)


def run_repetition(workload: Workload, data_dir: Path, model_path: Path, ops: Ops) -> dict:
    """One timed train -> save -> reload -> evaluate pass, then its checks."""
    prob = SymmetricProb()
    config = ffa.analog.TrainConfig(
        eta=workload.eta, batch_size=workload.batch_size, epochs=1, seed=TRAIN_SEED, prob_fn=prob
    )
    clock = time.perf_counter
    t0 = clock()
    train, test = ops.call("load_mnist", ffa.data.load_mnist, data_dir)
    codebook = ffa.data.LabelCodebook()
    data = ffa.data.ExperimentData(train, test, codebook)
    t1 = clock()
    if workload.trainer == "analog":
        layer, log = ops.call("train", ffa.analog.train_analog, config, data)
        runner = ffa.metrics.analog_runner()
    else:
        spiking = spiking_config(workload)
        layer, log = ops.call(
            "train", ffa.spiking.train_hebbian, config, data, workload.trainer, spiking
        )
        runner = ffa.metrics.spiking_runner(spiking, TRAIN_SEED)
    t2 = clock()
    ops.call("save_checkpoint", ffa.checkpoint.save_checkpoint, model_path, layer, codebook)
    loaded, loaded_book = ops.call("load_checkpoint", ffa.checkpoint.load_checkpoint, model_path)
    t3 = clock()
    report, dump = ops.call("evaluate", ffa.metrics.evaluate, loaded, test, loaded_book, runner, prob)
    t4 = clock()

    ops.check("weights_finite", bool(np.all(np.isfinite(layer.weights))))
    ops.check("reload_bitwise", _same_model(layer, codebook, loaded, loaded_book))
    ops.check(
        "accuracy_floor", report.accuracy >= workload.accuracy_floor,
        f"({report.accuracy:.4f} < {workload.accuracy_floor})",
    )
    return {
        "load_s": t1 - t0,
        "train_s": t2 - t1,
        "checkpoint_s": t3 - t2,
        "eval_s": t4 - t3,
        "run_s": t4 - t0,
        "train_images_per_s": len(train) / (t2 - t1),
        "eval_images_per_s": len(test) / (t4 - t3),
        "test_accuracy": report.accuracy,
        "separability": report.separability,
        "train_loss": log[-1].train_loss,
        "model_sha256": hashlib.sha256(model_path.read_bytes()).hexdigest(),
        "dump": dump,
    }


def _same_model(layer, codebook, loaded, loaded_book) -> bool:
    def raw(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    return (
        raw(layer.weights) == raw(loaded.weights)
        and raw(layer.bias) == raw(loaded.bias)
        and raw(layer.partition.pos_mask) == raw(loaded.partition.pos_mask)
        and raw(codebook.vectors) == raw(loaded_book.vectors)
    )


def reference_separability(latents: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Brute-force kNN label agreement: full sort, ties broken in index order.

    The squared distance is the textbook sum of squared differences taken in
    feature order.  The order is part of the definition: spiking latents are
    multiples of ``mu``, so many neighbour distances differ by one rounding
    step, and a pairwise or BLAS-style sum would reorder those neighbours.
    """
    q = latents.shape[0]
    features = np.ascontiguousarray(latents.T)
    matches = 0
    for start in range(0, q, REFERENCE_BLOCK):
        stop = min(start + REFERENCE_BLOCK, q)
        d = np.zeros((stop - start, q))
        diff = np.empty_like(d)
        for column in features:
            np.subtract(column[start:stop, None], column[None, :], out=diff)
            d += np.multiply(diff, diff, out=diff)
        d[np.arange(stop - start), np.arange(start, stop)] = np.inf
        index = np.broadcast_to(np.arange(q), d.shape)
        nearest = np.lexsort((index, d))[:, :k]
        matches += int((labels[nearest] == labels[start:stop, None]).sum())
    return matches / (q * k)


def check_separability(dump, ops: Ops) -> None:
    """``separability_index`` on a fixed sub-dump must equal the reference."""
    rows = min(REFERENCE_ROWS, dump.latents.shape[0])
    sub = ffa.metrics.LatentDump(dump.latents[:rows], dump.labels[:rows])
    got = ops.call("separability_index", ffa.metrics.separability_index, sub, K_NN)
    want = reference_separability(sub.latents, sub.labels, K_NN)
    ops.check("separability_reference", got == want, f"({got!r} != {want!r})")
