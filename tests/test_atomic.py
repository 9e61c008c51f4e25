import os
from types import SimpleNamespace

import numpy as np
import pytest

from ffa.analog import DenseLayer, EpochStats
from ffa.atomic import atomic_write
from ffa.checkpoint import save_checkpoint
from ffa.cli import write_epoch_log
from ffa.core import PolarityPartition
from ffa.data import LabelCodebook
from ffa.metrics import LatentDump, export_latents


class Boom(Exception):
    pass


class TestAtomicWrite:
    @pytest.mark.parametrize("mode,old,new", [("w", "old\n", "new"), ("wb", b"old\n", b"new")])
    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path, mode, old, new):
        target = tmp_path / "artifact"
        with atomic_write(target, mode) as f:
            f.write(old)
        with pytest.raises(Boom):
            with atomic_write(target, mode) as f:
                f.write(new)
                raise Boom
        assert (target.read_bytes() if mode == "wb" else target.read_text()) == old
        assert os.listdir(tmp_path) == ["artifact"]

    def test_success_replaces_with_usual_permissions(self, tmp_path):
        target = tmp_path / "artifact"
        target.write_text("old")
        with atomic_write(target) as f:
            f.write("new")
        assert target.read_text() == "new"
        assert os.listdir(tmp_path) == ["artifact"]
        plain = tmp_path / "plain"
        plain.write_text("x")
        assert target.stat().st_mode == plain.stat().st_mode

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            with atomic_write(tmp_path / "absent" / "artifact") as f:
                f.write("never")
        assert os.listdir(tmp_path) == []


def _layer():
    rng = np.random.default_rng(0)
    return DenseLayer(rng.standard_normal((4, 7)), PolarityPartition.split_halves(4))


def _stats(epoch, loss=0.5):
    return EpochStats(epoch, 1.0, 0.5, loss, 0.25)


# (write a valid artifact, write one that raises midway); the failing
# writers break on a value that only the later part of the file needs.
WRITERS = {
    "checkpoint": (
        lambda path: save_checkpoint(path, _layer(), LabelCodebook(length=9, seed=3)),
        lambda path: save_checkpoint(
            path,
            SimpleNamespace(n_in=7, n_out=4, partition=PolarityPartition.split_halves(4),
                            weights=np.full((4, 7), "x", dtype=object)),
            LabelCodebook(length=9, seed=3),
        ),
    ),
    "epoch_log": (
        lambda path: write_epoch_log(path, [_stats(0), _stats(1)]),
        lambda path: write_epoch_log(path, [_stats(0), _stats(1, loss="x")]),
    ),
    "latent_dump": (
        lambda path: export_latents(LatentDump(np.ones((3, 2)), np.arange(3)), path),
        lambda path: export_latents(
            SimpleNamespace(latents=np.array([[0.1, 0.2], [0.3, "x"]], dtype=object),
                            labels=np.arange(2)),
            path,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_artifact_write_that_raises_midway_keeps_previous_file(tmp_path, name):
    write_ok, write_broken = WRITERS[name]
    target = tmp_path / name
    write_ok(target)
    before = target.read_bytes()
    with pytest.raises((TypeError, ValueError)):
        write_broken(target)
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == [name]
