"""The benchmark's calls into the package, run at a tiny size.

``perfbench/workloads.py`` calls the package the way ``ffa train`` and
``ffa eval`` do.  A change to what it calls (the latent dump, the runners,
the trainers, the layer) would otherwise first show as a failed benchmark
operation; here each workload runs once on 60 train and 30 test images.
"""

import dataclasses

import pytest

from perfbench import synth, workloads


@pytest.fixture(scope="module")
def bench_data(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench-data")
    synth.write_dataset(directory, n_train=60, n_test=30, seed=7)
    return directory


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_repetition_fails_no_operation(bench_data, tmp_path, name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], n_train=60, n_test=30,
                                   accuracy_floor=0.0)
    ops = workloads.Ops()
    result = workloads.run_repetition(workload, bench_data, tmp_path / "model.ffaw", ops)
    workloads.check_separability(result["dump"], ops)
    assert ops.failed == 0, ops.errors
    assert ops.attempted > 0
