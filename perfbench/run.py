"""Benchmark of the ffa trainers: end-to-end metrics and a traced per-stage breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload analog --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` seconds and
reports the end-to-end metrics as medians over the repetitions, plus
``setup_s`` as the median of several cold set-ups in fresh processes.
``--trace 1`` alternates untraced and traced repetitions and reports, per
stage, calls, inclusive and self seconds, the stage counters and the
tracing overhead.  ``--workload all`` runs every workload in turn.

Inputs are seeded synthetic MNIST-shaped IDX files (see ``synth.py``),
written under ``.perfbench_out/`` together with a run record and, for traced
runs, the recorded spans.  Every metric is printed as ``name: value unit``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7
MIN_REPETITIONS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "train_images_per_s": "img/s",
    "eval_images_per_s": "img/s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "separability": "fraction",
    "train_loss": "nats",
}
EXTRA_LAYER_UNITS = {
    "data.batches.samples": "count",
    "spiking.lif_step.rows_per_call": "count",
    "kernels.plasticity_step.bytes_computed": "bytes",
    "metrics.separability_index.distance_pairs": "count",
    "checkpoint.bytes": "bytes",
    "spiking.input_spike_frac": "fraction",
    "spiking.output_spike_frac": "fraction",
    "trace.overhead_s": "s",
}


def _limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable cores before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 0 < current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _generate(workload, data_dir: Path, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "synth.py"), str(data_dir), "--train", str(workload.n_train),
         "--test", str(workload.n_test), "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout)


def _setup_once(data_dir: Path) -> float:
    """Process start to data ready (import, load_mnist, codebook), in seconds."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(data_dir)],
        stdout=subprocess.PIPE, text=True,
    ) as probe:
        try:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            if probe.wait(timeout=CHILD_TIMEOUT_S) != 0 or not line.startswith("ready"):
                raise RuntimeError(f"setup probe failed with code {probe.returncode}")
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
    return elapsed


def _run_record(args, workload, pixel_stats: dict, nproc: int) -> dict:
    import numpy as np
    import scipy

    import ffa

    try:
        from ffa import _kernels
        numba_active = bool(getattr(_kernels, "_HAVE_NUMBA", False))
    except ImportError:
        numba_active = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_train": workload.n_train,
        "n_test": workload.n_test,
        "nproc": nproc,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "numba_active": numba_active,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ffa": getattr(ffa, "__version__", None),
        "git_commit": _git_commit(),
        "data": pixel_stats,
    }


def _median(rows: list[dict], key: str) -> float:
    return float(statistics.median(row[key] for row in rows))


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(tracer) -> dict[str, float]:
    out = {}
    for stage, row in tracer.summary().items():
        out[f"{stage}.calls"] = row["calls"]
        out[f"{stage}.s"] = row["s"]
        out[f"{stage}.self_s"] = row["self_s"]
    c = tracer.counts
    lif_calls = out["spiking.lif_step.calls"]
    out["data.batches.samples"] = c["data.batches.samples"]
    out["spiking.lif_step.rows_per_call"] = c["spiking.lif_step.rows"] / lif_calls if lif_calls else 0.0
    out["kernels.plasticity_step.bytes_computed"] = c["kernels.plasticity_step.bytes_computed"]
    out["metrics.separability_index.distance_pairs"] = c["metrics.separability_index.distance_pairs"]
    out["checkpoint.bytes"] = c["checkpoint.bytes"]
    in_slots, out_slots = c["spiking.input_slots"], c["spiking.output_slots"]
    out["spiking.input_spike_frac"] = c["spiking.input_spikes"] / in_slots if in_slots else 0.0
    out["spiking.output_spike_frac"] = c["spiking.output_spikes"] / out_slots if out_slots else 0.0
    return out


def per_layer_units() -> dict[str, str]:
    from tracing import STAGES

    units = {}
    for stage in STAGES:
        units[f"{stage}.calls"] = "count"
        units[f"{stage}.s"] = "s"
        units[f"{stage}.self_s"] = "s"
    units.update(EXTRA_LAYER_UNITS)
    return units


def _measure_untraced(workload, data_dir, model_path, seconds, ops):
    from workloads import run_repetition

    reps = []
    start = time.perf_counter()
    while True:
        rep = run_repetition(workload, data_dir, model_path, ops)
        if reps:
            ops.check("rerun_identical", rep["model_sha256"] == reps[0]["model_sha256"])
            # Only the first latent dump is checked; keeping the others would
            # make peak RSS grow with the number of repetitions.
            del rep["dump"]
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPETITIONS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    peak_rss = _peak_rss_mb()
    probes = [ops.call("setup", _setup_once, data_dir) for _ in range(SETUP_PROBES)]
    metrics = {key: _median(reps, key) for key in END_TO_END if key in reps[0]}
    metrics["setup_s"] = float(statistics.median(probes))
    metrics["peak_rss_mb"] = peak_rss
    details = {"repetitions": [_public(r) for r in reps], "setup_probes_s": probes}
    return metrics, reps[0], details


def _measure_traced(workload, data_dir, model_path, seconds, ops, spans_path):
    from tracing import Tracer
    from workloads import run_repetition

    plain, traced, layer_rows, all_spans = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_repetition(workload, data_dir, model_path, ops))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_repetition(workload, data_dir, model_path, ops))
        finally:
            tracer.uninstall()
        ops.check("traced_model_identical",
                  traced[-1]["model_sha256"] == plain[-1]["model_sha256"])
        del traced[-1]["dump"]
        if len(plain) > 1:
            del plain[-1]["dump"]
        layer_rows.append(_layer_metrics(tracer))
        all_spans.append(tracer.spans)
        elapsed = time.perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            break
    metrics = {key: _median(layer_rows, key) for key in layer_rows[0]}
    metrics["trace.overhead_s"] = _median(traced, "run_s") - _median(plain, "run_s")
    spans_path.write_text(json.dumps({
        "fields": ["id", "parent_id", "stage", "start_s", "end_s"],
        "repetitions": all_spans,
    }))
    details = {
        "untraced": [_public(r) for r in plain],
        "traced": [_public(r) for r in traced],
        "absent_stages": tracer.absent,
        "missing_patch_points": tracer.missing_patch_points,
        "uncounted_stages": sorted(tracer.uncounted),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, plain[0], details


def _public(rep: dict) -> dict:
    return {k: (float(v) if isinstance(v, float) else v) for k, v in rep.items() if k != "dump"}


def run_one(args, nproc: int) -> int:
    from workloads import WORKLOADS, OpFailed, Ops, check_separability

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    data_dir = out_dir / "data"
    out_dir.mkdir(parents=True, exist_ok=True)
    pixel_stats = _generate(workload, data_dir, args.seed)
    record = _run_record(args, workload, pixel_stats, nproc)
    print("run record: " + json.dumps(record), flush=True)

    ops = Ops()
    model_path = out_dir / "model.ffaw"
    metrics, details, accuracy = {}, {}, float("nan")
    try:
        if args.trace:
            spans_path = out_dir / f"spans-seed{args.seed}.json"
            metrics, first, details = _measure_traced(
                workload, data_dir, model_path, args.seconds, ops, spans_path)
            units = per_layer_units()
        else:
            metrics, first, details = _measure_untraced(
                workload, data_dir, model_path, args.seconds, ops)
            units = END_TO_END
        accuracy = first["test_accuracy"]
        check_separability(first["dump"], ops)
    except OpFailed:
        units = {}
    for error in ops.errors:
        print(f"error: {error}", file=sys.stderr)

    failed_frac = ops.failed / max(ops.attempted, 1)
    correct = ops.failed == 0 and ops.attempted > 0
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    record.update(details, test_accuracy=accuracy, ops_failed_frac=failed_frac,
                  errors=ops.errors, result=result)
    (out_dir / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for name, entry in result["metrics"].items():
        print(f"{workload.name} {name}: {entry['value']:.6g} {entry['unit']}")
    # Printed, gated by the accuracy floor, but not a bounded metric: on
    # hebbian_online its spread across seeds exceeds any allowed bound.
    print(f"{workload.name} test_accuracy: {accuracy:.6g} fraction")
    print(f"{workload.name} ops_failed_frac: {failed_frac:.6g} fraction "
          f"({ops.failed} of {ops.attempted})")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 120,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the ffa trainers.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = _limit_blas_threads()
    if not (SRC / "ffa" / "__init__.py").is_file():
        print(f"error: the ffa package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
