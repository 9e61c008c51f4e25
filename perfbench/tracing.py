"""Span tracing around the program's public stage functions.

Each stage is wrapped at every name its callers look it up under (for
example ``ffa.spiking.plasticity_step``, not ``ffa._kernels``), so the
wrappers see the calls the program really makes.  Spans are kept in memory
as ``(id, parent_id, stage, start, end)`` and written out by the caller
once the run ends.  A stage whose function no longer exists is reported as
absent rather than failing the run; a patch point that vanished is listed
as missing, so a refactor that moves a call shows up as zero calls plus a
note instead of a crash.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
from collections import defaultdict


def _count_lif(counts, args, kwargs, result):
    spikes = args[2] if len(args) > 2 else kwargs["in_spikes"]
    counts["spiking.lif_step.rows"] += spikes.shape[0] if spikes.ndim == 2 else 1
    counts["spiking.input_spikes"] += float(spikes.sum())
    counts["spiking.input_slots"] += spikes.size
    counts["spiking.output_spikes"] += float(result.sum())
    counts["spiking.output_slots"] += result.size


def _count_plasticity(counts, args, kwargs, result):
    e, _, post, in_spikes = args[:4]
    # e and the weights are each read and written once; post and the spikes read.
    counts["kernels.plasticity_step.bytes_computed"] += 8 * (4 * e.size + post.size + in_spikes.size)


def _count_separability(counts, args, kwargs, result):
    dump = args[0] if args else kwargs["dump"]
    q = dump.latents.shape[0]
    counts["metrics.separability_index.distance_pairs"] += q * q


def _count_checkpoint(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["checkpoint.bytes"] += os.path.getsize(path)


# Stage name -> patch points (module, attribute) in the modules that call it.
STAGES = {
    "data.load_mnist": [("ffa.data", "load_mnist")],
    "data.batches": [("ffa.analog", "batches"), ("ffa.spiking", "batches")],
    "data.embed_batch": [("ffa.metrics", "embed_batch")],
    "analog.train_analog": [("ffa.analog", "train_analog")],
    "analog.forward_batch": [("ffa.analog", "forward_batch"), ("ffa.metrics", "forward_batch")],
    "analog.adam_step": [("ffa.analog", "adam_step")],
    "core.modulation_batch": [("ffa.analog", "modulation_batch"),
                              ("ffa.spiking", "modulation_batch")],
    "core.probability_batch": [("ffa.core", "probability_batch"),
                               ("ffa.spiking", "probability_batch")],
    "spiking.train_hebbian": [("ffa.spiking", "train_hebbian")],
    "spiking.run_sample": [("ffa.spiking", "run_sample")],
    "spiking.rate_encode": [("ffa.spiking", "rate_encode")],
    "spiking.lif_step": [("ffa.spiking", "lif_step")],
    "spiking.trace_step": [("ffa.spiking", "trace_step")],
    "spiking.eligibility_step": [("ffa.spiking", "eligibility_step")],
    "spiking.simulate_latents": [("ffa.metrics", "simulate_latents")],
    "kernels.plasticity_step": [("ffa.spiking", "plasticity_step")],
    "metrics.evaluate": [("ffa.metrics", "evaluate")],
    "metrics.accuracy": [("ffa.metrics", "accuracy")],
    "metrics.collect_latents": [("ffa.metrics", "collect_latents")],
    "metrics.hoyer_summary": [("ffa.metrics", "hoyer_summary")],
    "metrics.separability_index": [("ffa.metrics", "separability_index")],
    "checkpoint.save_checkpoint": [("ffa.checkpoint", "save_checkpoint")],
    "checkpoint.load_checkpoint": [("ffa.checkpoint", "load_checkpoint")],
}

GENERATOR_STAGES = {"data.batches"}

COUNTERS = {
    "spiking.lif_step": _count_lif,
    "kernels.plasticity_step": _count_plasticity,
    "metrics.separability_index": _count_separability,
    "checkpoint.save_checkpoint": _count_checkpoint,
}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.missing_patch_points: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = [0]
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, stage, fn):
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids
        uncounted = self.uncounted
        counter = COUNTERS.get(stage)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, stage, start, end))
            if counter is not None:
                try:
                    counter(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # A changed signature loses the count, not the run.
                    uncounted.add(stage)
            return result

        return traced

    def _wrap_generator(self, stage, fn):
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span_id = next(ids)
                parent = stack[-1]
                stack.append(span_id)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((span_id, parent, stage, start, end))
                counts[f"{stage}.samples"] += len(item)
                yield item

        return traced

    def install(self) -> None:
        for stage, points in STAGES.items():
            wrappers = {}
            found = False
            for module_name, attr in points:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing_patch_points.append(f"{module_name}.{attr}")
                    continue
                found = True
                # One wrapper per function object, shared by all its names.
                if id(original) not in wrappers:
                    wrap = self._wrap_generator if stage in GENERATOR_STAGES else self._wrap
                    wrappers[id(original)] = wrap(stage, original)
                self._patched.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
            if not found:
                self.absent.append(stage)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per stage: calls, inclusive seconds and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        out = {stage: {"calls": 0, "s": 0.0, "self_s": 0.0} for stage in STAGES}
        for span_id, _, stage, start, end in self.spans:
            row = out[stage]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
        return out
