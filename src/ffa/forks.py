"""One fork map for independent work: the spiking scan's label passes and the CLI sweeps.

Item ``i`` of a map over ``W`` workers runs in worker ``i % W``.  Worker 0 is
the caller; workers 1 to W-1 are forked children, each of which streams its
results in order over its own pipe.  The caller's own thread reads the pipes,
so no result-handler thread holds finished results (with
``multiprocessing.Pool.imap`` that raised peak RSS with every map).  Results
come back in item order, and a map started inside a worker's item runs
serially, so the scans of a forked sweep do not fork again.

Forking, not spawning, is the point: a child inherits the function, its
closure and the arrays it reads without pickling or re-importing anything;
only results cross the pipes.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import FFAError

T = TypeVar("T")
R = TypeVar("R")

# True while this process runs an item of a forked map.
_in_worker = False


def _serve(fn: Callable[[T], R], items: list[T], conn) -> None:
    """A child's loop: each result in order, or the first exception, over ``conn``."""
    global _in_worker
    _in_worker = True
    try:
        for item in items:
            conn.send((True, fn(item)))
    except Exception as exc:  # the caller raises it; a child has no one else to report to
        try:
            conn.send((False, exc))
        except Exception:  # the exception does not pickle
            conn.send((False, FFAError(f"{type(exc).__name__}: {exc}")))
    finally:
        conn.close()


def _run_item(fn: Callable[[T], R], item: T) -> R:
    """``fn(item)`` in the caller, as worker 0, with nested maps serial."""
    global _in_worker
    outer, _in_worker = _in_worker, True
    try:
        return fn(item)
    finally:
        _in_worker = outer


def _start_worker(ctx, fn: Callable[[T], R], items: list[T]):
    """Fork one child that serves ``items``; returns the process and the read end of its pipe."""
    reader, writer = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_serve, args=(fn, items, writer), daemon=True)
    process.start()
    writer.close()
    return process, reader


def _receive(process, reader):
    try:
        ok, value = reader.recv()
    except EOFError:
        process.join()
        raise FFAError(f"a forked worker exited with code {process.exitcode} before its result")
    if not ok:
        raise value
    return value


def fork_map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[R]:
    """Yield ``fn(item)`` for every item, in order, over ``min(workers, len(items))`` workers.

    One worker, or a map started inside another map's item, runs in the
    caller.  An exception raised by any item is raised here.  Children are
    reaped when the map ends, raises or is dropped unfinished.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1 or _in_worker:
        yield from map(fn, items)
        return
    ctx = multiprocessing.get_context("fork")
    children = []
    finished = False
    try:
        for w in range(1, workers):
            children.append(_start_worker(ctx, fn, items[w::workers]))
        for i, item in enumerate(items):
            w = i % workers
            yield _receive(*children[w - 1]) if w else _run_item(fn, item)
        finished = True
    finally:
        for process, reader in children:
            reader.close()
            if not finished:
                process.terminate()
            process.join()
