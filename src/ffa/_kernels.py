"""Compiled forms of two overhead-bound loops, bitwise equal to their numpy rules.

``_kernels.c`` holds one plastic B = 1 sample of the event-driven spiking path
of :func:`ffa.spiking.simulate` and one fused :func:`ffa.analog.adam_step`.
numpy stays the rule and the oracle: each C loop performs the same IEEE
operations in the same order, numpy's pairwise summation included, so it
gives the numpy path's bits.

The source is compiled on first use with the system C compiler (``$CC``,
default ``cc``) into ``$XDG_CACHE_HOME/ffa`` (default ``~/.cache/ffa``, else a
per-user directory under the temp directory), one library per source,
compiler command, flags and target.  The target is what the compiler
predefines under ``-march=native``: the CPU features a build may use and the
compiler's version, so a cache shared between machines never hands one
machine a library built for another CPU.  A cache directory is used only if
it is a real directory of this user that no other user can write, since a
library in it is loaded and run.  ``-ffp-contract=off`` is required: without it the
compiler fuses a multiply and an add into one FMA, which rounds once where
numpy rounds twice.  ``-ffast-math`` would reorder sums and is never used.
``-fno-math-errno`` only stops ``sqrt`` from setting ``errno``, which lets
the ADAM loop vectorize; the square root stays correctly rounded.
A library is written under a temporary name, followed by the sha256 of its
bytes, and moved into place; a cached file whose trailer does not match is
rebuilt.  When no compiler works, :func:`library` logs why once and returns
None, and the callers run numpy.

Importing this module compiles and loads nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import shlex
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.ctypeslib import ndpointer

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 120
_DIGEST_BYTES = 32

runs = 0
"""How many compiled kernel calls this process has made."""

_doubles = ndpointer(np.float64, flags="C_CONTIGUOUS")
_synapses = ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
_offsets = ndpointer(np.intp, flags="C_CONTIGUOUS")
_SIGNATURES = {
    "ffa_online_sample": [ctypes.c_ssize_t] * 5 + [
        _doubles, _offsets, _doubles, ndpointer(np.bool_, flags="C_CONTIGUOUS"), ctypes.c_int,
    ] + [ctypes.c_double] * 8 + [_synapses, _synapses, _doubles, _doubles, _offsets],
    "ffa_adam": [ctypes.c_ssize_t] + [_doubles] * 4 + [ctypes.c_double] * 6,
}


def compiler() -> str:
    """The C compiler command: ``$CC``, default ``cc``."""
    return os.environ.get("CC") or "cc"


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/ffa`` (default ``~/.cache/ffa``), else ``ffa-<uid>`` under the temp dir."""
    candidates = [Path(tempfile.gettempdir()) / f"ffa-{os.getuid()}"]
    with contextlib.suppress(RuntimeError):  # no home directory to default to
        base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        candidates.insert(0, Path(base) / "ffa")
    for directory in candidates:
        with contextlib.suppress(OSError):
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if _private(directory) and os.access(directory, os.W_OK):
                return directory
    raise OSError(f"no private writable cache directory among {[str(d) for d in candidates]}")


def _private(directory: Path) -> bool:
    """Whether ``directory`` is a directory, not a symlink, of this user, writable by no other."""
    st = os.lstat(directory)
    return stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


@functools.cache
def target(cc: str) -> str:
    """The macros ``cc`` predefines under ``-march=native``, sorted: the CPU
    features a native build may use and the compiler's version."""
    done = subprocess.run([*shlex.split(cc), "-march=native", "-dM", "-E", "-x", "c", os.devnull],
                          check=True, capture_output=True, timeout=COMPILE_TIMEOUT_S)
    return "\n".join(sorted(done.stdout.decode(errors="replace").splitlines()))


def library_path(directory: Path, cc: str) -> Path:
    """Where the library built by ``cc`` from the current source for this target is cached."""
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), cc.encode(), " ".join(FLAGS).encode(), target(cc).encode()):
        key.update(hashlib.sha256(part).digest())
    return directory / f"_kernels-{key.hexdigest()[:24]}.so"


def _intact(path: Path) -> bool:
    """Whether ``path`` ends with the sha256 of the bytes before it."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    return len(data) > _DIGEST_BYTES and hashlib.sha256(body).digest() == digest


def _compile(path: Path, cc: str) -> None:
    """Build the library into a temporary file, append its digest and move it to ``path``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([*shlex.split(cc), *FLAGS, str(SOURCE), "-o", tmp, "-lm"],
                       check=True, capture_output=True, timeout=COMPILE_TIMEOUT_S)
        body = Path(tmp).read_bytes()
        with open(tmp, "ab") as f:
            f.write(hashlib.sha256(body).digest())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def open_library(directory: Path, cc: str) -> ctypes.CDLL:
    """The library cached in ``directory``, built by ``cc`` first if it is missing or damaged."""
    path = library_path(directory, cc)
    if not _intact(path):
        _compile(path, cc)
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None
    return lib


@functools.cache
def library() -> Optional[ctypes.CDLL]:
    """The compiled kernels, built on the first call; None, logged once, when that fails."""
    cc = compiler()
    try:
        return open_library(_cache_dir(), cc)
    except subprocess.CalledProcessError as exc:
        reason = f"{cc} exited with {exc.returncode}: {exc.stderr.decode(errors='replace')[-400:]}"
    except (OSError, subprocess.SubprocessError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    logger.warning("compiled kernels unavailable, running numpy (%s)", reason.strip())
    return None


def online_sample(weights: np.ndarray, e: np.ndarray, tau_e: float, eta: float, spiking,
                  pos_mask: np.ndarray, positive: bool, epsilon: float, p: np.ndarray,
                  cols: np.ndarray, u: np.ndarray, fold_below: float) -> np.ndarray:
    """One plastic sample of ``simulate``'s event path; returns the final trace [1, n_out].

    ``weights`` and the eligibility ``e`` [n_out, n_in] are Fortran-ordered and
    updated in place; ``pos_mask`` and ``positive`` are the layer's polarity
    split and the sample's polarity; ``p`` and ``cols`` are the nonzero
    inputs' spike probabilities and columns, and ``u`` the sample's
    ``steps * p.size`` uniforms, step by step.
    """
    n_out, n_in = weights.shape
    enc = spiking.encoder
    nnz = p.size
    if not (e.shape == weights.shape and pos_mask.shape == (n_out,) and cols.shape == (nnz,)
            and u.shape == (enc.steps * nnz,)
            and (nnz == 0 or (cols.min() >= 0 and cols.max() < n_in))):
        raise ValueError("online_sample arguments do not fit the layer")
    global runs
    runs += 1
    trace = np.zeros((1, n_out))
    lif = spiking.lif
    library().ffa_online_sample(
        n_in, n_out, nnz, enc.steps, enc.steps - enc.active_window, p, cols, u, pos_mask,
        positive, lif.decay, lif.threshold, lif.input_gain, spiking.trace.mu, epsilon,
        tau_e, eta, fold_below, weights, e, trace, np.zeros(4 * n_out),
        np.empty(nnz, dtype=np.intp),
    )
    return trace


def adam(w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, one_minus_b1: float,
         one_minus_b2: float, c1: float, c2: float, eta: float, eps: float) -> None:
    """One fused ADAM step over C-contiguous float64 arrays of one size, in place."""
    if not w.size == g.size == m.size == v.size:
        raise ValueError("adam arrays differ in size")
    global runs
    runs += 1
    library().ffa_adam(w.size, w, g, m, v, one_minus_b1, one_minus_b2, c1, c2, eta, eps)
