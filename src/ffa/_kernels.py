"""Compiled forms of two overhead-bound loops, bitwise equal to their numpy rules.

``_kernels.c`` holds one whole call of :func:`ffa.spiking.simulate` over B
rows on its lockstep path, or a block of B event-driven one-row calls run one
after another (:func:`ffa.spiking.simulate_online`), for every output trace
and reset, and one fused :func:`ffa.analog.adam_step`.  numpy stays the rule
and the oracle: each C loop performs the same IEEE operations in the same
order, summation orders included, so it gives the numpy path's bits.
:func:`ffa.core.row_sums` adds each row's partition goodness left to right at
every batch size, and scipy's sparse products add rows one after another
from 0.0; the simulate kernel follows each.  It draws its uniforms through
the generator's public ``bit_generator.ctypes.next_double`` with the
generator's lock held, one per event in event order each step: the stream
and end state of ``rate_encode``'s ``rng.random(nnz)``.  Its trace line is
``T <- g*I + (d*(1 - h*I))*T``; :func:`simulate` passes (g, d, h) =
(mu, tau_o, 0) for li, (1, tau_o, 1) for hard_li and (mu, 1, 0) for relu.
The spike I is 0 or 1, and a product with 1.0 or a difference with 0.0 rounds
nothing, so each kind rounds exactly where its ``trace_step`` does.

The wrappers check each array's dtype, memory layout and shape themselves and
pass raw addresses, and the simulate kernel checks the events against the
layer before it draws or writes; an argument that does not fit is a
ValueError.

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
numpy rounds twice, the trace line's rounding product and sum included.
``-ffast-math`` would reorder sums and is never used.  ``-fno-math-errno``
only stops ``sqrt`` from setting ``errno``, which lets the ADAM loop
vectorize; the square root stays correctly rounded.
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

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 120
_DIGEST_BYTES = 32

runs = 0
"""How many compiled kernel calls this process has made."""

_SIZE, _ADDRESS, _DOUBLE = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
_NEXT_DOUBLE = ctypes.CFUNCTYPE(_DOUBLE, _ADDRESS)  # the type of bit_generator.ctypes.next_double
_SIGNATURES = {  # name: (restype, argtypes)
    "ffa_simulate": (ctypes.c_int, [_SIZE] * 6 + [_ADDRESS] * 3 + [_DOUBLE] * 3 + [ctypes.c_int]
                     + [_DOUBLE] * 3 + [_ADDRESS] * 4 + [_DOUBLE] * 3 + [_ADDRESS] * 2
                     + [ctypes.c_int, _DOUBLE, _NEXT_DOUBLE, _ADDRESS]),
    "ffa_adam": (None, [_SIZE] + [_ADDRESS] * 4 + [_DOUBLE] * 6),
}


def _address(a: np.ndarray, dtype: type, shape: tuple, layout: str = "C_CONTIGUOUS",
             writes: bool = False) -> int:
    """The address of ``a``'s data once it is an ndarray of ``dtype``, ``shape`` and
    ``layout`` (and writeable, when the kernel ``writes`` it); else a ValueError."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
            and a.flags[layout] and (a.flags.writeable or not writes)):
        raise ValueError(f"kernel arguments do not fit the layer: one is not a "
                         f"{layout.lower()} {np.dtype(dtype)} array of shape {shape}")
    return a.ctypes.data


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
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
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


def simulate(weights: np.ndarray, spiking, p: np.ndarray, cols: np.ndarray, starts: np.ndarray,
             rng: np.random.Generator, e: Optional[np.ndarray] = None,
             impulse: Optional[np.ndarray] = None, tau_e: float = 0.0, eta: float = 0.0,
             pos_mask: Optional[np.ndarray] = None, positive: Optional[np.ndarray] = None,
             epsilon: float = 0.0, fold_below: Optional[float] = None) -> np.ndarray:
    """One whole ``simulate`` call over B rows; returns the final traces [B, n_out].

    ``weights`` [n_out, n_in] is Fortran-ordered; ``p``, ``cols`` and
    ``starts`` are the nonzero inputs' spike probabilities, their columns and
    the [B + 1] offsets where each row's events start, and ``rng`` draws
    every step's uniforms.  A plastic call also passes the Fortran-ordered
    eligibility ``e`` and its ``impulse`` buffer, ``tau_e``, ``eta``, the
    layer's ``pos_mask``, each row's polarity ``positive`` [B] and the
    symmetric ``epsilon``; its last ``active_window`` steps update
    ``weights`` and ``e`` in place.  Given ``fold_below``, a plastic call
    runs its rows event-driven one after another, each as a one-row call
    that folds once the decay product drops below it and at its end.  Every
    argument is checked before anything is drawn or written.
    """
    n_out, n_in = shape = weights.shape
    rows, nnz = starts.size - 1, p.size
    plastic = any(a is not None for a in (e, impulse, pos_mask, positive))
    event = fold_below is not None
    if rows < 0 or (plastic and rows == 0) or (event and not plastic):
        raise ValueError(f"simulate arguments do not fit the layer: {rows} rows for a "
                         f"{'plastic' if plastic else 'plasticity-free'}"
                         f"{' event-driven' if event else ''} call")
    events = (_address(p, np.float64, (nnz,)), _address(cols, np.intp, (nnz,)),
              _address(starts, np.intp, (rows + 1,)))
    w = _address(weights, np.float64, shape, "F_CONTIGUOUS", plastic)
    plasticity = (None, None, 0.0, 0.0, 0.0, None, None)
    if plastic:
        plasticity = (
            _address(pos_mask, np.bool_, (n_out,)), _address(positive, np.bool_, (rows,)),
            epsilon, tau_e, eta, _address(e, np.float64, shape, "F_CONTIGUOUS", True),
            _address(impulse, np.float64, shape, "F_CONTIGUOUS", True),
        )
    enc, lif, tr = spiking.encoder, spiking.lif, spiking.trace
    coefficients = {"li": (tr.mu, tr.tau_o, 0.0), "hard_li": (1.0, tr.tau_o, 1.0),
                    "relu": (tr.mu, 1.0, 0.0)}[tr.kind]
    trace = np.zeros((rows, n_out))
    bits = rng.bit_generator
    with bits.lock:
        status = library().ffa_simulate(
            rows, n_in, n_out, nnz, enc.steps, enc.steps - (enc.active_window if plastic else 0),
            *events, lif.decay, lif.threshold, lif.input_gain, lif.reset_mode == "subtract",
            *coefficients, w, trace.ctypes.data, *plasticity, event, fold_below or 0.0,
            bits.ctypes.next_double, bits.ctypes.state_address)
    if status == -2:
        raise MemoryError("simulate's kernel could not allocate its scratch memory")
    if status:
        raise ValueError("simulate arguments do not fit the layer: events out of range")
    global runs
    runs += 1
    return trace


def adam(w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, one_minus_b1: float,
         one_minus_b2: float, c1: float, c2: float, eta: float, eps: float) -> None:
    """One fused ADAM step over C-contiguous float64 arrays of one shape, in place."""
    addresses = [_address(a, np.float64, w.shape, writes=a is not g) for a in (w, g, m, v)]
    global runs
    runs += 1
    library().ffa_adam(w.size, *addresses, one_minus_b1, one_minus_b2, c1, c2, eta, eps)
