"""Binary weight checkpoints, shared by the analog and spiking trainers.

Layout (all little-endian):

    magic  "FFAW"
    u32    version (currently 1)
    u32    flags (must be 0; bit 0 was "bias vector after the weights")
    u32    n_in
    u32    n_out
    u8[n_out]          polarity mask (1 = positive neuron)
    u32    codeword length E
    f64    codeword density
    i64    codebook seed
    u8[ceil(10*E/8)]   codebook bits, packed row-major
    f64[n_out * n_in]  weights, row-major

A nonzero flags word is refused: the layer has no bias, and no other bit
was ever defined.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .analog import DenseLayer
from .atomic import atomic_write
from .core import PolarityPartition
from .data import LabelCodebook
from .errors import CheckpointError, DataError

MAGIC = b"FFAW"
VERSION = 1


def save_checkpoint(path, layer: DenseLayer, codebook: LabelCodebook) -> None:
    path = Path(path)
    bits = np.packbits(codebook.vectors.astype(np.uint8).ravel())
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIII", VERSION, 0, layer.n_in, layer.n_out))
        f.write(layer.partition.pos_mask.astype(np.uint8).tobytes())
        f.write(struct.pack("<Idq", codebook.length, codebook.density, codebook.seed))
        f.write(bits.tobytes())
        f.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())


def _take(buf: bytes, offset: int, count: int, path: Path, what: str) -> tuple[bytes, int]:
    if offset + count > len(buf):
        raise CheckpointError(f"{path}: truncated while reading {what}")
    return buf[offset : offset + count], offset + count


def load_checkpoint(path) -> tuple[DenseLayer, LabelCodebook]:
    path = Path(path)
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    raw, off = _take(buf, 0, 4, path, "magic")
    if raw != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw!r}")
    raw, off = _take(buf, off, 16, path, "header")
    version, flags, n_in, n_out = struct.unpack("<IIII", raw)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if flags:
        raise CheckpointError(
            f"{path}: carries a bias vector; the layer bias was removed" if flags == 1
            else f"{path}: unsupported flags {flags:#x}"
        )
    raw, off = _take(buf, off, n_out, path, "polarity mask")
    mask = np.frombuffer(raw, dtype=np.uint8).astype(bool)
    raw, off = _take(buf, off, struct.calcsize("<Idq"), path, "codebook header")
    length, density, seed = struct.unpack("<Idq", raw)
    n_bit_bytes = (10 * length + 7) // 8
    raw, off = _take(buf, off, n_bit_bytes, path, "codebook bits")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[: 10 * length]
    vectors = bits.reshape(10, length).astype(np.float64)
    raw, off = _take(buf, off, 8 * n_out * n_in, path, "weights")
    weights = np.frombuffer(raw, dtype="<f8").reshape(n_out, n_in).copy()
    if off != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - off} trailing bytes")
    if not np.isfinite(weights).all():
        raise CheckpointError(f"{path}: non-finite weights")
    try:
        codebook = LabelCodebook.from_vectors(vectors, density, seed)
    except DataError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return DenseLayer(weights, PolarityPartition(mask)), codebook
