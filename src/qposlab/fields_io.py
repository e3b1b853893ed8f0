"""Field serialization: a small binary container and row-major CSV.

Binary layout (all integers little-endian uint32, payload little-endian
float64, row-major/C order):

    magic  b"QPF1"
    n          complex dimension of the torus
    grid_size  nominal samples per real coordinate
    ndim       number of stored axes (= 2n)
    shape[ndim]  stored axis lengths (1 or grid_size each)
    payload    prod(shape) float64 values

CSV files carry one header comment line ``# qposlab-field n=.. grid=..
shape=..`` followed by the flattened values, one row of the last axis per
line.  Round-trips are bit-exact for finite values; ``-inf`` is allowed (pole
sentinels).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ModelError
from .geometry import TorusModel

__all__ = ["write_field", "read_field", "write_heatmap_csv"]

_MAGIC = b"QPF1"


def _meta_for(torus: TorusModel, values: np.ndarray) -> tuple[int, int]:
    if values.ndim != torus.ndim_real:
        raise ModelError("field values do not match the torus axis count")
    return torus.n, torus.grid_size


def write_field(path, torus: TorusModel, values: np.ndarray) -> None:
    """Write a grid field; format chosen by extension (.csv or binary)."""
    path = Path(path)
    values = np.asarray(values, dtype=np.float64)
    n, grid = _meta_for(torus, values)
    if path.suffix == ".csv":
        shape_txt = "x".join(str(s) for s in values.shape)
        with path.open("w") as fh:
            fh.write(f"# qposlab-field n={n} grid={grid} shape={shape_txt}\n")
            flat = values.reshape(-1, values.shape[-1])
            for row in flat:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", n, grid, values.ndim))
        fh.write(struct.pack(f"<{values.ndim}I", *values.shape))
        fh.write(values.astype("<f8", copy=False).tobytes(order="C"))


def read_field(path, torus: TorusModel | None = None) -> tuple[TorusModel, np.ndarray]:
    """Read a grid field written by :func:`write_field`.

    If ``torus`` is given, the stored metadata must match it.
    """
    path = Path(path)
    if not path.exists():
        raise ModelError(f"field file not found: {path}")
    if path.suffix == ".csv":
        with path.open() as fh:
            header = fh.readline().strip()
            if not header.startswith("# qposlab-field"):
                raise ModelError(f"{path}: missing qposlab-field CSV header")
            meta = dict(part.partition("=")[::2] for part in header.split()[2:])
            missing = [key for key in ("n", "grid", "shape") if key not in meta]
            if missing:
                raise ModelError(f"{path}: CSV header lacks {', '.join(missing)}")
            try:
                n = int(meta["n"])
                grid = int(meta["grid"])
                shape = tuple(int(s) for s in meta["shape"].split("x"))
                values = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=1).reshape(shape)
            except ValueError as exc:
                raise ModelError(f"{path}: malformed CSV field: {exc}") from None
    else:
        blob = path.read_bytes()
        if blob[:4] != _MAGIC:
            raise ModelError(f"{path}: not a qposlab binary field (bad magic)")
        if len(blob) < 16:
            raise ModelError(f"{path}: header has {len(blob)} bytes, expected at least 16")
        n, grid, ndim = struct.unpack_from("<III", blob, 4)
        if len(blob) < 16 + 4 * ndim:
            raise ModelError(f"{path}: header has {len(blob)} bytes, expected {16 + 4 * ndim} for {ndim} axes")
        shape = struct.unpack_from(f"<{ndim}I", blob, 16)
        payload = blob[16 + 4 * ndim:]
        expected = math.prod(shape) * 8
        if len(payload) != expected:
            raise ModelError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
        values = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    declared = TorusModel(n=n, grid_size=grid)
    if torus is not None and torus != declared:
        raise ModelError(f"{path}: field declares torus {declared}, expected {torus}")
    if values.ndim != declared.ndim_real:
        raise ModelError(f"{path}: stored shape {values.shape} does not match 2n={declared.ndim_real} axes")
    for a, size in enumerate(values.shape):
        if size not in (1, declared.grid_size):
            raise ModelError(f"{path}: axis {a} length {size} is neither 1 nor grid_size")
    return declared, values


def write_heatmap_csv(path, values: np.ndarray) -> None:
    """Export a scalar grid field as a 2-D CSV heatmap.

    Singleton axes are squeezed; the result must have at most two remaining
    axes (fields varying in more than two coordinates have no single heatmap).
    """
    arr = np.asarray(values, dtype=np.float64)
    squeezed = np.squeeze(arr)
    if squeezed.ndim > 2:
        raise ModelError(f"heatmap export needs <= 2 active axes, field has {squeezed.ndim}")
    mat = np.atleast_2d(squeezed)
    with Path(path).open("w") as fh:
        for row in mat:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
