"""Synthetic test tensors, AWGN noising and the ".dten" dense container.

Every tensor this module returns is column-major (F-contiguous), the
layout the sweeps unfold and the ".dten" payload is stored in, so none
of them is copied on its way into a decomposition.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import InvalidArgumentError, ParseError

_MAGIC = b"DTEN"
_VERSION = 1


def spectrum_decay_tensor(n: int, T: int, D: float) -> np.ndarray:
    """n x n x n tensor of diagonal frontal slices with a rank-T plateau.

    Slice j (third index, 1-based) has diagonal min(T, j) ones followed
    by 10^-D, 10^-2D, ... down to 10^-(n - min(T, j))D; all off-diagonal
    entries are zero, so each slice's singular values can be read off
    the diagonal.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if T < 1:
        raise InvalidArgumentError(f"T must be >= 1, got {T}")
    if not 0 < D < math.inf:
        raise InvalidArgumentError(f"D must be finite and > 0, got {D}")
    out = np.zeros((n, n, n), order="F")
    for j in range(1, n + 1):
        m = min(T, j)
        diag = np.ones(n)
        diag[m:] = 10.0 ** (-D * np.arange(1, n - m + 1))
        np.fill_diagonal(out[:, :, j - 1], diag)
    return out


def power_function_tensor(dims, h: float) -> np.ndarray:
    """Entry (i_1,...,i_N) = (i_1^h + ... + i_N^h)^(-1/h), 1-based indices."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise InvalidArgumentError(f"dims must be positive, got {dims}")
    if not 0 < h < math.inf:
        raise InvalidArgumentError(f"h must be finite and > 0, got {h}")
    n_modes = len(dims)
    total = None
    # mode k sits on axis N-1-k, so the C-ordered sum is the transpose of
    # the column-major tensor; the sums still run in mode order
    for k, d in enumerate(dims):
        grid = np.arange(1, d + 1, dtype=np.float64) ** float(h)
        grid = grid.reshape([-1 if a == n_modes - 1 - k else 1 for a in range(n_modes)])
        total = grid if total is None else total + grid
    return (total ** (-1.0 / h)).T


def add_awgn(t, snr_db: float, seed: int) -> np.ndarray:
    """Add white Gaussian noise calibrated against measured signal power.

    Noise variance is (||t||_F^2 / numel) / 10^(snr_db/10); deterministic
    for a given seed, an integer >= 0.
    """
    if not math.isfinite(snr_db):
        raise InvalidArgumentError(f"snr_db must be finite, got {snr_db}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    t = np.asarray(t, dtype=np.float64)
    power = float(np.sum(t**2)) / t.size
    if power == 0.0:
        raise InvalidArgumentError("signal power is zero, SNR undefined")
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    noise = np.random.default_rng(seed).standard_normal(t.size).reshape(t.shape, order="F")
    return np.add(t, sigma * noise, order="F")  # F whatever t's layout


def tensor_save(t, path):
    """Write the ".dten" container: magic, u8 version, u32 N, N u64 dims,
    then the values as little-endian f64 in column-major order."""
    t = np.asarray(t, dtype="<f8", order="F")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<B", _VERSION))
        f.write(struct.pack("<I", t.ndim))
        f.write(np.asarray(t.shape, dtype="<u8").tobytes())
        # the transpose of a column-major array is C-contiguous: written as is
        t.T.tofile(f)


def tensor_load(path) -> np.ndarray:
    """Read a ".dten" file into one column-major array.

    The header is checked against the file size before the values are
    allocated, and the values are read straight into that array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(9)
        if head[:4] != _MAGIC:
            raise ParseError("not a dten file (bad magic)", offset=0)
        if size < 5:
            raise ParseError("truncated version byte", offset=size)
        version = head[4]
        if version != _VERSION:
            raise ParseError(f"unsupported version {version}", offset=4)
        if size < 9:
            raise ParseError("truncated mode count", offset=size)
        (n_modes,) = struct.unpack_from("<I", head, 5)
        if n_modes == 0:
            raise ParseError("mode count must be positive", offset=5)
        off = 9
        if size < off + 8 * n_modes:
            raise ParseError("truncated dim table", offset=size)
        dims = [int(v) for v in np.frombuffer(f.read(8 * n_modes), "<u8")]
        if 0 in dims:
            raise ParseError("zero mode size", offset=off + 8 * dims.index(0))
        off += 8 * n_modes
        count = math.prod(dims)
        end = off + 8 * count
        if size < end:
            raise ParseError(f"dims {dims} need {count} values, file ends early", offset=size)
        if size > end:
            raise ParseError("trailing bytes after values", offset=end)
        t = np.empty(dims, dtype="<f8", order="F")
        # t.T is the C-contiguous view of the same memory, filled in file order
        got = f.readinto(t.T)
    if got != 8 * count:
        raise ParseError(f"dims {dims} need {count} values, file ends early", offset=off + got)
    return t
