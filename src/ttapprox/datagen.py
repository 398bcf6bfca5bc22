"""Synthetic test tensors, AWGN noising and the ".dten" dense file, one
use of the container in _container.

Every tensor this module returns is column-major (F-contiguous), the
layout the sweeps unfold and the ".dten" payload is stored in, so none
of them is copied on its way into a decomposition.

add_awgn measures the signal power with the package's one sum of
squares (metrics), so the noise of a given seed does not depend on the
BLAS thread count.  It is the one-level case of _awgn_levels, which
makes every SNR level of one seed from one Gaussian draw and a power
the caller has summed: a bench plan sums its clean tensor once and
draws once per seed.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ._container import Format
from .errors import InvalidArgumentError, _check_indexable, _int, _ints, _number
from .metrics import _finite, _sum_sq

_DTEN = Format(
    "dten",
    b"DTEN\x01",  # the magic, then version 1
    table_len=lambda n: n,
    shapes=lambda n, dims: [dims],
    entry=lambda i, n: "mode size",
)


def spectrum_decay_tensor(n: int, T: int, D: float) -> np.ndarray:
    """n x n x n tensor of diagonal frontal slices with a rank-T plateau.

    Slice j (third index, 1-based) has diagonal min(T, j) ones followed
    by 10^-D, 10^-2D, ... down to 10^-(n - min(T, j))D; all off-diagonal
    entries are zero, so each slice's singular values can be read off
    the diagonal.
    """
    n, T, D = _int(n, "n", 1), _int(T, "T", 1), _number(D, "D", 0, strict=True)
    _check_indexable((n, n, n))
    out = np.zeros((n, n, n), order="F")
    for j in range(1, n + 1):
        m = min(T, j)
        diag = np.ones(n)
        diag[m:] = 10.0 ** (-D * np.arange(1, n - m + 1))
        np.fill_diagonal(out[:, :, j - 1], diag)
    return out


def power_function_tensor(dims, h: float) -> np.ndarray:
    """Entry (i_1,...,i_N) = (i_1^h + ... + i_N^h)^(-1/h), 1-based indices."""
    dims, h = _ints(dims, "dims", 1), _number(h, "h", 0, strict=True)
    if not dims:
        raise InvalidArgumentError("dims must be non-empty")
    _check_indexable(dims)
    n_modes = len(dims)
    total = None
    # mode k sits on axis N-1-k, so the C-ordered sum is the transpose of
    # the column-major tensor; the sums still run in mode order
    for k, d in enumerate(dims):
        grid = np.arange(1, d + 1, dtype=np.float64) ** h
        grid = grid.reshape([-1 if a == n_modes - 1 - k else 1 for a in range(n_modes)])
        total = grid if total is None else total + grid
    return (total ** (-1.0 / h)).T


def add_awgn(t, snr_db: float, seed: int) -> np.ndarray:
    """Add white Gaussian noise calibrated against measured signal power.

    Noise variance is (||t||_F^2 / numel) / 10^(snr_db/10); deterministic
    for a given seed, an integer >= 0.  The power comes from the
    package's one sum of squares (metrics._sum_sq), so it does not depend
    on the BLAS thread count, and a tensor out of float64's squaring range
    has it measured on t 2^-e: the noise of t 2^j is exactly 2^j times
    the noise of t while no entry leaves the normal range.

    A t with a NaN or Inf entry raises FloatingPointError, as the sweeps
    do.  An snr_db so high that the noise level underflows adds zero
    noise; one so low that the noise, or t plus it, leaves float64's
    range raises InvalidArgumentError.
    """
    t = np.asarray(t, dtype=np.float64)
    _, sum_sq, e = _sum_sq(t)
    return _awgn_levels(t, [snr_db], seed, sum_sq, e)[0]


def _awgn_levels(t, snrs, seed, sum_sq: float, e: int) -> List[np.ndarray]:
    """add_awgn(t, snr_db, seed) for every snr_db in snrs, from one draw.

    t is a float64 array and (sum_sq, e) its metrics._sum_sq.  Each level
    scales the draw into its own column-major output and adds t there, so
    the draw and the outputs are the only arrays of t's size."""
    snrs, seed = [_number(v, "snr_db") for v in snrs], _int(seed, "seed", 0)
    if _finite(sum_sq) == 0.0:
        raise InvalidArgumentError("signal power is zero, SNR undefined")
    power = sum_sq / t.size
    noise = np.random.default_rng(seed).standard_normal(t.size).reshape(t.shape, order="F")
    levels = []
    for snr_db in snrs:
        with np.errstate(over="ignore"):  # 10^(snr_db/10) past float64: sigma is 0
            ratio = np.float64(10.0) ** (snr_db / 10.0)
        y = np.empty(t.shape, order="F")  # F whatever t's layout
        with np.errstate(over="raise", divide="raise"):
            try:
                # sigma of t 2^-e scaled back by 2^e: exact, so the noise is
                # the same at every scale
                sigma = np.ldexp(np.sqrt(power / ratio), e)
                np.multiply(noise, sigma, out=y)
                levels.append(np.add(t, y, out=y))
            except FloatingPointError:
                raise InvalidArgumentError(f"at snr_db {snr_db} the noise is past float64's range") from None
    return levels


def tensor_save(t, path):
    """Write t as a ".dten" file: magic DTEN, u8 version 1, u32 N, N u64
    mode sizes, then the values.  A 0-d or empty t raises
    InvalidArgumentError, as tensor_load would reject its file."""
    t = np.asarray(t, dtype=np.float64)
    _DTEN.write(path, t.ndim, t.shape, [t])


def tensor_load(path) -> np.ndarray:
    """Read a ".dten" file into one column-major array; the values are read
    straight into it."""
    (t,) = _DTEN.read(path)
    return t
