"""Reconstruction quality metrics.

relative_error and psnr come out of one pass over a and ahat
(error_metrics returns both).  The pass walks the values of the two
tensors in blocks of _BLOCK entries through one block-sized scratch
buffer and accumulates ||a||^2, ||a - ahat||^2 and max|ahat|, so no
temporary the size of the tensor is formed.  A pair with one memory
layout is walked in that order, so an F- or C-contiguous pair is read in
place; a pair whose layouts differ is walked in column-major order, and
np.ravel copies whichever tensor is not F-contiguous.  Each block is
summed by numpy's pairwise sum, not by BLAS, so the metrics do not
depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

import numpy as np

from .errors import InvalidArgumentError

# entries per block of the metric pass: its scratch buffer (256 KB) and
# both input blocks stay in cache between the sweeps over the block
_BLOCK = 1 << 15


def _pair(a, ahat):
    a = np.asarray(a, dtype=np.float64)
    ahat = np.asarray(ahat, dtype=np.float64)
    if a.shape != ahat.shape:
        raise InvalidArgumentError(f"shape mismatch: {a.shape} vs {ahat.shape}")
    return a, ahat


def frobenius_norm(t) -> float:
    """||t||_F, the 2-norm of all entries of a tensor of any order.

    The entries are read in memory order, so no layout is copied."""
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel(order="K")))


class _Sums(NamedTuple):
    size: int
    ref_sq: float  # ||a||_F^2
    err_sq: float  # ||a - ahat||_F^2
    peak: float  # max |ahat|, 0 for empty tensors


def _sums(a, ahat) -> _Sums:
    """The one blocked pass behind every metric."""
    a, ahat = _pair(a, ahat)
    # one walk order for both: memory order when they share a layout (so
    # both ravels of a C- or F-contiguous pair are views), else column-major
    order = "K" if a.strides == ahat.strides else "F"
    av = np.ravel(a, order=order)
    hv = np.ravel(ahat, order=order)
    buf = np.empty(min(av.size, _BLOCK))
    ref_sq = err_sq = 0.0
    peak = np.float64(0.0)
    for i in range(0, av.size, _BLOCK):
        x = av[i : i + _BLOCK]
        y = hv[i : i + _BLOCK]
        d = buf[: x.size]
        ref_sq += float(np.multiply(x, x, out=d).sum())
        np.subtract(x, y, out=d)
        err_sq += float(np.multiply(d, d, out=d).sum())
        # np.maximum keeps a NaN once seen, as np.max(np.abs(ahat)) would
        peak = np.maximum(peak, max(y.max(), -y.min()))
    return _Sums(av.size, ref_sq, err_sq, float(peak))


def _relative_error(s: _Sums) -> float:
    if s.ref_sq == 0.0:
        raise InvalidArgumentError("reference tensor has zero norm")
    return math.sqrt(s.err_sq) / math.sqrt(s.ref_sq)


def _psnr(s: _Sums) -> float:
    if s.err_sq == 0.0:
        return math.inf
    if s.peak == 0.0:
        return -math.inf
    return 10.0 * math.log10(s.size * s.peak * s.peak / s.err_sq)


def error_metrics(a, ahat) -> Tuple[float, float]:
    """(relative_error(a, ahat), psnr(a, ahat)) from one pass over both
    tensors; raises InvalidArgumentError when a has zero norm."""
    s = _sums(a, ahat)
    return _relative_error(s), _psnr(s)


def relative_error(a, ahat) -> float:
    """||a - ahat||_F / ||a||_F against the reference a; a reference of
    zero norm raises InvalidArgumentError."""
    return _relative_error(_sums(a, ahat))


def psnr(a, ahat) -> float:
    """10 log10(numel * max|ahat|^2 / ||a - ahat||_F^2) in dB.

    The peak is taken over the reconstruction ahat and the entry count
    generalizes the order-3 I1*I2*I3 factor to any order.  Identical
    inputs return +inf and an all-zero reconstruction of a nonzero
    reference returns -inf, as sentinels.
    """
    return _psnr(_sums(a, ahat))
