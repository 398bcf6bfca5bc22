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
depend on the BLAS thread count.  A reference whose norm lies outside
the range scaled_into_range keeps its squares in is walked a second
time, with both tensors scaled by the same power of two, which leaves
the two ratios exact; in range there is one pass and no copy.
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


def scaled_into_range(t, norm: float) -> Tuple[np.ndarray, int]:
    """(t 2^-e, e) for an array t of Frobenius norm norm.

    Squares of t's entries and the Gram products A A^T of its unfoldings
    overflow or underflow in float64 unless norm lies in about
    [2^-256, 2^256].  Inside that range e = 0 and t comes back itself,
    not copied; outside it e is the binary exponent of max|t|, so
    max|t 2^-e| lies in [1/2, 1).  A power of two scales exactly, so a
    result computed from t 2^-e is scaled back by 2^e without rounding."""
    if 2.0**-256 <= norm <= 2.0**256:
        return t, 0
    e = math.frexp(np.max(np.abs(t), initial=0.0))[1]  # 0 for a zero tensor
    return np.ldexp(t, -e), e


class _Sums(NamedTuple):
    size: int
    ref_sq: float  # ||a||_F^2
    err_sq: float  # ||a - ahat||_F^2
    peak: float  # max |ahat|, 0 for empty tensors


def _sums(a, ahat) -> _Sums:
    """The sums behind every metric, from one blocked pass over a and ahat
    or, when ||a|| is out of range, over a 2^-e and ahat 2^-e: the sums
    then overflow or underflow, while relative_error and psnr are ratios
    that the exact scaling leaves bit-identical."""
    a, ahat = _pair(a, ahat)
    with np.errstate(over="ignore"):  # an overflow is handled below
        s = _blocked_pass(a, ahat)
    scaled, e = scaled_into_range(a, math.sqrt(s.ref_sq))
    return _blocked_pass(scaled, np.ldexp(ahat, -e)) if e else s


def _blocked_pass(a, ahat) -> _Sums:
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
