"""Reconstruction quality metrics and the package's one sum of squares.

Every sum of squares in the package, ||t||_F behind frobenius_norm, the
sweeps' input norm and add_awgn's signal power, and ||a||^2 and
||a - ahat||^2 behind the metrics, goes through one kernel (_sq): numpy's
pairwise sum of x*x over a block of at most _BLOCK entries, added up
block by block.  It does not use BLAS, so norms, step residuals, noise
levels and the metrics do not depend on the BLAS thread count, and no
temporary the size of the tensor is formed.  One range rule (_exponent)
keeps the squares in float64: a tensor whose squared norm lies outside
[2^-512, 2^512] is summed again as t 2^-e, e the binary exponent of
max|t|.  A power of two scales exactly, so results scale back by 2^e
without rounding; in range there is one pass and no copy.

relative_error and psnr come out of one pass over a and ahat
(error_metrics returns both), which accumulates ||a||^2, ||a - ahat||^2
and max|ahat| through one block-sized scratch buffer.  A pair with one
memory layout is walked in that order, so an F- or C-contiguous pair is
read in place; a pair whose layouts differ is walked in column-major
order, and np.ravel copies whichever tensor is not F-contiguous.  Out of
range both tensors are scaled by the reference's 2^-e, which leaves the
two ratios exact.  A caller that scores many tensors against one
column-major reference (bench) hands the pass the reference's _sum_sq,
taken once: the pass then reads only ||a - ahat||^2 and max|ahat|, and
since _sum_sq walks a column-major a in the same blocks, the metrics are
bit-identical to the fused pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

import numpy as np

from .errors import InvalidArgumentError

# entries per block of every sum of squares: the scratch buffer (256 KB)
# and the input blocks stay in cache between the sweeps over the block
_BLOCK = 1 << 15


def _sq(x, out) -> float:
    """The sum of squares of one block x, through out, a buffer of x's
    size: numpy's pairwise sum, which no BLAS thread count changes."""
    return float(np.multiply(x, x, out=out).sum())


def _blocks(*ts):
    """Aligned blocks of at most _BLOCK values of the same-shape arrays
    ts, each yielded after one scratch buffer cut to the block's size.
    The walk is in memory order when all share a layout (so the ravels of
    C- or F-contiguous arrays are views), else column-major."""
    order = "K" if len({t.strides for t in ts}) == 1 else "F"
    vs = [np.ravel(t, order=order) for t in ts]
    buf = np.empty(min(vs[0].size, _BLOCK))
    for i in range(0, vs[0].size, _BLOCK):
        blocks = [v[i : i + _BLOCK] for v in vs]
        yield (buf[: blocks[0].size], *blocks)


def _exponent(t, sum_sq: float) -> int:
    """The binary exponent e that brings t, of squared norm sum_sq, into
    the range whose squares float64 holds.

    Squares of t's entries and the Gram products A A^T of its unfoldings
    overflow or underflow unless sum_sq lies in [2^-512, 2^512].  Inside
    that range e = 0; outside it e is the binary exponent of max|t|, so
    max|t 2^-e| lies in [1/2, 1) and ||t 2^-e||^2 in [1/4, t.size].  A
    NaN or Inf entry gives e = 0, as does a zero tensor."""
    in_range = 2.0**-512 <= sum_sq <= 2.0**512
    return 0 if in_range else math.frexp(np.max(np.abs(t), initial=0.0))[1]


def _sum_sq(t: np.ndarray) -> Tuple[np.ndarray, float, int]:
    """(t 2^-e, ||t 2^-e||_F^2, e) for a float64 array t, e by _exponent.

    In range e = 0 and t comes back itself, not copied.  A sum that is
    not finite then proves a NaN or Inf entry: a finite t 2^-e sums to at
    most its size."""
    s = 0.0
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        for d, x in _blocks(t):
            s += _sq(x, d)
    e = _exponent(t, s)
    # t 2^-e is in range, so the second call stops there
    return (*_sum_sq(np.ldexp(t, -e))[:2], e) if e else (t, s, 0)


def _finite(sum_sq: float) -> float:
    """sum_sq, a sum from _sum_sq, after the check that every input
    contract shares: a sum that is not finite proves a NaN or Inf entry."""
    if not math.isfinite(sum_sq):
        raise FloatingPointError("input tensor has NaN or Inf entries")
    return sum_sq


def frobenius_norm(t) -> float:
    """||t||_F, the 2-norm of all entries of a tensor of any order, at
    any scale: frobenius_norm(t 2^j) is 2^j frobenius_norm(t) exactly.

    The entries are read in memory order, so no layout is copied."""
    _, s, e = _sum_sq(np.asarray(t, dtype=np.float64))
    return math.ldexp(math.sqrt(s), e)


class _Sums(NamedTuple):
    size: int
    ref_sq: float  # ||a||_F^2
    err_sq: float  # ||a - ahat||_F^2
    peak: float  # max |ahat|, 0 for empty tensors


def _sums(a, ahat, ref=None) -> _Sums:
    """The sums behind every metric, from one blocked pass over a and ahat
    or, when ||a|| is out of range, over a 2^-e and ahat 2^-e: the sums
    then overflow or underflow, while relative_error and psnr are ratios
    that the exact scaling leaves bit-identical.

    ref, when given, is a's (||a 2^-e||^2, e) from _sum_sq: the pass
    then skips the ||a||^2 term and goes straight to the scaled pair."""
    a = np.asarray(a, dtype=np.float64)
    ahat = np.asarray(ahat, dtype=np.float64)
    if a.shape != ahat.shape:
        raise InvalidArgumentError(f"shape mismatch: {a.shape} vs {ahat.shape}")
    if ref is None:
        with np.errstate(over="ignore"):  # an overflow is rescaled below
            s = _blocked_pass(a, ahat)
        e = _exponent(a, s.ref_sq)
        return _blocked_pass(np.ldexp(a, -e), np.ldexp(ahat, -e)) if e else s
    ref_sq, e = ref
    if e:
        a, ahat = np.ldexp(a, -e), np.ldexp(ahat, -e)
    with np.errstate(over="ignore"):  # an error past float64 sums to inf
        return _blocked_pass(a, ahat, ref_sq)


def _blocked_pass(a, ahat, ref_sq=None) -> _Sums:
    """_Sums of a and ahat; a given ref_sq stands for ||a||^2, unsummed."""
    sq = err_sq = 0.0
    peak = np.float64(0.0)
    for d, x, y in _blocks(a, ahat):
        if ref_sq is None:
            sq += _sq(x, d)
        err_sq += _sq(np.subtract(x, y, out=d), d)
        # np.maximum keeps a NaN once seen, as np.max(np.abs(ahat)) would
        peak = np.maximum(peak, max(y.max(), -y.min()))
    return _Sums(a.size, sq if ref_sq is None else ref_sq, err_sq, float(peak))


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
    return _error_metrics(a, ahat)


def _error_metrics(a, ahat, ref=None) -> Tuple[float, float]:
    """error_metrics, given a's _sum_sq as ref when it is known (_sums)."""
    s = _sums(a, ahat, ref)
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
