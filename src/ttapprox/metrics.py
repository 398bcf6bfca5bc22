"""Reconstruction quality metrics and the package's one sum of squares.

Every sum of squares in the package, ||t||_F behind frobenius_norm, the
sweeps' input and carry norms and add_awgn's signal power, and ||a||^2
and ||a - ahat||^2 behind the metrics, goes through one kernel (_sq):
BLAS ddot, np.dot(v, v), over consecutive slices v of at most _DOT
entries of a block of at most _BLOCK entries, added up in sequence, and
the blocks added up in sequence.  OpenBLAS (numpy's wheels) runs a ddot
of up to 10000 entries on one thread, so with it norms, step residuals,
noise levels and the metrics do not depend on the BLAS thread count.
OpenBLAS picks its ddot kernel for the CPU it runs on, so their last
bits may differ between machines; other BLAS builds are not covered.  No
temporary the size of the tensor is formed.  One range rule, in
_sum_sq, keeps the squares in float64: a tensor whose squared norm lies
outside [2^-512, 2^512] is summed again as t 2^-e, e the binary exponent
of max|t|, each block scaled into the scratch buffer.  A power of two
scales exactly, so results scale back by 2^e without rounding; in range
there is one pass.

relative_error and psnr (error_metrics returns both) have one path:
||a 2^-e||^2 and e come from _sum_sq(a), read in a's memory order, then
one pass over a 2^-e and ahat 2^-e accumulates ||a - ahat||^2 and
max|ahat| through block-sized scratch buffers, into which an out of
range pair is scaled block by block.  The pass has one partition for
every pair: the column chunks of at most 4 MiB of the product that
forms a tensor of the pair's shape (tt._split, tt._width), each cut into
blocks of at most _BLOCK entries.  ahat may be a tensor or a TTTensor.
A chain's chunks are those that tt_reconstruct writes (tt._chunks),
made one at a time in one buffer, in column-major order.  A dense
pair's are slices of its flat walk at the same bounds: in memory order
when both tensors share a layout, so an F- or C-contiguous pair is read
in place, else in column-major order, and np.ravel copies whichever
tensor is not F-contiguous.  So a chain scores as error_metrics(a,
tt_reconstruct(ahat)) bit for bit without a tensor-sized array.  The
exact scaling by the reference's 2^-e leaves both ratios as they are.
A caller that scores many tensors against one reference (bench) takes
its _sum_sq once and hands it over as ref, so its cells and
error_metrics of the same pair give the same bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

import numpy as np

from .errors import InvalidArgumentError
from .tt import TTTensor, _chunks, _factors, _split, _width

# entries per block of every sum of squares: the scratch buffer (256 KB)
# and the input blocks stay in cache between the sweeps over the block
_BLOCK = 1 << 15
# entries per ddot inside a block: OpenBLAS 0.3 runs ddot on one thread
# up to 10000 entries (its x86_64 ddot.c), so a slice of at most _DOT
# gives the same bits at every thread count; the metrics pass measured
# faster over 2^15-entry blocks of 4 slices than over 8192-entry blocks
_DOT = 8192


def _sq(x) -> float:
    """The sum of squares of one block x: np.dot(v, v) over consecutive
    slices v of at most _DOT entries, added in sequence."""
    s = 0.0
    for i in range(0, x.size, _DOT):
        v = x[i : i + _DOT]
        s += float(np.dot(v, v))
    return s


def _blocks(t):
    """Blocks of at most _BLOCK values of the array t, in memory order
    (so the ravel of a C- or F-contiguous t is a view), each yielded
    after one scratch buffer cut to the block's size."""
    v = np.ravel(t, order="K")
    buf = np.empty(min(v.size, _BLOCK))
    for i in range(0, v.size, _BLOCK):
        x = v[i : i + _BLOCK]
        yield buf[: x.size], x


def _peak(x) -> np.float64:
    """max|x| of a nonempty block, NaN if x holds one."""
    return max(x.max(), -x.min())


def _sum_sq(t: np.ndarray) -> Tuple[float, int]:
    """(||t 2^-e||_F^2, e) for a float64 array t.

    Squares of t's entries and the Gram products A A^T of its unfoldings
    overflow or underflow unless ||t||^2 lies in [2^-512, 2^512].  Inside
    that range e = 0; outside it e is the binary exponent of max|t|, so
    max|t 2^-e| lies in [1/2, 1) and ||t 2^-e||^2 in [1/4, t.size].  Both
    the peak and the scaled sum are taken block by block, each block of
    t 2^-e made in the scratch buffer, so t is never copied; a caller
    that needs t 2^-e itself makes it (decompose._as_input).  A NaN or Inf
    entry gives e = 0, as does a zero tensor; a sum that is not finite
    then proves a NaN or Inf entry, since a finite t 2^-e sums to at most
    its size."""
    s = 0.0
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        for _, x in _blocks(t):
            s += _sq(x)
    if 2.0**-512 <= s <= 2.0**512:
        return s, 0
    # np.maximum keeps a NaN once seen, and frexp gives NaN and Inf e = 0
    peak = np.float64(0.0)
    for _, x in _blocks(t):
        peak = np.maximum(peak, _peak(x))
    e = math.frexp(peak)[1]
    if not e:
        return s, 0
    s = 0.0
    for d, x in _blocks(t):
        s += _sq(np.ldexp(x, -e, out=d))
    return s, e


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
    s, e = _sum_sq(np.asarray(t, dtype=np.float64))
    return math.ldexp(math.sqrt(s), e)


class _Sums(NamedTuple):
    size: int
    ref_sq: float  # ||a||_F^2
    err_sq: float  # ||a - ahat||_F^2
    peak: float  # max |ahat|, 0 for empty tensors


def _pairs(a: np.ndarray, ahat):
    """The blocks (scratch, a, ahat) of the metrics pass, ahat a tensor
    or a TTTensor, after the check that the shapes agree.

    The pair is walked in the chunks of the product that forms a tensor
    of its shape (tt._split, tt._width), each cut into blocks of at most
    _BLOCK entries.  A chain's chunks are those that tt_reconstruct
    writes (tt._chunks), in column-major order, so a's come from
    np.ravel(a, "F"); a dense pair's are slices of its flat walk, in
    memory order when the layouts match, else column-major.  So a chain
    and tt_reconstruct of it, an F-contiguous tensor, have one walk, one
    partition and the same values."""
    shape = ahat.dims if isinstance(ahat, TTTensor) else np.shape(ahat)
    if a.shape != shape:
        raise InvalidArgumentError(f"shape mismatch: {a.shape} vs {shape}")
    _, rows = _split(shape)
    step = rows * _width(rows)
    starts = range(0, a.size, step)
    if isinstance(ahat, TTTensor):
        flat_a, chunks = np.ravel(a, order="F"), _chunks(*_factors(ahat))
    else:
        ahat = np.asarray(ahat, dtype=np.float64)
        order = "K" if a.strides == ahat.strides else "F"
        flat_a, flat_ahat = np.ravel(a, order=order), np.ravel(ahat, order=order)
        chunks = (flat_ahat[i : i + step] for i in starts)
    blocks = ((i + j, y[j : j + _BLOCK]) for i, y in zip(starts, chunks) for j in range(0, y.size, _BLOCK))
    buf = np.empty(min(a.size, _BLOCK))
    return ((buf[: y.size], flat_a[i : i + y.size], y) for i, y in blocks)


def _sums(a, ahat, ref=None) -> _Sums:
    """The sums behind every metric: a's (||a 2^-e||^2, e), ref when
    given, else from _sum_sq(a), then one blocked pass over a 2^-e and
    ahat 2^-e (_pairs) for ||a - ahat||^2 and max|ahat|.  Out of range
    the sums are those of the scaled pair, while relative_error and psnr
    are ratios that the exact scaling leaves bit-identical."""
    a = np.asarray(a, dtype=np.float64)
    pairs = _pairs(a, ahat)
    ref_sq, e = ref or _sum_sq(a)
    err_sq = 0.0
    peak = np.float64(0.0)
    scaled = np.empty(min(a.size, _BLOCK)) if e else None
    # an error or peak past float64, scaled or not, sums to inf
    with np.errstate(over="ignore"):
        for d, x, y in pairs:
            if e:  # the block of the scaled pair: x 2^-e in d, y 2^-e in scaled
                x, y = np.ldexp(x, -e, out=d), np.ldexp(y, -e, out=scaled[: y.size])
            err_sq += _sq(np.subtract(x, y, out=d))
            # np.maximum keeps a NaN once seen, as np.max(np.abs(ahat)) would
            peak = np.maximum(peak, _peak(y))
    return _Sums(a.size, ref_sq, err_sq, float(peak))


def _relative_error(s: _Sums) -> float:
    if s.ref_sq == 0.0:
        raise InvalidArgumentError("reference tensor has zero norm")
    return math.sqrt(s.err_sq) / math.sqrt(s.ref_sq)


def _psnr(s: _Sums) -> float:
    if s.err_sq == 0.0:
        return math.inf
    if s.peak == 0.0 or s.err_sq == math.inf:  # no peak, or an error past float64
        return -math.inf
    r = s.size * s.peak * s.peak / s.err_sq
    if 0.0 < r < math.inf:
        return 10.0 * math.log10(r)
    # peak^2 or the ratio left float64's range: the same ratio in logs,
    # where no inf/inf or log of 0 can form
    return 10.0 * (math.log10(s.size) + 2.0 * math.log10(s.peak) - math.log10(s.err_sq))


def error_metrics(a, ahat) -> Tuple[float, float]:
    """(relative_error(a, ahat), psnr(a, ahat)) from one sum of a's
    squares and one pass over both tensors; raises InvalidArgumentError
    when a has zero norm."""
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
    reference returns -inf, as sentinels; so does an error whose squares
    pass float64's range, where relative_error reads inf.
    """
    return _psnr(_sums(a, ahat))
