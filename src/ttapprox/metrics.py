"""Reconstruction quality metrics."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError


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


def relative_error(a, ahat) -> float:
    """||a - ahat||_F / ||a||_F against the reference a."""
    a, ahat = _pair(a, ahat)
    ref = frobenius_norm(a)
    if ref == 0.0:
        raise InvalidArgumentError("reference tensor has zero norm")
    return frobenius_norm(a - ahat) / ref


def psnr(a, ahat) -> float:
    """10 log10(numel * max|ahat|^2 / ||a - ahat||_F^2) in dB.

    The peak is taken over the reconstruction ahat and the entry count
    generalizes the order-3 I1*I2*I3 factor to any order.  Identical
    inputs return +inf as a sentinel.
    """
    a, ahat = _pair(a, ahat)
    err_sq = float(np.sum((a - ahat) ** 2))
    if err_sq == 0.0:
        return math.inf
    peak = float(np.max(np.abs(ahat)))
    if peak == 0.0:
        return -math.inf
    return 10.0 * math.log10(a.size * peak * peak / err_sq)
