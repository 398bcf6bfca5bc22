"""Matrix kernels used by the decomposition sweeps.

Thin wrappers around LAPACK via numpy plus the pieces numpy does not
ship: seeded Gaussian test matrices with a stable column layout, and the
left Krylov iteration behind the power-iteration and block Krylov range
finders.  The wide unfoldings that dominate a sweep (20 x 160000 at the
first step of a 20^5 tensor) are never fully factored on their long
side: svd takes a wide matrix's left factor from the small triangle of
an R-only QR, and the Krylov iteration factors only blocks with as many
rows as the unfolding while the long side is only multiplied.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidArgumentError


class SvdResult(NamedTuple):
    U: np.ndarray  # m x k, orthonormal columns
    s: np.ndarray  # k nonincreasing nonnegative singular values


def economy_qr(A):
    """Economy QR with the R diagonal normalized to be nonnegative."""
    Q, R = np.linalg.qr(A, mode="reduced")
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs, signs[:, None] * R


def svd(A) -> SvdResult:
    """Left factor and singular values of the thin SVD A = U diag(s) V^T.

    The right factor V is never formed.  A wide A (fewer rows than
    columns) goes through an R-only Householder QR of its long side,
    A^T = Q R, so A = R^T Q^T has the left factor and singular values of
    the small m x m triangle R^T; neither Q nor V is built, and both steps
    are backward stable.  Tall and square A take LAPACK's thin SVD.

    Each left singular vector is flipped so its largest-magnitude entry
    is nonnegative, which makes repeated runs comparable; subspaces and
    singular values are unaffected.
    """
    if A.shape[0] < A.shape[1]:
        R = np.linalg.qr(A.T, mode="r")
        U, s, _ = np.linalg.svd(R.T)
    else:
        U, s, _ = np.linalg.svd(A, full_matrices=False)
    flip = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])] < 0
    U[:, flip] *= -1.0
    return SvdResult(U, s)


def rank_from_tail(s, delta: float) -> int:
    """Smallest r >= 1 with sqrt(sum_{i>r} s_i^2) <= delta, for
    nonincreasing singular values s; len(s) when no r qualifies."""
    # tail_sq[r] = sum of squared singular values beyond the first r
    tail_sq = np.concatenate([np.cumsum((s**2)[::-1])[::-1], [0.0]])
    k = len(s)
    return next((r for r in range(1, k + 1) if tail_sq[r] <= delta * delta), k)


def gaussian_matrix(rows: int, cols: int, seed: Union[int, np.random.Generator]):
    """Seeded i.i.d. standard normal matrix.

    Uses numpy's PCG64 generator with its ziggurat normal transform; the
    values are drawn as one flat stream and placed column by column, so
    widening the matrix appends columns without disturbing the existing
    ones.  Identical (rows, cols, seed) gives bit-identical output.  A
    Generator may be passed instead of a seed to continue an existing
    stream.
    """
    if rows < 1 or cols < 1:
        raise InvalidArgumentError(f"shape must be positive, got ({rows}, {cols})")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.standard_normal(rows * cols).reshape((rows, cols), order="F")


def krylov_blocks(A, Omega, q: int):
    """Orthonormal blocks Z_0, ..., Z_q of the left Krylov space of A.

    Z_0 = orth(A Omega) and Z_t = orth(A (A^T Z_{t-1})): Z_t spans
    (A A^T)^t A Omega.  Every QR is of an m x w block, m the rows of A and
    w the width of Omega, so the long side of a wide A is only ever
    multiplied, never factored.  A A^T is never formed, and without the
    QRs the higher powers keep only the leading directions in float64.
    tt_rsi uses the last block, tt_rbki all of them.
    """
    blocks = [economy_qr(A @ Omega)[0]]
    for _ in range(q):
        blocks.append(economy_qr(A @ (A.T @ blocks[-1]))[0])
    return blocks
