"""Matrix kernels used by the decomposition sweeps.

Thin wrappers around LAPACK via numpy plus the pieces numpy does not
ship: seeded Gaussian test matrices with a stable column layout, the
left power iteration behind tt_rsi and the block Krylov basis behind
tt_rbki.  The wide unfoldings that dominate a sweep (20 x 160000 at the
first step of a 20^5 tensor) are never fully factored on their long
side: svd takes a wide matrix's left factor from the small triangle of
an R-only QR, and the Krylov routines start from the sweep's sketch
basis Z_0 and factor only blocks with as many rows as the unfolding,
while the long side is only multiplied.  _power_step_gram decides, once
per sweep step, whether the power steps go through G = A A^T; where they
do, the sweep also draws its sketch in the row space, from G's
eigendecomposition.
"""


from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidArgumentError


class SvdResult(NamedTuple):
    U: np.ndarray  # m x k, orthonormal columns
    s: np.ndarray  # k nonincreasing nonnegative singular values


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


# the least energy of A beyond its top w singular directions, as a
# fraction of ||A||_F^2, with which the power steps go through G = A A^T
_GRAM_TAIL = 1e-10


def _power_step_gram(A, w: int, q: int):
    """(G, R) with G = A A^T = R R^T when q power steps on blocks of width
    w take G, else (None, None).

    Through G the power steps read the long side of A once, in one pass
    that forms G, where the products A (A^T Z) read it twice per step.
    G is taken when both hold:

    - A is wide and cheaper to multiply through G: forming G costs about
      rows^2 cols flops against 4 q rows cols w for the products, so
      rows < 4 q w (never when q = 0).
    - w >= rows (every block then spans the whole row space), or the
      energy of A beyond its top w singular directions is at least
      _GRAM_TAIL ||A||_F^2.  G rounds to about eps ||A||_F^2 in every
      direction, the products to about eps ||A|| sigma_i along the i-th,
      so G does not resolve directions below about sqrt(eps) ||A||, and
      through it tt_rsi's residual would floor at about 1e-9 ||A||.  That
      energy is a floor under the residual of every rank r <= w, so while
      it stays far above what G loses, G costs the sweep nothing.

    R = U sqrt(Lambda) comes from the one eigendecomposition
    G = U Lambda U^T that also gives the energy test its eigenvalues
    (negative rounding clamped to 0).  With A = U Sigma V^T, A Omega =
    U Sigma (V^T Omega), and V^T Omega is itself a rows x w standard
    Gaussian for a cols x w Gaussian Omega: so R Omega'' for a rows x w
    Gaussian Omega'' has exactly the distribution of the sketch A Omega,
    and the sweep draws that one instead.  The Ritz step reads A itself
    either way.
    """
    rows, cols = A.shape
    if rows >= cols or rows >= 4 * q * w:
        return None, None
    G = A @ A.T
    lam, U = np.linalg.eigh(G)  # ascending
    if w < rows and np.sum(lam[: rows - w]) < _GRAM_TAIL * np.sum(lam):
        return None, None
    return G, U * np.sqrt(np.maximum(lam, 0.0))


def _power_step(A, G, Z):
    """A A^T Z, through G when it is given."""
    return G @ Z if G is not None else A @ (A.T @ Z)


def krylov_blocks(A, Z0, q: int, G):
    """Orthonormal blocks Z_0, ..., Z_q of the power iteration, tt_rsi's
    range finder.

    Z0 is the sweep's orthonormal sketch basis, spanning A Omega, and
    Z_t = orth(A A^T Z_{t-1}) spans (A A^T)^t A Omega.  Every QR is of an
    m x w block, m the rows of A and w the width of Z0, so the long side
    of a wide A is never factored.  G is A A^T where the power steps go
    through it (_power_step_gram's decision), else None.  Without the QRs
    the higher powers would keep only the leading directions in float64.
    """
    blocks = [Z0]
    for _ in range(q):
        blocks.append(np.linalg.qr(_power_step(A, G, blocks[-1]))[0])
    return blocks


# a Krylov block's remainder after projection against the basis so far:
# a direction below _KRYLOV_DROP_TOL times the block's largest column norm
# before projection carries no new direction and is dropped; one below
# _KRYLOV_REPROJECT (about sqrt(eps)) times it is projected once more
_KRYLOV_DROP_TOL = 1e-12
_KRYLOV_REPROJECT = 1e-8


def krylov_basis(A, Z0, q: int, G):
    """Orthonormal basis of the depth-q block Krylov space
    span([A Omega, (A A^T) A Omega, ..., (A A^T)^q A Omega]), tt_rbki's
    range finder, built block by block.

    Z0 is the sweep's orthonormal sketch basis, spanning A Omega, and is
    kept whole.  Each power step multiplies only the newest block,
    Y = A A^T Z_{t-1} (as G Z_{t-1} where G = A A^T is given, as for
    krylov_blocks), and projects Y against the basis so far twice: block
    classical Gram-Schmidt with one re-orthogonalization, which leaves
    the remainder orthogonal to the basis to about eps ||Y||.  The new
    block is the remainder's left singular vectors.  One whose singular
    value is below 1e-12 of Y's largest column norm is rounding, not a
    new direction, and is dropped; the SVD drops it as a direction,
    where dropping a column would also lose the later columns' share of
    it.  If a kept one is below 1e-8, about sqrt(eps), of that norm, the
    projection left it off the basis by up to about eps / 1e-8, so the
    block is projected once more.  The basis stops at
    min(rows, cols, (q + 1) w) columns, w the width of Z0, or at a
    block with no direction left.  Every factorization is of an m x w
    block, m the rows of A, and none is repeated: the stack of all blocks
    is never factored.
    """
    rows, cols = A.shape
    cap = min(rows, cols, (q + 1) * Z0.shape[1])
    Z = S = Z0[:, :cap]
    for _ in range(q):
        if S.shape[1] >= cap:
            break
        Y = _power_step(A, G, Z)
        scale = np.max(np.linalg.norm(Y, axis=0))
        for _ in range(2):
            Y -= S @ (S.T @ Y)
        U, d, _ = np.linalg.svd(Y, full_matrices=False)
        kept = min(np.count_nonzero(d > _KRYLOV_DROP_TOL * scale), cap - S.shape[1])
        if not kept:
            break
        Z = U[:, :kept]
        if d[kept - 1] < _KRYLOV_REPROJECT * scale:
            Z = np.linalg.qr(Z - S @ (S.T @ Z))[0]
        S = np.hstack([S, Z])
    return S
