"""Matrix kernels used by the decomposition sweeps.

Thin wrappers around LAPACK via numpy plus the pieces numpy does not
ship: seeded Gaussian test matrices with a stable column layout, the
left power iteration behind tt_rsi and the block Krylov basis behind
tt_rbki.  The wide unfoldings that dominate a sweep (20 x 160000 at the
first step of a 20^5 tensor) are never factored on their long side:
tt_svd takes them through the Gram matrix G = A A^T, and the randomized
sweeps, wherever _power_step_gram's cost rule says so, through its
square root R, while the Krylov routines start from the sweep's sketch
basis Z_0 and factor only blocks with as many rows as the unfolding,
multiplying the long side.  That leaves svd the sketches Y, rows x
(r + p), which are wide only where r + p exceeds the rows, and the
steps the energy test refuses; its R-only QR of a wide matrix sees
little else.

Every Gram matrix in the sweeps, G = A A^T, tt_svd's A^T A of a tall
step and the Ritz step's B B^T, is formed with its descending
eigendecomposition in _gram_eigh, and _gram_resolves, the one energy
test, says whether G serves a step that keeps k directions.
_power_step_gram decides, once per randomized sweep step and by one
cost rule for all three randomized sweeps, whether the step reads R in
place of A, asking the test at the sketch width w.  tt_svd asks the
test at its rank r on every step, of the Gram matrix of the unfolding's
short side: _gram_eigh(A) on a wide step, _gram_eigh(A^T), H = A^T A,
on a tall one.  Where it passes, the step keeps the top r eigenvectors
of G, or orthonormalizes A V_r from those of H; where it fails, the
step has formed the Gram matrix for nothing and takes svd.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from .errors import _check_indexable, _int


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
    return SvdResult(_fix_signs(U), s)


def _fix_signs(U):
    """U, each column flipped in place so that its largest-magnitude
    entry is nonnegative."""
    flip = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])] < 0
    U[:, flip] *= -1.0
    return U


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
    rows, cols = _int(rows, "rows", 1), _int(cols, "cols", 1)
    _check_indexable((rows, cols))
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(_int(seed, "seed", 0))
    return rng.standard_normal(rows * cols).reshape((rows, cols), order="F")


def _gram_eigh(A):
    """(lam, U): the eigendecomposition A A^T = U diag(lam) U^T,
    eigenvalues in descending order, negative rounding kept.  lam and U
    are reversed views of eigh's ascending output."""
    lam, U = np.linalg.eigh(A @ A.T)
    return lam[::-1], U[:, ::-1]


# the least energy of A beyond the directions a step keeps, as a
# fraction of ||A||_F^2, with which the step may go through G = A A^T
_GRAM_TAIL = 1e-10


def _gram_resolves(lam, k: int) -> bool:
    """Whether G = A A^T, eigenvalues lam in descending order, serves a
    step that keeps the top k directions of A: the one energy test behind
    both Gram paths, _power_step_gram at k = w and tt_svd at its rank.
    A^T A has the same nonzero eigenvalues, so tt_svd asks it of either.

    The energy of A beyond its top k singular directions, the sum of
    lam[k:], must be at least _GRAM_TAIL ||A||_F^2.  G rounds to about
    eps ||A||_F^2 in every direction, so it does not resolve directions
    below about sqrt(eps) ||A|| (Demmel & Veselic, SIMAX 1992), and a
    basis taken from it leaves a residual^2 off by about
    eps^2 ||A||^4 / sigma_k^2.  That energy is a floor under the residual
    of every rank up to k, so while it stays far above what G loses, G
    costs the step nothing.  A zero A passes."""
    return np.sum(lam[k:]) >= _GRAM_TAIL * np.sum(lam)


# _power_step_gram's cost model of one sweep step, in ns.  Fitted on the
# wide steps of the benchmark's workloads (20 x 160000 down to 15 x 25,
# q 0 to 3), timed with the decision forced each way (2 vCPU, OpenBLAS
# 0.3.31, three runs at 1 and 2 threads).  Of the steps whose faster side
# all three runs agree on, it picks that side on all but four, each off
# by about 1 ms or less: 40 x 2500 at q 2 and 3 and 30 x 1000 at q 3,
# where an A that fits in cache makes the products cheaper than a pass,
# and 80 x 8000 at q 1
_DRAW_NS = 19.0  # one standard normal
_FLOP_NS = 0.02  # one flop of a product with A or of forming G
_PASS_NS = 1.0  # one read of an entry of A by a product with a thin block
_EIGH_NS = 250.0  # eigh(G) and R, per entry of G
_GRAM_STEP_NS = 60e3  # the rest of the Gram side, once per step


def _gram_is_cheaper(rows: int, cols: int, w: int, q: int) -> bool:
    """Whether a step with a sketch of width w and q power steps costs
    less through R, R R^T = G = A A^T, than through a drawn sketch, A
    rows x cols.

    Drawn: cols w normals, the sketch A Omega (2 rows cols w flops), and
    per power step the products A (A^T Z) (4 rows cols w flops, two
    passes over A).  Through R: rows^2 cols flops for G, its eigh and a
    fixed cost; the rows w normals and the products with the rows x rows
    R are small enough to leave out.  The pass that forms A Omega and the
    one that forms G cancel."""
    drawn = cols * w * _DRAW_NS + rows * cols * ((2 + 4 * q) * w * _FLOP_NS + 2 * q * _PASS_NS)
    gram = rows * rows * (cols * _FLOP_NS + _EIGH_NS) + _GRAM_STEP_NS
    return gram < drawn


def _power_step_gram(A, w: int, q: int):
    """R with R R^T = G = A A^T when a sweep step with a sketch of width w
    and q power steps reads R in place of A, else None.

    One rule for all three randomized sweeps: tt_rsvd asks it with q = 0,
    tt_rsi and tt_rbki with their q, so tt_rsvd's decision, and with it
    its cores, does not depend on q.  R is rows x rows, and every
    left-side quantity of the step, the sketch, the power steps and the
    Ritz vectors, reads R as it would A: R R^T = A A^T.  So the step
    reads the long side of A twice, to form G and for the carry, and
    draws rows w normals in place of cols w.  R is taken when all hold:

    - A is wide and w < rows.  A Z_0 as wide as A has rows already spans
      them, so the power steps cannot change the Ritz vectors, and with no
      energy beyond w directions nothing bounds what G's rounding costs:
      tt_rsvd, which keeps Z_0's leading columns with no Ritz step,
      would carry it into exactly low-rank input (errors of 3e-9 to 1e-8
      where the drawn sketch gives 1e-15).
    - _gram_is_cheaper(rows, cols, w, q).
    - _gram_resolves(lam, w), the energy test tt_svd shares: the energy
      of A beyond its top w singular directions is at least
      _GRAM_TAIL ||A||_F^2.  The products round to about eps ||A||
      sigma_i along the i-th direction, G, and with it R, to about
      eps ||A||_F^2 in every one, so without the test tt_rsi's residual
      would floor at about 1e-9 ||A|| through R.

    R = U sqrt(Lambda) comes from the one eigendecomposition
    G = U Lambda U^T, _gram_eigh's, that also gives the energy test its
    eigenvalues (negative rounding clamped to 0).  With A = U Sigma V^T,
    A Omega = U Sigma (V^T Omega), and V^T Omega is itself a rows x w
    standard Gaussian for a cols x w Gaussian Omega: so R Omega'' for a
    rows x w Gaussian Omega'' has exactly the distribution of the sketch
    A Omega, and the sweep draws that one instead.
    """
    rows, cols = A.shape
    if rows >= cols or w >= rows or not _gram_is_cheaper(rows, cols, w, q):
        return None
    lam, U = _gram_eigh(A)
    if not _gram_resolves(lam, w):
        return None
    # R keeps eigh's ascending column order, on which the seeded draws
    # R Omega'' are defined
    return U[:, ::-1] * np.sqrt(np.maximum(lam[::-1], 0.0))


def krylov_blocks(M, Z0, q: int):
    """Orthonormal blocks Z_0, ..., Z_q of the power iteration, tt_rsi's
    range finder.

    M is the step's unfolding A, or the R of _power_step_gram, which has
    M M^T = A A^T.  Z0 is the sweep's orthonormal sketch basis, spanning
    M Omega, and Z_t = orth(M M^T Z_{t-1}) spans (M M^T)^t M Omega.
    Every QR is of an m x w block, m the rows of M and w the width of
    Z0, so the long side of a wide M is never factored.  Without the QRs
    the higher powers would keep only the leading directions in float64.

    M Z0 as wide as M has rows already spans them, so no power step can
    change the Ritz vectors, and the blocks are [Z0] alone: no product
    with M is taken.  The sweep still draws and factors the sketch on
    such a step, so the rng stream, and with it every later step's draw,
    is the one it would be with the power steps.
    """
    blocks = [Z0]
    if Z0.shape[1] >= M.shape[0]:
        return blocks
    for _ in range(q):
        blocks.append(np.linalg.qr(M @ (M.T @ blocks[-1]))[0])
    return blocks


# a Krylov block's remainder after projection against the basis so far:
# a direction below _KRYLOV_DROP_TOL times the block's largest column norm
# before projection carries no new direction and is dropped; one below
# _KRYLOV_REPROJECT (about sqrt(eps)) times it is orthonormalized again
# after its last projection
_KRYLOV_DROP_TOL = 1e-12
_KRYLOV_REPROJECT = 1e-8


def krylov_basis(M, Z0, q: int):
    """Orthonormal basis of the depth-q block Krylov space
    span([M Omega, (M M^T) M Omega, ..., (M M^T)^q M Omega]), tt_rbki's
    range finder, built block by block.

    M is A or R, as for krylov_blocks.  Z0 is the sweep's orthonormal
    sketch basis, spanning M Omega, and is kept whole.  Each power step
    multiplies only the newest block, Y = M M^T Z_{t-1}, and projects Y
    against the basis so far twice: block classical Gram-Schmidt with
    one re-orthogonalization, which leaves the remainder orthogonal to
    the basis to about eps ||Y||.  The new block is the remainder's left
    singular vectors.  One whose singular value is below 1e-12 of Y's
    largest column norm is rounding, not a new direction, and is
    dropped; the SVD drops it as a direction, where dropping a column
    would also lose the later columns' share of it.  A kept direction of
    singular value d is left off the basis by up to about eps ||Y|| / d,
    so every kept block is projected once more; if d is below 1e-8,
    about sqrt(eps), of that norm, the block is then orthonormalized
    again.  The basis stops at min(rows, cols, (q + 1) w) columns, w the
    width of Z0, or at a block with no direction left; R, rows x rows,
    gives the cap A would, since only a wide A has an R.  Every
    factorization is of an m x w block, m the rows of M, and none is
    repeated: the stack of all blocks is never factored.
    """
    rows, cols = M.shape
    cap = min(rows, cols, (q + 1) * Z0.shape[1])
    Z = S = Z0[:, :cap]
    for _ in range(q):
        if S.shape[1] >= cap:
            break
        Y = M @ (M.T @ Z)
        scale = np.max(np.linalg.norm(Y, axis=0))
        for _ in range(2):
            Y -= S @ (S.T @ Y)
        U, d, _ = np.linalg.svd(Y, full_matrices=False)
        kept = min(np.count_nonzero(d > _KRYLOV_DROP_TOL * scale), cap - S.shape[1])
        if not kept:
            break
        Z = U[:, :kept]
        Z -= S @ (S.T @ Z)
        if d[kept - 1] < _KRYLOV_REPROJECT * scale:
            Z = np.linalg.qr(Z)[0]
        S = np.hstack([S, Z])
    return S
