"""Matrix kernels used by the decomposition sweeps.

Thin wrappers around LAPACK via numpy plus the pieces numpy does not
ship: seeded Gaussian test matrices with a stable column layout, the
left power iteration behind tt_rsi and the block Krylov basis behind
tt_rbki.  The wide unfoldings that dominate a sweep (20 x 160000 at the
first step of a 20^5 tensor) are never factored on their long side:
tt_svd takes them through the Gram matrix G = A A^T, and so do the
randomized sweeps wherever _power_step_gram's cost rule says so, while
the Krylov routines start from the sweep's sketch basis Z_0 and factor
only blocks with as many rows as the unfolding, multiplying the long
side.  That leaves svd the sketches Y, rows x (r + p), which are wide
only where r + p exceeds the rows, and the steps the energy test
refuses; its R-only QR of a wide matrix sees little else.

Every Gram matrix in the sweeps, G = A A^T, tt_svd's A^T A of a tall
step and the Ritz step's B B^T, is formed with its descending
eigendecomposition in _gram_eigh, and _gram_resolves, the one energy
test, says whether G serves a step that keeps k directions.
_power_step_gram decides, once per randomized sweep step and by one
cost rule for all three randomized sweeps, whether the step goes through
G, asking the test at the sketch width w; where it does, the sweep draws
its sketch in the row space, from G's eigendecomposition, and the power
steps multiply G.  tt_svd asks the test at its rank r on every step,
of the Gram matrix of the unfolding's short side: _gram_eigh(A) on a
wide step, _gram_eigh(A^T), H = A^T A, on a tall one.  Where it passes,
the step keeps the top r eigenvectors of G, or orthonormalizes A V_r
from those of H; where it fails, the step has formed the Gram matrix
for nothing and takes svd.
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
    """(G, lam, U): G = A A^T and its eigendecomposition G = U diag(lam)
    U^T, eigenvalues in descending order, negative rounding kept.  lam
    and U are reversed views of eigh's ascending output."""
    G = A @ A.T
    lam, U = np.linalg.eigh(G)
    return G, lam[::-1], U[:, ::-1]


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
    less through G = A A^T than through a drawn sketch, A rows x cols.

    Drawn: cols w normals, the sketch A Omega (2 rows cols w flops), and
    per power step the products A (A^T Z) (4 rows cols w flops, two
    passes over A).  Through G: rows^2 cols flops for G, its eigh and a
    fixed cost; the rows w normals, R Omega'' and G Z are small enough to
    leave out.  The pass that forms A Omega and the one that forms G
    cancel."""
    drawn = cols * w * _DRAW_NS + rows * cols * ((2 + 4 * q) * w * _FLOP_NS + 2 * q * _PASS_NS)
    gram = rows * rows * (cols * _FLOP_NS + _EIGH_NS) + _GRAM_STEP_NS
    return gram < drawn


def _power_step_gram(A, w: int, q: int):
    """(G, R) with G = A A^T = R R^T when a sweep step with a sketch of
    width w and q power steps goes through G, else (None, None).

    One rule for all three randomized sweeps: tt_rsvd asks it with q = 0,
    tt_rsi and tt_rbki with their q, so tt_rsvd's decision, and with it
    its cores, does not depend on q.  Through G the step reads the long
    side of A once, in the one pass that forms G, and draws rows w
    normals in place of cols w; the power steps multiply G, where the
    products A (A^T Z) read A twice per step.  G is taken when all hold:

    - A is wide and w < rows.  A Z_0 as wide as A has rows already spans
      them, so the power steps cannot change the Ritz vectors, and with no
      energy beyond w directions nothing bounds what G's rounding costs:
      tt_rsvd, which keeps Z_0's leading columns with no Ritz step on A,
      would carry it into exactly low-rank input (errors of 3e-9 to 1e-8
      where the drawn sketch gives 1e-15).
    - _gram_is_cheaper(rows, cols, w, q).
    - _gram_resolves(lam, w), the energy test tt_svd shares: the energy
      of A beyond its top w singular directions is at least
      _GRAM_TAIL ||A||_F^2.  The products round to about eps ||A||
      sigma_i along the i-th direction, G to about eps ||A||_F^2 in
      every one, so without the test tt_rsi's residual would floor at
      about 1e-9 ||A|| through G.

    R = U sqrt(Lambda) comes from the one eigendecomposition
    G = U Lambda U^T, _gram_eigh's, that also gives the energy test its
    eigenvalues (negative rounding clamped to 0).  With A = U Sigma V^T,
    A Omega = U Sigma (V^T Omega), and V^T Omega is itself a rows x w
    standard Gaussian for a cols x w Gaussian Omega: so R Omega'' for a
    rows x w Gaussian Omega'' has exactly the distribution of the sketch
    A Omega, and the sweep draws that one instead.  The Ritz step of tt_rsi and
    tt_rbki reads A itself either way.
    """
    rows, cols = A.shape
    if rows >= cols or w >= rows or not _gram_is_cheaper(rows, cols, w, q):
        return None, None
    G, lam, U = _gram_eigh(A)
    if not _gram_resolves(lam, w):
        return None, None
    # R keeps eigh's ascending column order, on which the seeded draws
    # R Omega'' are defined
    return G, U[:, ::-1] * np.sqrt(np.maximum(lam[::-1], 0.0))


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

    A Z0 as wide as A has rows already spans them, so no power step can
    change the Ritz vectors, and the blocks are [Z0] alone: no product
    with A is taken.  The sweep still draws and factors the sketch on
    such a step, so the rng stream, and with it every later step's draw,
    is the one it would be with the power steps.
    """
    blocks = [Z0]
    if Z0.shape[1] >= A.shape[0]:
        return blocks
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
