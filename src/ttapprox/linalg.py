"""Matrix kernels used by the decomposition sweeps.

Thin wrappers around LAPACK via numpy plus the pieces numpy does not
ship: seeded Gaussian test matrices with a stable column layout, the
left power iteration behind tt_rsi and the block Krylov basis behind
tt_rbki.  No sweep factors an unfolding on its long side: tt_svd takes
every step through the Gram matrix of the short side, and the randomized
sweeps, wherever _power_step_gram's cost rule and energy test say so,
run their range finder on that Gram matrix's factor M, short x short,
while the Krylov routines start from the sweep's sketch basis Z_0 and
factor only blocks with as many rows as their operand, multiplying the
long side.  That leaves svd the sketches Y, rows x (r + p), which are
wide only where r + p exceeds the rows, and the steps the energy test
refuses; its R-only QR of a wide matrix sees little else.

Every Gram matrix in the sweeps, A A^T of a wide step, A^T A of a tall
one and the Ritz step's B B^T, is formed with its descending
eigendecomposition in _gram_eigh, and _gram_resolves, the one energy
test, says whether it serves a step that keeps k directions.
_power_step_gram is the one short-side gate of the randomized sweeps:
once per step, by one cost rule for both orientations and all three
sweeps, it asks the test at the sketch width w and hands back
M = R = U Sigma on a wide step (R R^T = A A^T), or M = T = Sigma V^T =
U^T A with the lift V Sigma^+ on a tall one, whose basis Q_T the sweep
lifts to orth(A V Sigma^+ Q_T) with one Householder QR.  tt_svd asks the
test at its rank r on every step, of _gram_eigh(A) on a wide step and
_gram_eigh(A^T), H = A^T A, on a tall one.  Where it passes, the step
keeps the top r eigenvectors of G, or orthonormalizes A V_r from those
of H; where it fails, the step has formed the Gram matrix for nothing
and takes svd.
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
# steps of the benchmark's workloads, wide and tall, timed with the
# decision forced each way (2 vCPU, OpenBLAS 0.3.31, three runs at 1 and
# 2 threads): spectrum 100^3's 100 x 10000, 1000 x 100 and 2000 x 100,
# powerfn 20^5's 20 x 160000 to 160 x 20, every step of the CLI workload's
# nine shapes and a few tall shapes between them.  The constants of a
# wide step at q 0, tt_rsvd's ask, are the earlier fit's, so none of
# tt_rsvd's decisions moved; the pass, factorization and cache terms,
# which act only at q > 0 or on a tall step, were fitted with them held.
# The rule picks the faster side of every workload step at q 2 whose six
# runs agreed.  The constants are fitted, not measured kernel costs: eigh
# of n x n takes about 55 n^2 ns and a QR about 1 ns per m w^2
_DRAW_NS = 19.0  # one standard normal
_FLOP_NS = 0.02  # one flop of a product with A or of forming a Gram matrix
_PASS_NS = 1.5  # one read of an entry of A by a product, beyond the cache
_CACHE_ENTRIES = 2**18  # float64 entries in 2 MiB, the L2 of one core there
_FACTOR_NS = 4.0  # a QR or SVD of an m x w block, per m w^2
_EIGH_NS = 250.0  # eigh of the short side's Gram matrix and M, per entry
_GRAM_STEP_NS = 60e3  # the rest of the Gram side, once per step


def _gram_is_cheaper(rows: int, cols: int, w: int, q: int) -> bool:
    """Whether a step with a sketch of width w and q power steps costs
    less through the Gram factor M of A's short side than through a drawn
    sketch and the products, A rows x cols.  One model for both
    orientations.

    Drawn: the sketch A Omega (2 rows cols w flops), per power step the
    products A (A^T Z) (4 rows cols w flops and two passes over A, priced
    only for an A beyond the cache, whose passes cost little), q + 1
    factorizations of rows x w blocks, and for q > 0 the Ritz step's
    B B^T (2 w^2 cols flops).  Through M: short^2 long flops for the Gram
    matrix, its eigh, a fixed cost and q + 1 factorizations of short x w
    blocks.  A wide step draws cols w normals for the drawn sketch and
    rows w, left out, for R's; a tall (or square) step draws the same
    cols w through either and adds the lift, a product with A (2 rows
    cols w flops, one pass) and one QR of a rows x w block.  Left out as
    even: the pass that forms A Omega and the one that forms the Gram
    matrix, the Ritz step's B = S^T A and the carry Q^T A through M, and
    the products with M.  So a wide step's factorizations cancel, a tall
    one's are what the Gram side saves, and at q = 0 a tall step costs
    more through M by construction."""
    short, long_ = sorted((rows, cols))
    pass_ns = _PASS_NS if rows * cols > _CACHE_ENTRIES else 0.0
    drawn = (
        rows * cols * ((2 + 4 * q) * w * _FLOP_NS + 2 * q * pass_ns)
        + (q + 1) * rows * w * w * _FACTOR_NS
        + (q > 0) * 2 * w * w * cols * _FLOP_NS
    )
    gram = (
        short * short * (long_ * _FLOP_NS + _EIGH_NS)
        + _GRAM_STEP_NS
        + (q + 1) * short * w * w * _FACTOR_NS
    )
    if rows < cols:
        drawn += cols * w * _DRAW_NS
    else:
        gram += rows * cols * (2 * w * _FLOP_NS + pass_ns) + rows * w * w * _FACTOR_NS
    return gram < drawn


def _power_step_gram(A, w: int, q: int):
    """(M, lift) when a sweep step with a sketch of width w and q power
    steps runs its range finder on the Gram factor M of A's short side in
    place of A, else None.

    One gate for both orientations and all three randomized sweeps:
    tt_rsvd asks it with q = 0, tt_rsi and tt_rbki with their q, so
    tt_rsvd's decision, and with it its cores, does not depend on q.  It
    takes (lam, W) = _gram_eigh of the short side, A on a wide step and
    A^T on a tall (or square) one, and with A = U Sigma V^T,
    Sigma = sqrt(lam):

    - wide: M = R = U Sigma, rows x rows, and lift is None.  Every
      left-side quantity of the step, the sketch, the power steps and the
      Ritz vectors, reads R as it would A, since R R^T = A A^T, and the
      step draws rows w normals in place of cols w.
    - tall: M = T = Sigma V^T = U^T A, cols x cols, A in the coordinates
      of its left singular vectors, and lift = V Sigma^+.  The step draws
      the cols x w Omega the products would, T Omega = U^T (A Omega), so
      the range finder and the Ritz step give the coordinates Q_T of the
      basis A's would, and the sweep lifts them to Q = orth(A lift Q_T)
      = orth(U Q_T) with one Householder QR.  Sigma^+ drops the singular
      values at rounding level, lam_i at most cols eps lam_1, so a rank
      deficient A lifts to no NaN.

    Either way the step reads the long side of A to form the Gram matrix
    and for the carry Q^T A, and, on a tall step, for the lift; every
    factorization of the range finder is of a short x w block.  M is
    taken when all hold:

    - w < min(rows, cols).  A Z_0 as wide as the short side already spans
      it, so the power steps cannot change the Ritz vectors, and with no
      energy beyond w directions nothing bounds what the Gram matrix's
      rounding costs: tt_rsvd, which keeps Z_0's leading columns with no
      Ritz step, would carry it into exactly low-rank input (errors of
      3e-9 to 1e-8 where the drawn sketch gives 1e-15).
    - _gram_is_cheaper(rows, cols, w, q).
    - _gram_resolves(lam, w), the energy test tt_svd shares: the energy
      of A beyond its top w singular directions is at least
      _GRAM_TAIL ||A||_F^2.  The products round to about eps ||A||
      sigma_i along the i-th direction, the Gram matrix, and with it M,
      to about eps ||A||_F^2 in every one, so without the test tt_rsi's
      residual would floor at about 1e-9 ||A|| through M.

    The one eigendecomposition gives the energy test its eigenvalues
    (negative rounding clamped to 0) and M.  On a wide step,
    A Omega = U Sigma (V^T Omega), and V^T Omega is itself a rows x w
    standard Gaussian for a cols x w Gaussian Omega: so R Omega'' for a
    rows x w Gaussian Omega'' has exactly the distribution of the sketch
    A Omega, and the sweep draws that one instead.
    """
    rows, cols = A.shape
    if w >= min(rows, cols) or not _gram_is_cheaper(rows, cols, w, q):
        return None
    wide = rows < cols
    lam, W = _gram_eigh(A if wide else A.T)
    if not _gram_resolves(lam, w):
        return None
    s = np.sqrt(np.maximum(lam, 0.0))
    if wide:
        # R keeps eigh's ascending column order, on which the seeded draws
        # R Omega'' are defined
        return W[:, ::-1] * s[::-1], None
    # Sigma^+ keeps what eigh of the cols x cols H resolves: lam_i above
    # cols eps lam_1
    resolved = lam > cols * np.finfo(np.float64).eps * lam[0]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=resolved)
    return s[:, None] * W.T, W * inv


def krylov_blocks(M, Z0, q: int):
    """Orthonormal blocks Z_0, ..., Z_q of the power iteration, tt_rsi's
    range finder.

    M is the step's unfolding A, or the M of _power_step_gram: R, which
    has M M^T = A A^T, or T = U^T A, whose blocks are A's in the
    coordinates of its left singular vectors.  Z0 is the sweep's
    orthonormal sketch basis, spanning M Omega, and
    Z_t = orth(M M^T Z_{t-1}) spans (M M^T)^t M Omega.
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

    M is A, R or T, as for krylov_blocks.  Z0 is the sweep's orthonormal
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
    width of Z0, or at a block with no direction left; R and T, square
    on A's short side, give the cap A would.  Every factorization is of
    an m x w block, m the rows of M, and none is repeated: the stack of
    all blocks is never factored.
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
