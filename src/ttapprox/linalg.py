"""Matrix kernels used by the decomposition sweeps.

Thin wrappers around LAPACK via numpy plus the two pieces numpy does not
ship: seeded Gaussian test matrices with a stable column layout, and the
block Krylov range finder.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import InvalidArgumentError

# columns of the stacked Krylov basis whose R diagonal falls below this
# fraction of the leading one carry no new direction and are dropped
_KRYLOV_DROP_TOL = 1e-12


class SvdResult(NamedTuple):
    U: np.ndarray  # m x k, orthonormal columns
    s: np.ndarray  # k nonincreasing nonnegative singular values
    V: np.ndarray  # n x k, orthonormal columns
    rank: int


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise InvalidArgumentError(f"expected a matrix, got ndim={A.ndim}")
    return A


def economy_qr(A):
    """Economy QR with the R diagonal normalized to be nonnegative."""
    A = _as_matrix(A)
    Q, R = np.linalg.qr(A, mode="reduced")
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs, signs[:, None] * R


def svd(A) -> SvdResult:
    """Thin SVD A = U diag(s) V^T.

    Each left singular vector is flipped so its largest-magnitude entry
    is nonnegative, which makes repeated runs comparable; subspaces and
    singular values are unaffected.
    """
    A = _as_matrix(A)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    flip = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])] < 0
    U[:, flip] *= -1.0
    Vt[flip, :] *= -1.0
    return SvdResult(U, s, Vt.T, len(s))


def truncated_svd(A, delta: Optional[float] = None, rank: Optional[int] = None) -> SvdResult:
    """SVD truncated either to accuracy delta or to a fixed rank.

    In delta mode the returned rank is the smallest r with
    sqrt(sum_{i>r} s_i^2) <= delta, never less than 1.
    """
    if (delta is None) == (rank is None):
        raise InvalidArgumentError("exactly one of delta or rank must be given")
    A = _as_matrix(A)
    full = svd(A)
    k = full.rank
    if rank is not None:
        if not 1 <= rank <= k:
            raise InvalidArgumentError(f"rank must be in 1..{k}, got {rank}")
        r = int(rank)
    else:
        if delta < 0:
            raise InvalidArgumentError(f"delta must be >= 0, got {delta}")
        r = rank_from_tail(full.s, delta)
    return SvdResult(full.U[:, :r], full.s[:r], full.V[:, :r], r)


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


def block_krylov_basis(A, Omega, q: int, naive: bool = False, include_zeroth: bool = False):
    """Orthonormal basis of span([A^T A Omega, ..., (A^T A)^q Omega]).

    Blocks are built iteratively as B_1 = A^T (A Omega),
    B_t = A^T (A B_{t-1}); A^T A is never formed.  By default each block
    is orthonormalized before the next power is taken (the stacked high
    powers are otherwise hopelessly ill-conditioned) and near-dependent
    columns of the final stack are dropped.  With naive=True the raw
    stack gets one QR, nothing more.  include_zeroth prepends Omega
    itself as a block.
    """
    A = _as_matrix(A)
    Omega = _as_matrix(Omega)
    if Omega.shape[0] != A.shape[1]:
        raise InvalidArgumentError(
            f"Omega has {Omega.shape[0]} rows, expected {A.shape[1]}"
        )
    if q < 1:
        raise InvalidArgumentError(f"q must be >= 1, got {q}")

    blocks = []
    if include_zeroth:
        blocks.append(Omega if naive else economy_qr(Omega)[0])
    B = Omega
    for _ in range(q):
        B = A.T @ (A @ B)
        if not naive:
            B = economy_qr(B)[0]
        blocks.append(B)

    nblocks = q + (1 if include_zeroth else 0)
    cap = min(A.shape[0], A.shape[1], nblocks * Omega.shape[1])
    Q, R = economy_qr(np.hstack(blocks))
    if not naive:
        diag = np.abs(np.diag(R))
        Q = Q[:, diag > _KRYLOV_DROP_TOL * diag[0]]
    return Q[:, :cap]


def tail_energy(A, j: int) -> float:
    """tau_j(A) = sqrt(sum_{i>=j} sigma_i^2), 1-based; 0 beyond min(m,n)."""
    if j < 1:
        raise InvalidArgumentError(f"j must be >= 1, got {j}")
    A = _as_matrix(A)
    s = np.linalg.svd(A, compute_uv=False)
    if j > len(s):
        return 0.0
    return float(np.sqrt(np.sum(s[j - 1 :] ** 2)))
