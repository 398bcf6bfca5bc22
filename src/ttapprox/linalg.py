"""Matrix kernels used by the decomposition sweeps.

Thin wrappers around LAPACK via numpy plus the pieces numpy does not
ship: seeded Gaussian test matrices with a stable column layout, and the
subspace iteration behind the power-iteration and block Krylov range
finders.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidArgumentError

# columns of the stacked Krylov basis whose R diagonal falls below this
# fraction of the leading one carry no new direction and are dropped
_KRYLOV_DROP_TOL = 1e-12


class SvdResult(NamedTuple):
    U: np.ndarray  # m x k, orthonormal columns
    s: np.ndarray  # k nonincreasing nonnegative singular values


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
    """Left factor and singular values of the thin SVD A = U diag(s) V^T.

    Each left singular vector is flipped so its largest-magnitude entry
    is nonnegative, which makes repeated runs comparable; subspaces and
    singular values are unaffected.
    """
    A = _as_matrix(A)
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


def power_blocks(A, Omega, q: int):
    """Orthonormal bases W_1, ..., W_q of (A^T A)^t Omega, t = 1..q.

    Subspace iteration with a QR after every product with A or A^T:
    Z_t = orth(A W_{t-1}), W_t = orth(A^T Z_t), W_0 = Omega.  A^T A is
    never formed, and without the QRs the higher powers keep only the
    leading directions in float64.  tt_rsi uses the last block,
    block_krylov_basis all of them.
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
    W = Omega
    for _ in range(q):
        W = economy_qr(A.T @ economy_qr(A @ W)[0])[0]
        blocks.append(W)
    return blocks


def block_krylov_basis(A, Omega, q: int):
    """Orthonormal basis of span([A^T A Omega, ..., (A^T A)^q Omega]).

    The blocks come from power_blocks; their stack gets one QR, columns
    that carry no new direction are dropped and at most
    min(m, n, q * width of Omega) columns are kept.
    """
    blocks = power_blocks(A, Omega, q)
    Q, R = economy_qr(np.hstack(blocks))
    diag = np.abs(np.diag(R))
    Q = Q[:, diag > _KRYLOV_DROP_TOL * diag[0]]
    return Q[:, : min(*np.shape(A), q * np.shape(Omega)[1])]


def tail_energy(A, j: int) -> float:
    """tau_j(A) = sqrt(sum_{i>=j} sigma_i^2), 1-based; 0 beyond min(m,n)."""
    if j < 1:
        raise InvalidArgumentError(f"j must be >= 1, got {j}")
    A = _as_matrix(A)
    s = np.linalg.svd(A, compute_uv=False)
    if j > len(s):
        return 0.0
    return float(np.sqrt(np.sum(s[j - 1 :] ** 2)))
