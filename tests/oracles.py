"""Reference quantities the tests check the library against."""

import numpy as np


def tail_energy(A, j: int) -> float:
    """tau_j(A) = sqrt(sum_{i>=j} sigma_i^2), 1-based; 0 beyond min(m,n)."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    s = np.linalg.svd(np.asarray(A, dtype=np.float64), compute_uv=False)
    if j > len(s):
        return 0.0
    return float(np.sqrt(np.sum(s[j - 1 :] ** 2)))


def stack_krylov_basis(M, Z0, q):
    """tt_rbki's basis from one QR of the stacked blocks of
    linalg.krylov_blocks: columns whose R diagonal falls below 1e-12 of
    the leading one are dropped, and at most min(rows, cols, (q + 1) w)
    are kept.  It takes what the sweep passes to krylov_basis: the step's
    unfolding or its R, and the sketch basis Z0, w columns wide."""
    from ttapprox.linalg import krylov_blocks

    S, R = np.linalg.qr(np.hstack(krylov_blocks(M, Z0, q)))
    diag = np.abs(np.diag(R))
    S = S[:, diag > 1e-12 * diag[0]]
    return S[:, : min(*M.shape, (q + 1) * Z0.shape[1])]
