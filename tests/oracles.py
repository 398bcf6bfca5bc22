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
