"""Left-to-right TT decomposition sweeps.

All four algorithms share one scaffold: unfold the carried tensor to
(r_{n-1} I_n) x (I_{n+1}...I_N), pick an orthonormal column basis Q of
target width r_n, store Q reshaped as the next core, carry Q^T A into
the next step.  They differ only in how Q is found:

  tt_svd   truncated SVD of the unfolding (deterministic)
  tt_rsvd  top r left singular vectors of the sketch A Omega
  tt_rsi   top r Ritz vectors of A in span(Z_q)
  tt_rbki  top r Ritz vectors of A in span([Z_0, ..., Z_q])

tt_svd takes its truncated SVD of every unfolding from the Gram matrix
of its short side: G = A A^T on a wide (or square) step, H = A^T A on a
tall one.  It picks r from the eigenvalues (linalg._gram_eigh) and,
where linalg._gram_resolves(lam, r) holds, the energy test the
randomized sweeps apply at the sketch width, keeps the top r
eigenvectors U_r of G, or Q = orth(A V_r) from those V_r of H, since
A V_r = U_r Sigma_r.  The test sits at r because a Gram matrix rounds to
about eps ||A||^2 in every direction, which moves the truncation
residual^2 by about eps^2 ||A||^4 / sigma_r^2: negligible against an
energy beyond r of at least 1e-10 ||A||^2, and only then.  A step the
test refuses takes linalg.svd (the R-only QR on a wide unfolding,
LAPACK's thin SVD on a tall one), having paid for the Gram as well.

The randomized sweeps share their first step: each draws one Gaussian
sketch Y (r + p columns, fewer on a short trailing side) and takes its
left singular vectors Z_0 = svd(Y).U, min(rows, r + p) columns, before
any range finder runs.  tt_rsvd keeps the first r columns of Z_0.
tt_rsi takes S = Z_q from linalg.krylov_blocks, the power iteration
Z_t = orth(A A^T Z_{t-1}) from Z_0; tt_rbki takes S from
linalg.krylov_basis, which builds span([Z_0, ..., Z_q]) block by block
(its docstring gives the drop and re-projection rules).  Both factor
only blocks of r + p columns.

Once per step the sweep asks linalg._power_step_gram whether the step
runs its range finder on the Gram factor M of the unfolding's short
side in place of A: one gate for both orientations, by one cost rule for
all three sweeps, asked with the power steps each runs (0 for tt_rsvd,
q for tt_rsi and tt_rbki), so tt_rsvd's cores do not depend on q.  The
step then works on M, A or that short x short factor: Y = M Omega for a
Gaussian Omega with as many rows as M has columns, and the range finder
and the Ritz step read M.

- On a wide step M = R, rows x rows, with R R^T = G = A A^T.  Every
  left-side quantity is the same through R as through A, and the sketch
  is too in distribution: A = U Sigma V^T makes A Omega = U Sigma
  (V^T Omega), and V^T Omega is itself a rows x (r + p) Gaussian, so
  R Omega'' = U Sigma Omega'' has exactly the distribution of A Omega
  and the Gaussian-sketch guarantees hold unchanged, for rows (r + p)
  normals instead of cols (r + p).
- On a tall step M = T = Sigma V^T = U^T A, cols x cols, from
  H = A^T A = V Sigma^2 V^T: A in the coordinates of its left singular
  vectors.  The step draws the cols x (r + p) Omega the products would,
  and T Omega = U^T (A Omega), so the range finder and the Ritz step give
  the coordinates Q_T of the basis A's would give, to rounding, factoring
  cols x (r + p) blocks where A's are rows x (r + p).  The step lifts
  them to Q = orth(A V Sigma^+ Q_T) = orth(U Q_T) with one Householder
  QR, the only factorization with as many rows as A.

After forming the Gram matrix, a step through the factor reads A only
for its carry Q^T A and, on a tall step, the lift.

Both keep Q = S V_r, V_r the top r eigenvectors of B B^T with
B = S^T M: the best rank-r basis in span(S) (Rayleigh-Ritz), whose carry
is V_r^T B = Q^T M.  So one tt_rbki step leaves no larger residual than
tt_rsi or tt_rsvd would from the same Y, up to rounding.  Every core has
exactly the requested rank.

Per-step residuals rho_n = ||(I - Q Q^T) A_n||_F are recorded in the
trace; their squares sum to the final squared approximation error.  The
norms behind them come from metrics' one sum of squares, which calls no
BLAS, so the same cores give the same residuals at any BLAS thread
count.  Two gaps remain: on some shapes OpenBLAS splits a GEMM whose
inner dimension is an unfolding's long side across threads (the Gram
matrices A A^T and A^T A of tt_svd and of the randomized sweeps' Gram
steps among them), and then the cores differ; and the steps that
tt_svd's energy test refuses pass through LAPACK's threaded QR or thin
SVD in linalg.svd.

Every linearization is column-major (first index fastest): element
(i_1, ..., i_N) of a tensor sits at offset sum_n i_n prod_{m<n} I_m, so
unfoldings and cores are numpy reshapes with order="F", and the file
formats store values in the same order.  The carry is written in that
layout too, as (A^T Q)^T, an F-contiguous r_n x (I_{n+1}...I_N) array,
so on an F-contiguous input every unfold is a view and no step copies
the tensor.  Any other input layout pays one copy at step 0.

METHODS names the four sweeps; run_method dispatches on it for the
bench harness and the CLI.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InvalidArgumentError, _int, _ints, _number
from .linalg import (
    _fix_signs,
    _gram_eigh,
    _gram_resolves,
    _power_step_gram,
    gaussian_matrix,
    krylov_basis,
    krylov_blocks,
    rank_from_tail,
    svd,
)
from .metrics import _finite, _sum_sq, frobenius_norm
from .tt import TTTensor


@dataclass
class TruncationSpec:
    """Either prescribed accuracy epsilon or fixed target ranks."""

    epsilon: Optional[float] = None
    ranks: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if (self.epsilon is None) == (self.ranks is None):
            raise InvalidArgumentError("set exactly one of epsilon or ranks")
        if self.epsilon is not None:
            self.epsilon = _number(self.epsilon, "epsilon", 0)
        if self.ranks is not None:
            self.ranks = _ints(self.ranks, "rank", 1)


@dataclass
class SketchConfig:
    """Parameters of the randomized sweeps."""

    ranks: Tuple[int, ...]
    p: int = 0
    q: int = 1
    seed: int = 0

    def __post_init__(self):
        self.ranks = _ints(self.ranks, "rank", 1)
        self.p = _int(self.p, "p", 0)
        self.q = _int(self.q, "q", 1)
        self.seed = _int(self.seed, "seed", 0)


@dataclass
class SweepStep:
    n: int
    rank: int
    residual: float
    elapsed_s: float
    sketch_width: Optional[int] = None
    clamped: bool = False


@dataclass
class SweepTrace:
    steps: List[SweepStep] = field(default_factory=list)

    @property
    def residual_sq_sum(self) -> float:
        try:
            return float(sum(s.residual**2 for s in self.steps))
        except OverflowError:  # a residual above sqrt(float max)
            return math.inf


def _as_input(t) -> Tuple[np.ndarray, float, int]:
    """t as a float64 array, ||t||_F and a binary exponent e; NaN or Inf
    entries raise.

    The sweeps square norms and multiply A by A^T, so a tensor whose norm
    is out of range comes back as t 2^-e (and its norm), for _scale_back
    to undo; metrics._sum_sq holds the rule.  In range e = 0 and t is
    not copied."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 1:
        raise InvalidArgumentError("input tensor must have order >= 1")
    t, sum_sq, e = _sum_sq(t)
    return t, math.sqrt(_finite(sum_sq)), e


def _scale_back(result, e: int) -> Tuple[TTTensor, SweepTrace]:
    """The sweep of t 2^-e made the sweep of t: the last core and every
    residual gain the factor 2^e, the other cores are unchanged."""
    tt, trace = result
    if e:
        for step in trace.steps:
            step.residual = float(np.ldexp(step.residual, e))
        tt = TTTensor(tt.cores[:-1] + (np.ldexp(tt.cores[-1], e),))
    return tt, trace


def _check_ranks(dims, ranks):
    n_modes = len(dims)
    if len(ranks) != n_modes - 1:
        raise InvalidArgumentError(
            f"need {n_modes - 1} ranks for an order-{n_modes} tensor, got {len(ranks)}"
        )
    r_prev = 1
    for n, r in enumerate(ranks):
        rows = r_prev * dims[n]
        cols = int(np.prod(dims[n + 1 :]))
        if not 1 <= r <= min(rows, cols):
            raise InvalidArgumentError(
                f"rank {r} at step {n} exceeds min({rows}, {cols})"
            )
        r_prev = r
    return ranks


class _Basis(NamedTuple):
    """What one step's basis choice hands back to the scaffold."""

    Q: np.ndarray
    carry: np.ndarray
    residual: Optional[float]  # None: taken by _sweep from the carried norms
    sketch_width: Optional[int] = None
    clamped: bool = False


def _sweep(t: np.ndarray, norm: float, pick_basis) -> Tuple[TTTensor, SweepTrace]:
    """Shared scaffold; pick_basis(A, n) -> _Basis, norm = ||t||_F.

    A _Basis without a residual gets rho^2 = ||A||^2 - ||Q^T A||^2,
    clamped against cancellation, with ||A|| carried from step to step:
    the input's norm at step 0, then the previous carry's."""
    dims = t.shape
    cores = []
    trace = SweepTrace()
    C = t
    r_prev = 1
    for n in range(t.ndim - 1):
        t0 = time.perf_counter()  # the unfold may copy, so it is timed too
        A = np.reshape(C, (r_prev * dims[n], -1), order="F")
        b = pick_basis(A, n)
        carry_norm = frobenius_norm(b.carry)
        residual = b.residual
        if residual is None:
            residual = math.sqrt(max(norm**2 - carry_norm**2, 0.0))
        norm = carry_norm
        elapsed = time.perf_counter() - t0
        C = b.carry
        r_n = b.Q.shape[1]
        cores.append(np.reshape(b.Q, (r_prev, dims[n], r_n), order="F"))
        trace.steps.append(SweepStep(n, r_n, residual, elapsed, b.sketch_width, b.clamped))
        r_prev = r_n
    cores.append(np.reshape(C, (r_prev, dims[-1], 1), order="F"))
    return TTTensor(cores), trace


def tt_svd(t, trunc: TruncationSpec) -> Tuple[TTTensor, SweepTrace]:
    """Deterministic TT decomposition by per-step truncated SVD.

    In epsilon mode each step truncates at delta = eps ||t||_F /
    sqrt(N-1), which guarantees a final relative error <= eps in exact
    arithmetic; in rank mode the requested ranks are used exactly.

    The epsilon guarantee holds only above the float64 floor: rounding
    leaves a relative error of a few sqrt(N-1) * 2.2e-16 whatever the
    ranks (epsilon=1e-15 on the 20^4 power-function tensor gives about
    1.5e-15).

    Each step forms the Gram matrix of the unfolding's short side and,
    where the energy beyond r passes the Gram test (module docstring),
    keeps the top r eigenvectors of A A^T on a wide step, or the
    Householder QR of A V_r, V_r the top r eigenvectors of A^T A, on a
    tall one.  Such a step takes its residual from the norms _sweep
    carries, sqrt(||A||^2 - ||Q^T A||^2), as the randomized sweeps do:
    the tail of the eigenvalues would carry an error that grows with the
    long side.  A step the test refuses takes linalg.svd and the tail of
    its singular values.
    """
    t, norm, e = _as_input(t)
    if trunc.ranks is not None:
        ranks = _check_ranks(t.shape, trunc.ranks)
        delta = None
    else:
        if t.ndim < 2:
            raise InvalidArgumentError("epsilon mode needs an order >= 2 tensor")
        ranks = None
        delta = trunc.epsilon * norm / math.sqrt(t.ndim - 1)

    def rank(s, n):
        return ranks[n] if ranks is not None else rank_from_tail(s, delta)

    # Q^T A, not diag(S) V^T: equal in exact arithmetic, but LAPACK's
    # U S V^T misses A by ~1e-14 ||A||, which would floor the error
    def pick(A, n):
        wide = A.shape[0] <= A.shape[1]
        # the Gram of the short side: A A^T (eigenvectors U), or A^T A
        # (eigenvectors V, with A V_r = U_r Sigma_r)
        lam, W = _gram_eigh(A if wide else A.T)
        r = rank(np.sqrt(np.maximum(lam, 0.0)), n)
        if _gram_resolves(lam, r):  # residual from the carried norms
            Q = W[:, :r].copy(order="F") if wide else np.linalg.qr(A @ W[:, :r])[0]
            Q = _fix_signs(Q)
            return _Basis(Q, (A.T @ Q).T, None)
        U, s = svd(A)
        r = rank(s, n)
        Q = U[:, :r]
        return _Basis(Q, (A.T @ Q).T, frobenius_norm(s[r:]))

    return _scale_back(_sweep(t, norm, pick), e)


def _randomized_sweep(t, cfg: SketchConfig, basis, q: int) -> Tuple[TTTensor, SweepTrace]:
    """Shared randomized scaffold; basis(M, Z0, r) -> (Q, Q^T M), with
    Q^T M F-contiguous, M the step's unfolding A or the R or T of
    _power_step_gram, and Z0 = svd(Y).U the basis of the step's sketch
    Y = M Omega.  q is the number of power steps basis runs.  The sketch
    is drawn and applied here and nowhere else, and _power_step_gram
    decides here, once per step, whether M is A; a T step's basis is
    lifted here, and every step through M carries Q^T A."""
    t, norm, e = _as_input(t)
    ranks = _check_ranks(t.shape, cfg.ranks)
    rng = np.random.default_rng(cfg.seed)

    def pick(A, n):
        r = ranks[n]
        rows, cols = A.shape
        width = min(r + cfg.p, cols)
        clamped = width < r + cfg.p
        gram = _power_step_gram(A, min(rows, width), q)
        M, lift = (A, None) if gram is None else gram
        Z0 = svd(M @ gaussian_matrix(M.shape[1], width, rng)).U
        # Q has exactly r columns: r <= min(rows, width) (_check_ranks), and
        # Z0 and every Krylov block have that many
        Q, carry = basis(M, Z0, r)
        if lift is not None:  # T's coordinates Q_T to orth(U Q_T)
            Q = np.linalg.qr(A @ (lift @ Q))[0]
        if M is not A:  # the carry is Q^T A, not the Q^T M basis gave
            carry = (A.T @ Q).T
        return _Basis(Q, carry, None, width, clamped)

    return _scale_back(_sweep(t, norm, pick), e)


def _ritz(M, S, r):
    """The top r Ritz vectors Q = S V_r of M in span(S), S orthonormal,
    and Q^T M = V_r^T B, from the eigenvectors of B B^T, B = S^T M."""
    B = S.T @ M
    V = _gram_eigh(B)[1][:, :r]
    return S @ V, (B.T @ V).T


def tt_rsvd(t, cfg: SketchConfig) -> Tuple[TTTensor, SweepTrace]:
    """Randomized TT decomposition from a plain Gaussian sketch, keeping
    the top r left singular vectors of A Omega."""

    def basis(M, Z0, r):
        Q = Z0[:, :r]
        return Q, (M.T @ Q).T

    return _randomized_sweep(t, cfg, basis, 0)


def tt_rsi(t, cfg: SketchConfig) -> Tuple[TTTensor, SweepTrace]:
    """Randomized TT decomposition with q rounds of subspace power
    iteration: Ritz vectors from the last Krylov block alone."""

    def basis(M, Z0, r):
        return _ritz(M, krylov_blocks(M, Z0, cfg.q)[-1], r)

    return _randomized_sweep(t, cfg, basis, cfg.q)


def tt_rbki(t, cfg: SketchConfig) -> Tuple[TTTensor, SweepTrace]:
    """Randomized TT decomposition through a depth-q block Krylov basis:
    Ritz vectors from all q + 1 blocks."""

    def basis(M, Z0, r):
        return _ritz(M, krylov_basis(M, Z0, cfg.q), r)

    return _randomized_sweep(t, cfg, basis, cfg.q)


# method name -> name of its sweep in this module.  run_method looks the
# sweep up when it is called, so the function bound to the module
# attribute at that moment is the one that runs.
METHODS = {"svd": "tt_svd", "rsvd": "tt_rsvd", "rsi": "tt_rsi", "rbki": "tt_rbki"}


def run_method(method: str, t, ranks=None, epsilon=None, **sketch) -> Tuple[TTTensor, SweepTrace]:
    """Run the sweep that METHODS names for method.

    "svd" takes exactly one of ranks or epsilon and ignores the sketch
    keywords; the randomized methods need ranks and take the other
    SketchConfig fields (p, q, seed) as keywords.
    """
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown method {method!r}")
    sweep = globals()[METHODS[method]]
    if method == "svd":
        return sweep(t, TruncationSpec(epsilon=epsilon, ranks=ranks))
    if epsilon is not None:
        raise InvalidArgumentError("epsilon applies to method svd only")
    if ranks is None:
        raise InvalidArgumentError(f"method {method} needs ranks")
    return sweep(t, SketchConfig(ranks=ranks, **sketch))
