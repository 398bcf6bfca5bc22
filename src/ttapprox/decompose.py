"""Left-to-right TT decomposition sweeps.

All four algorithms share one scaffold: unfold the carried tensor to
(r_{n-1} I_n) x (I_{n+1}...I_N), pick an orthonormal column basis Q of
target width r_n, store Q reshaped as the next core, carry Q^T A into
the next step.  They differ only in how Q is found:

  tt_svd   truncated SVD of the unfolding (deterministic)
  tt_rsvd  top r left singular vectors of the sketch A Omega
  tt_rsi   top r Ritz vectors of A in span(Z_q)
  tt_rbki  top r Ritz vectors of A in span([Z_0, ..., Z_q])

tt_rsi and tt_rbki share linalg.krylov_blocks, which factors only
rows x (r + p) blocks: Z_0 = orth(A Omega), Z_t = orth(A (A^T Z_{t-1})).
tt_rsi takes S = Z_q; tt_rbki gives the stack of all q + 1 blocks one QR,
drops columns whose R diagonal falls below 1e-12 of the leading one and
keeps at most min(rows, cols, (q + 1)(r + p)).  Both keep Q = S V_r, V_r
the top r eigenvectors of B B^T with B = S^T A: the best rank-r basis in
span(S) (Rayleigh-Ritz), whose carry is V_r^T B.  So one tt_rbki step
leaves no larger residual than tt_rsvd or tt_rsi with the same Omega, up
to rounding.  Every core has exactly the requested rank.

Per-step residuals rho_n = ||(I - Q Q^T) A_n||_F are recorded in the
trace; their squares sum to the final squared approximation error.

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

from .errors import InvalidArgumentError
from .linalg import economy_qr, gaussian_matrix, krylov_blocks, rank_from_tail, svd
from .metrics import frobenius_norm
from .tt import TTTensor

# columns of the stacked Krylov basis whose R diagonal falls below this
# fraction of the leading one carry no new direction and are dropped
_KRYLOV_DROP_TOL = 1e-12


@dataclass
class TruncationSpec:
    """Either prescribed accuracy epsilon or fixed target ranks."""

    epsilon: Optional[float] = None
    ranks: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if (self.epsilon is None) == (self.ranks is None):
            raise InvalidArgumentError("set exactly one of epsilon or ranks")
        if self.epsilon is not None and not 0 <= self.epsilon < math.inf:
            raise InvalidArgumentError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.ranks is not None:
            self.ranks = tuple(int(r) for r in self.ranks)
            if any(r < 1 for r in self.ranks):
                raise InvalidArgumentError(f"ranks must be positive, got {self.ranks}")


@dataclass
class SketchConfig:
    """Parameters of the randomized sweeps."""

    ranks: Tuple[int, ...]
    p: int = 0
    q: int = 1
    seed: int = 0

    def __post_init__(self):
        self.ranks = tuple(int(r) for r in self.ranks)
        if any(r < 1 for r in self.ranks):
            raise InvalidArgumentError(f"ranks must be positive, got {self.ranks}")
        if self.p < 0:
            raise InvalidArgumentError(f"p must be >= 0, got {self.p}")
        if self.q < 1:
            raise InvalidArgumentError(f"q must be >= 1, got {self.q}")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SweepStep:
    n: int
    rank: int
    residual: float
    elapsed_s: float
    sketch_width: Optional[int] = None
    clamped: bool = False
    padded_cols: int = 0  # always 0; kept for readers of the trace JSON


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

    The sweeps square norms and multiply A by A^T, which overflows or
    underflows unless ||t||_F lies in about [2^-256, 2^256].  Outside it
    t comes back as t 2^-e (and its norm), e the binary exponent of
    max|t|, for _scale_back to undo; powers of two scale exactly.  Inside
    it e = 0 and t is not copied."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 1:
        raise InvalidArgumentError("input tensor must have order >= 1")
    with np.errstate(over="ignore"):  # an overflow is handled below
        norm = frobenius_norm(t)
    # a finite norm proves every entry finite; an infinite one may also
    # come from squares of huge finite entries, so then look at each entry
    if not math.isfinite(norm) and not np.isfinite(t).all():
        raise FloatingPointError("input tensor has NaN or Inf entries")
    if 2.0**-256 <= norm <= 2.0**256:
        return t, norm, 0
    e = math.frexp(np.max(np.abs(t), initial=0.0))[1]  # 0 for a zero tensor
    t = np.ldexp(t, -e)
    return t, frobenius_norm(t), e


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
    ranks = tuple(int(r) for r in ranks)
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
    residual: float
    sketch_width: Optional[int] = None
    clamped: bool = False


def _sweep(t: np.ndarray, pick_basis) -> Tuple[TTTensor, SweepTrace]:
    """Shared scaffold; pick_basis(A, n) -> _Basis."""
    dims = t.shape
    cores = []
    trace = SweepTrace()
    C = t
    r_prev = 1
    for n in range(t.ndim - 1):
        t0 = time.perf_counter()  # the unfold may copy, so it is timed too
        A = np.reshape(C, (r_prev * dims[n], -1), order="F")
        b = pick_basis(A, n)
        elapsed = time.perf_counter() - t0
        C = b.carry
        r_n = b.Q.shape[1]
        cores.append(np.reshape(b.Q, (r_prev, dims[n], r_n), order="F"))
        trace.steps.append(SweepStep(n, r_n, b.residual, elapsed, b.sketch_width, b.clamped))
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

    def pick(A, n):
        U, s = svd(A)
        r = ranks[n] if ranks is not None else rank_from_tail(s, delta)
        residual = float(np.sqrt(np.sum(s[r:] ** 2)))
        Q = U[:, :r]
        # Q^T A, not diag(S) V^T: equal in exact arithmetic, but LAPACK's
        # U S V^T misses A by ~1e-14 ||A||, which would floor the error
        return _Basis(Q, (A.T @ Q).T, residual)

    return _scale_back(_sweep(t, pick), e)


def _randomized_sweep(t, cfg: SketchConfig, basis) -> Tuple[TTTensor, SweepTrace]:
    """Shared randomized scaffold; basis(A, Omega, r) -> (Q, Q^T A), with
    Q^T A F-contiguous."""
    # norm is ||A_n||: the input's norm at step 0, then the previous carry's
    t, norm, e = _as_input(t)
    ranks = _check_ranks(t.shape, cfg.ranks)
    rng = np.random.default_rng(cfg.seed)

    def pick(A, n):
        nonlocal norm
        r = ranks[n]
        cols = A.shape[1]
        width = min(r + cfg.p, cols)
        clamped = width < r + cfg.p
        Omega = gaussian_matrix(cols, width, rng)
        # Q has exactly r columns: r <= min(rows, width) (_check_ranks),
        # and A Omega and every Krylov block have min(rows, width) columns
        Q, carry = basis(A, Omega, r)
        # rho^2 = ||A||^2 - ||Q^T A||^2, clamped against cancellation
        carry_norm = frobenius_norm(carry)
        residual = math.sqrt(max(norm**2 - carry_norm**2, 0.0))
        norm = carry_norm
        return _Basis(Q, carry, residual, width, clamped)

    return _scale_back(_sweep(t, pick), e)


def _ritz(A, S, r):
    """The top r Ritz vectors Q = S V_r of A in span(S), S orthonormal,
    and the carry Q^T A = V_r^T B, from the eigenvectors of B B^T."""
    B = S.T @ A
    V = np.linalg.eigh(B @ B.T)[1][:, ::-1][:, :r]
    return S @ V, (B.T @ V).T


def tt_rsvd(t, cfg: SketchConfig) -> Tuple[TTTensor, SweepTrace]:
    """Randomized TT decomposition from a plain Gaussian sketch, keeping
    the top r left singular vectors of A Omega."""

    def basis(A, Omega, r):
        Q = svd(A @ Omega).U[:, :r]
        return Q, (A.T @ Q).T

    return _randomized_sweep(t, cfg, basis)


def tt_rsi(t, cfg: SketchConfig) -> Tuple[TTTensor, SweepTrace]:
    """Randomized TT decomposition with q rounds of subspace power
    iteration: Ritz vectors from the last Krylov block alone."""

    def basis(A, Omega, r):
        return _ritz(A, krylov_blocks(A, Omega, cfg.q)[-1], r)

    return _randomized_sweep(t, cfg, basis)


def tt_rbki(t, cfg: SketchConfig) -> Tuple[TTTensor, SweepTrace]:
    """Randomized TT decomposition through a depth-q block Krylov basis:
    Ritz vectors from all q + 1 blocks."""

    def basis(A, Omega, r):
        blocks = krylov_blocks(A, Omega, cfg.q)
        S, R = economy_qr(np.hstack(blocks))
        diag = np.abs(np.diag(R))
        # the first block is orthonormal, so diag[0] = 1 and it is kept
        S = S[:, diag > _KRYLOV_DROP_TOL * diag[0]]
        return _ritz(A, S[:, : min(*A.shape, len(blocks) * Omega.shape[1])], r)

    return _randomized_sweep(t, cfg, basis)


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
