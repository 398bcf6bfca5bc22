"""Tensor-train format: the core chain type, reconstruction, validation
and the ".ttc" file, one use of the container in _container.

A TT tensor is an ordered list of order-3 cores, core n of shape
(r_{n-1}, I_n, r_n) with r_0 = r_N = 1 at the ends.  Decomposition
outputs additionally keep cores 1..N-1 left-orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ._container import Format
from .errors import InvalidArgumentError, ParseError

# N + 1 ranks, then N mode sizes
_TTC = Format(
    "ttc",
    b"TTC1",
    table_len=lambda n: 2 * n + 1,
    shapes=lambda n, t: [(t[k], t[n + 1 + k], t[k + 1]) for k in range(n)],
    entry=lambda i, n: "rank" if i <= n else "mode size",
)
_ORTH_TOL = 1e-10


class TTTensor:
    """Immutable chain of order-3 TT cores.

    The constructor only checks core order (each core must be 3-d);
    rank-chain consistency is checked by tt_reconstruct, tt_save and
    tt_load, and reported by validate, so deliberately broken chains can
    still be inspected.
    """

    def __init__(self, cores: Sequence):
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if not cores:
            raise InvalidArgumentError("a TT tensor needs at least one core")
        for i, c in enumerate(cores):
            if c.ndim != 3:
                raise InvalidArgumentError(f"core {i} must be order 3, got order {c.ndim}")
        self.cores = tuple(cores)

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple:
        """(r_0, ..., r_N) read off the core shapes."""
        return (self.cores[0].shape[0],) + tuple(c.shape[2] for c in self.cores)

    def __eq__(self, other):
        return (
            isinstance(other, TTTensor)
            and len(self.cores) == len(other.cores)
            and all(np.array_equal(a, b) for a, b in zip(self.cores, other.cores))
        )


def tt_reconstruct(tt: TTTensor) -> np.ndarray:
    """Contract the chain back into a dense, column-major (I_1, ..., I_N)
    tensor."""
    _check_chain(tt)
    out = left_unfolding(tt.cores[0])  # I_1 x r_1
    for core in tt.cores[1:]:
        G = np.reshape(core, (core.shape[0], -1), order="F")  # r_{n-1} x I_n r_n
        # (G^T out^T)^T keeps out F-contiguous, so reshaping it is a view
        out = np.reshape((G.T @ out.T).T, (-1, core.shape[2]), order="F")
    return np.reshape(out, tt.dims, order="F")


def left_unfolding(core: np.ndarray) -> np.ndarray:
    """(r_{n-1} I_n) x r_n unfolding whose columns are orthonormal for
    left-orthogonal cores."""
    r0, i, r1 = core.shape
    return np.reshape(core, (r0 * i, r1), order="F")


@dataclass
class ValidationReport:
    boundary_ok: bool
    adjacency_ok: bool
    orth_residuals: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)  # broken chain rules, by core

    @property
    def left_orthogonal(self) -> bool:
        return all(r <= _ORTH_TOL for r in self.orth_residuals)

    @property
    def ok(self) -> bool:
        return not self.problems and self.left_orthogonal


def _chain_problems(tt: TTTensor) -> Tuple[List[str], bool, bool]:
    """The broken rank-chain rules of tt, by core (every core nonempty,
    boundary ranks r_0 = r_N = 1, adjacent ranks equal), and whether the
    boundary and the adjacency rules hold."""
    cores, ranks, last = tt.cores, tt.ranks, tt.order - 1
    empty = [f"core {n} has a zero rank or mode size" for n, c in enumerate(cores) if c.size == 0]
    boundary = [
        f"core {n} has boundary rank {r}, expected 1"
        for n, r in ((0, ranks[0]), (last, ranks[-1]))
        if r != 1
    ]
    bad = [n for n in range(last) if cores[n].shape[2] != cores[n + 1].shape[0]]
    adjacency = [
        f"core {n} has trailing rank {cores[n].shape[2]} but core {n + 1} expects {cores[n + 1].shape[0]}"
        for n in bad
    ]
    return empty + boundary + adjacency, not boundary, not bad


def _check_chain(tt: TTTensor, error=InvalidArgumentError):
    """Raise error naming the first broken rank-chain rule of tt, if any.
    The check of tt_reconstruct, tt_save and tt_load, none of which reads
    the left-orthogonality that validate also reports."""
    problems = _chain_problems(tt)[0]
    if problems:
        raise error(problems[0])


def validate(tt: TTTensor) -> ValidationReport:
    """Report the rank-chain rules (_chain_problems) and the per-core
    left-orthogonality residuals max|Q^T Q - I| for cores 1..N-1."""
    problems, boundary_ok, adjacency_ok = _chain_problems(tt)
    residuals = []
    for core in tt.cores[:-1]:
        Q = left_unfolding(core)
        G = Q.T @ Q
        # initial covers a core with no columns
        residuals.append(float(np.max(np.abs(G - np.eye(G.shape[0])), initial=0.0)))
    return ValidationReport(boundary_ok, adjacency_ok, residuals, problems)


def tt_save(tt: TTTensor, path):
    """Write tt as a ".ttc" file: magic TTC1, u32 N, then a table of N + 1
    ranks and N mode sizes, then the cores, core n shaped
    (r_{n-1}, I_n, r_n)."""
    _check_chain(tt)
    _TTC.write(path, tt.order, tt.ranks + tt.dims, tt.cores)


def tt_load(path) -> TTTensor:
    """Read a ".ttc" file into a TTTensor of column-major cores, each in
    memory of its own.

    A malformed container, or a broken rank chain, raises ParseError."""
    tt = TTTensor(_TTC.read(path))
    _check_chain(tt, ParseError)
    return tt
