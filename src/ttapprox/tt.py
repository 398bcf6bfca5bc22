"""Tensor-train format: the core chain type, reconstruction, validation
and the ".ttc" file, one use of the container in _container.

A TT tensor is an ordered list of order-3 cores, core n of shape
(r_{n-1}, I_n, r_n) with r_0 = r_N = 1 at the ends.  Decomposition
outputs additionally keep cores 1..N-1 left-orthogonal.

A chain's dense tensor is the product of two factors, L of the cores up
to the mode where I_1 ... I_k first reaches sqrt(N) and R of the rest,
the last mode always in R (_split, _factors), formed in column chunks
of at most 4 MiB (_width, _chunks).  tt_reconstruct writes the chunks
into the tensor it returns; the metrics pass walks every pair, a chain
or a dense tensor, in the chunks of its shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
# entries per column chunk of the product that forms a dense tensor
# (_chunks): 4 MiB, small enough that scoring a chain holds no tensor-sized
# array, and large enough that each chunk's GEMM runs at full speed
_CHUNK = 1 << 19


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
    tensor.

    The cores contract into the factors L and R of one product
    (_factors), whose column chunks (_chunks) are written straight into
    the array that is returned; error_metrics of a chain (metrics) reads
    the same chunks, so its sums equal those of this tensor bit for bit."""
    L, R = _factors(tt)
    out = np.empty(L.shape[0] * R.shape[1])
    for _ in _chunks(L, R, out):
        pass
    return np.reshape(out, tt.dims, order="F")


def _split(dims) -> Tuple[int, int]:
    """(k, I_1 ... I_k) of the product that forms a tensor of mode sizes
    dims (_factors): k the first mode where I_1 ... I_k >= sqrt(N), N the
    entry count, but at most the order less one, so that R always holds
    the last mode."""
    size, k, rows = math.prod(dims), 0, 1
    while k < len(dims) - 1 and rows * rows < size:
        rows *= dims[k]
        k += 1
    return k, rows


def _width(rows: int) -> int:
    """Columns per chunk of a product of rows rows (_chunks): _CHUNK
    entries, and at least one column."""
    return max(1, _CHUNK // rows)


def _factors(tt: TTTensor) -> Tuple[np.ndarray, np.ndarray]:
    """(L, R), the tensor's two factors: with k from _split, cores 1..k
    contract into L, (I_1 ... I_k) x r_k, cores k+1..N into R,
    r_k x (I_{k+1} ... I_N), and the tensor is (R^T L^T)^T, column-major.
    L holds fewer than sqrt(N) I_k r_k entries, and R at most sqrt(N) r_k,
    or a core's r_{N-1} I_N where the last mode outweighs the rest, not
    the N / I_N x r_{N-1} carry of a left-to-right contraction.  An
    order-1 chain has k = 0 and L = [[1]]."""
    _check_chain(tt)
    cores = tt.cores
    k, _ = _split(tt.dims)
    L = np.ones((1, 1))
    for core in cores[:k]:
        G = np.reshape(core, (core.shape[0], -1), order="F")  # r_{n-1} x I_n r_n
        # (G^T L^T)^T keeps L F-contiguous, so reshaping it is a view
        L = np.reshape((G.T @ L.T).T, (-1, core.shape[2]), order="F")
    R = np.reshape(cores[-1], (cores[-1].shape[0], -1), order="F")  # r_{N-1} x I_N
    for core in reversed(cores[k:-1]):
        # (R^T U^T)^T = U R, with U the left unfolding, is F-contiguous,
        # so its reshape to r_{n-1} x I_n ... I_N is a view
        R = np.reshape((R.T @ left_unfolding(core).T).T, (core.shape[0], -1), order="F")
    return L, R


def _chunks(L: np.ndarray, R: np.ndarray, out: Optional[np.ndarray] = None):
    """The product (R^T L^T)^T of _factors, column-major and flat, in
    chunks of whole columns: _width(rows) columns each, the last one
    shorter.  Each chunk is one np.matmul of R^T's rows by L^T into the
    chunk's slice of out, or, without out, into one buffer that every
    chunk reuses, so a chunk is overwritten by the next."""
    rows, cols = L.shape[0], R.shape[1]
    step = min(_width(rows), cols)
    buf = np.empty(step * rows) if out is None else out
    for j in range(0, cols, step):
        n = min(step, cols - j)
        at = 0 if out is None else j * rows
        chunk = buf[at : at + n * rows]
        np.matmul(R.T[j : j + n], L.T, out=np.reshape(chunk, (n, rows)))
        yield chunk


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
