"""Tensor-train format: the core chain type, reconstruction, validation
and the ".ttc" serialization.

A TT tensor is an ordered list of order-3 cores, core n of shape
(r_{n-1}, I_n, r_n) with r_0 = r_N = 1 at the ends.  Decomposition
outputs additionally keep cores 1..N-1 left-orthogonal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .errors import InvalidArgumentError, ParseError

_MAGIC = b"TTC1"
_ORTH_TOL = 1e-10


class TTTensor:
    """Immutable chain of order-3 TT cores.

    The constructor only checks core order (each core must be 3-d);
    rank-chain consistency is checked by validate, which tt_reconstruct,
    tt_save and tt_load rely on, so deliberately broken chains can still
    be inspected.
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


def num_params(tt: TTTensor) -> int:
    """Stored parameter count, sum of r_{n-1} * I_n * r_n."""
    return int(sum(c.size for c in tt.cores))


def tt_reconstruct(tt: TTTensor) -> np.ndarray:
    """Contract the chain back into a dense, column-major (I_1, ..., I_N)
    tensor."""
    validate(tt).raise_for_chain()
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
    bad_cores: List[int] = field(default_factory=list)
    orth_residuals: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)  # broken chain rules, by core

    @property
    def left_orthogonal(self) -> bool:
        return all(r <= _ORTH_TOL for r in self.orth_residuals)

    @property
    def ok(self) -> bool:
        return not self.problems and self.left_orthogonal

    def raise_for_chain(self, error=InvalidArgumentError):
        """Raise error naming the first broken rank-chain rule, if any."""
        if self.problems:
            raise error(self.problems[0])


def validate(tt: TTTensor) -> ValidationReport:
    """Report the rank-chain rules (every core nonempty, boundary ranks
    r_0 = r_N = 1, adjacent ranks equal) and the per-core
    left-orthogonality residuals max|Q^T Q - I| for cores 1..N-1."""
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
    residuals = []
    for core in cores[:-1]:
        Q = left_unfolding(core)
        G = Q.T @ Q
        # initial covers a core with no columns
        residuals.append(float(np.max(np.abs(G - np.eye(G.shape[0])), initial=0.0)))
    return ValidationReport(not boundary, not bad, bad, residuals, empty + boundary + adjacency)


def tt_save(tt: TTTensor, path):
    """Write the ".ttc" container: magic, u32 N, (N+1) u64 ranks, N u64
    mode sizes, then the cores as little-endian f64 in column-major order."""
    validate(tt).raise_for_chain()
    ranks = tt.ranks
    dims = tt.dims
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", tt.order))
        f.write(np.asarray(ranks, dtype="<u8").tobytes())
        f.write(np.asarray(dims, dtype="<u8").tobytes())
        for core in tt.cores:
            f.write(core.ravel(order="F").astype("<f8").tobytes())


def tt_load(path) -> TTTensor:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4 or data[:4] != _MAGIC:
        raise ParseError("not a ttc file (bad magic)", offset=0)
    off = 4
    if len(data) < off + 4:
        raise ParseError("truncated core count", offset=len(data))
    (n_cores,) = struct.unpack_from("<I", data, off)
    off += 4
    if n_cores == 0:
        raise ParseError("core count must be positive", offset=4)
    need = (n_cores + 1 + n_cores) * 8
    if len(data) < off + need:
        raise ParseError("truncated rank/dim table", offset=len(data))
    # N + 1 ranks, then N mode sizes.  A zero entry empties its cores
    # whatever the other sizes, so the length checks below cannot bound
    # them and numpy would fail to shape, say, a (0, 2**64 - 1, 1) core
    table = [int(v) for v in np.frombuffer(data, "<u8", 2 * n_cores + 1, off)]
    if 0 in table:
        i = table.index(0)
        raise ParseError(f"zero {'rank' if i <= n_cores else 'mode size'}", offset=off + 8 * i)
    ranks, dims = table[: n_cores + 1], table[n_cores + 1 :]
    off += need
    cores = []
    for n in range(n_cores):
        count = ranks[n] * dims[n] * ranks[n + 1]
        if len(data) < off + count * 8:
            raise ParseError(f"truncated data for core {n}", offset=len(data))
        flat = np.frombuffer(data, "<f8", count, off)
        core = np.reshape(flat, (ranks[n], dims[n], ranks[n + 1]), order="F")
        cores.append(core.copy(order="F"))
        off += count * 8
    if off != len(data):
        raise ParseError("trailing bytes after last core", offset=off)
    tt = TTTensor(cores)
    validate(tt).raise_for_chain(ParseError)
    return tt
