"""Reference quantities the tests check the library against, the
check that a save replaced its output file, the peak memory of one call,
and the runs of one script at 1 and 2 OpenBLAS threads."""

import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ttapprox


def tail_energy(A, j: int) -> float:
    """tau_j(A) = sqrt(sum_{i>=j} sigma_i^2), 1-based; 0 beyond min(m,n)."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    s = np.linalg.svd(np.asarray(A, dtype=np.float64), compute_uv=False)
    if j > len(s):
        return 0.0
    return float(np.sqrt(np.sum(s[j - 1 :] ** 2)))


def reconstruct_left_to_right(tt) -> np.ndarray:
    """The dense tensor of a TT chain, contracted core by core from the
    left: each step multiplies the (I_1 ... I_{n-1}) x r_{n-1} carry by
    core n's r_{n-1} x I_n r_n unfolding."""
    out = np.reshape(tt.cores[0], (-1, tt.cores[0].shape[2]), order="F")
    for core in tt.cores[1:]:
        G = np.reshape(core, (core.shape[0], -1), order="F")
        out = np.reshape((G.T @ out.T).T, (-1, core.shape[2]), order="F")
    return np.reshape(out, tt.dims, order="F")


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


def assert_replaced(path, save):
    """save() over the existing file at path, first set to mode 0o640,
    leaves a new file of mode 0o640 there and unlinks the old one with its
    bytes intact.  The old file is held open meanwhile: ext4 hands a freed
    inode number straight to the next new file, and a held one is not
    freed, so a new number shows a new file."""
    os.chmod(path, 0o640)
    old = path.read_bytes()
    with open(path, "rb") as held:
        save()
        gone = os.fstat(held.fileno())
        assert gone.st_nlink == 0
        assert held.read() == old
    new = path.stat()
    assert new.st_ino != gone.st_ino
    assert stat.S_IMODE(new.st_mode) == 0o640


def traced_peak(f, *args):
    """(f(*args), the peak of the memory tracemalloc saw during the call);
    numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        got = f(*args)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return ""


needs_openblas = pytest.mark.skipif(
    "openblas" not in _blas_name(), reason="OPENBLAS_NUM_THREADS sets no other BLAS"
)


def at_blas_threads(argv, threads) -> subprocess.CompletedProcess:
    """python argv run with this package on its path and OpenBLAS at the
    given thread count.  OpenBLAS reads its thread count once, at load
    time, so each count runs in its own interpreter."""
    src = str(Path(ttapprox.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc
