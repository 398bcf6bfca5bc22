from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import tail_energy
from ttapprox import decompose, gaussian_matrix, tt_reconstruct
from ttapprox.linalg import _power_step_gram, economy_qr, krylov_blocks, rank_from_tail, svd


def test_qr_column_345():
    Q, R = economy_qr(np.array([[3.0], [4.0]]))
    # sign-normalized so the R diagonal is nonnegative
    assert np.allclose(Q, [[0.6], [0.8]], atol=1e-15)
    assert np.allclose(R, [[5.0]], atol=1e-15)


def test_qr_identity():
    Q, R = economy_qr(np.eye(4))
    assert np.allclose(Q, np.eye(4), atol=1e-15)
    assert np.allclose(R, np.eye(4), atol=1e-15)


def test_qr_tall():
    A = np.random.default_rng(0).standard_normal((50, 10))
    Q, R = economy_qr(A)
    assert np.max(np.abs(Q.T @ Q - np.eye(10))) <= 1e-12
    assert np.linalg.norm(Q @ R - A) <= 1e-10


@pytest.mark.parametrize("shape", [(3, 7), (6, 6), (9, 4)])
def test_qr_all_aspect_ratios(shape):
    A = np.random.default_rng(sum(shape)).standard_normal(shape)
    Q, R = economy_qr(A)
    k = min(shape)
    assert Q.shape == (shape[0], k) and R.shape == (k, shape[1])
    assert np.max(np.abs(Q.T @ Q - np.eye(k))) <= 1e-10
    assert np.linalg.norm(Q @ R - A) <= 1e-9 * np.linalg.norm(A)
    assert np.all(np.diag(R) >= 0)


def test_qr_rank_deficient_still_orthonormal():
    u = np.random.default_rng(1).standard_normal((8, 1))
    A = u @ np.ones((1, 3))
    Q, R = economy_qr(A)
    assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-10
    assert np.linalg.norm(Q @ R - A) <= 1e-10 * np.linalg.norm(A)


def test_svd_diagonal():
    r = svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(r.s, [3, 2, 1], atol=1e-15)


def test_svd_rank_one():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(6)
    v = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    r = svd(np.outer(u, v))
    assert abs(r.s[0] - 1) <= 1e-12
    assert np.all(r.s[1:] <= 1e-12)


def test_svd_gram_oracle():
    A = np.random.default_rng(3).standard_normal((20, 30))
    r = svd(A)
    lam = np.sort(np.linalg.eigvalsh(A @ A.T))[::-1]
    assert np.allclose(r.s, np.sqrt(np.maximum(lam, 0)), rtol=1e-8)


def test_svd_reconstruction_and_sign_convention():
    # tall through LAPACK's thin SVD; wide and 1 x n through the R-only QR
    for shape in [(12, 8), (8, 12), (1, 9)]:
        A = np.random.default_rng(4).standard_normal(shape)
        r = svd(A)
        k = min(shape)
        assert r.U.shape == (shape[0], k) and r.s.shape == (k,)
        # U spans the range of A, and the rows of U^T A = diag(s) V^T have norms s
        assert np.linalg.norm(r.U @ (r.U.T @ A) - A) <= 1e-9 * np.linalg.norm(A)
        assert np.allclose(np.linalg.norm(r.U.T @ A, axis=1), r.s, rtol=1e-10)
        assert np.max(np.abs(r.U.T @ r.U - np.eye(k))) <= 1e-10
        # each left vector's largest-magnitude entry is nonnegative
        for j in range(k):
            col = r.U[:, j]
            assert col[np.argmax(np.abs(col))] >= 0


def test_truncated_svd_delta_examples():
    s = np.array([3.0, 2.0, 1.0])
    assert rank_from_tail(s, 1.5) == 2  # tail 1 <= 1.5, sqrt(5) > 1.5
    assert rank_from_tail(s, 100.0) == 1  # floor at rank 1


def test_truncated_svd_delta_invariant():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = rng.standard_normal((10, 8))
        delta = rng.uniform(0.5, 3.0)
        r = rank_from_tail(np.linalg.svd(A, compute_uv=False), delta)
        assert tail_energy(A, r + 1) <= delta
        assert r == 1 or tail_energy(A, r) > delta


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(20, 10, 123)
    b = gaussian_matrix(20, 10, 123)
    assert np.array_equal(a, b)
    assert a.shape == (20, 10)


def test_gaussian_matrix_moments():
    g = gaussian_matrix(1000, 1000, 7)
    assert abs(g.mean()) <= 0.01
    assert 0.99 <= g.var() <= 1.01


def test_gaussian_matrix_seeds_differ():
    a = gaussian_matrix(10, 10, 1).ravel(order="F")[:100]
    b = gaussian_matrix(10, 10, 2).ravel(order="F")[:100]
    assert not np.array_equal(a, b)


def test_gaussian_matrix_column_prefix_stable():
    # widening the sketch appends columns, keeping the old ones
    narrow = gaussian_matrix(15, 4, 99)
    wide = gaussian_matrix(15, 9, 99)
    assert np.array_equal(wide[:, :4], narrow)


def span_projector(blocks):
    Q = np.linalg.qr(np.hstack(blocks))[0]
    return Q @ Q.T


def takes_gram(A, Omega):
    """Whether krylov_blocks takes its power steps through G = A A^T."""
    return _power_step_gram(A, Omega.shape[1]) is not None


def test_krylov_single_block_reduction():
    # q = 1: span([Z_0, Z_1]) = span([A Omega, A A^T A Omega]), through the
    # two products (tall A) and through the Gram matrix (wide A)
    for shape, gram in [((20, 15), False), ((12, 40), True)]:
        A = gaussian_matrix(*shape, 10)
        Om = gaussian_matrix(shape[1], 4, 11)
        assert takes_gram(A, Om) == gram
        blocks = krylov_blocks(A, Om, 1)
        assert len(blocks) == 2
        ref = span_projector([A @ Om, A @ (A.T @ (A @ Om))])
        assert np.linalg.norm(span_projector(blocks) - ref) <= 1e-8, shape


def test_krylov_rank_one_collapse():
    rng = np.random.default_rng(12)
    u = rng.standard_normal(20)
    v = rng.standard_normal(15)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    A = 3.0 * np.outer(u, v)
    Om = gaussian_matrix(15, 4, 13)
    for Z in krylov_blocks(A, Om, 3):
        # the leading direction of every block is u, the range of A
        assert abs(abs(Z[:, 0] @ u) - 1.0) <= 1e-8
        assert np.linalg.norm(Z @ (Z.T @ u) - u) <= 1e-8


def test_krylov_orthonormal():
    for seed in range(3):
        A = gaussian_matrix(18, 12, 20 + seed)
        Om = gaussian_matrix(12, 3, 30 + seed)
        for Z in krylov_blocks(A, Om, 2):
            assert Z.shape == (18, 3)
            assert np.max(np.abs(Z.T @ Z - np.eye(3))) <= 1e-10


def naive_krylov_basis(A, Omega, q):
    """Reference: one QR of the raw stacked powers (A A^T)^t A Omega."""
    powers = [A @ Omega]
    for _ in range(q):
        powers.append(A @ (A.T @ powers[-1]))
    Q = np.linalg.qr(np.hstack(powers))[0]
    return Q[:, : min(*A.shape, (q + 1) * Omega.shape[1])]


@pytest.mark.parametrize("q", [1, 2, 3])
def test_krylov_default_matches_naive_span(q):
    # on well-conditioned inputs (the stack has full column rank)
    # per-block stabilization changes nothing, on either branch
    for shape, w, gram in [((40, 30), 4, False), ((24, 80), 7, True)]:
        A = gaussian_matrix(*shape, 40 + q)
        Om = gaussian_matrix(shape[1], w, 50 + q)
        assert takes_gram(A, Om) == gram
        U = naive_krylov_basis(A, Om, q)
        P = span_projector(krylov_blocks(A, Om, q))
        assert np.linalg.norm(P - U @ U.T) <= 1e-6, shape


def test_krylov_blocks_orthonormal_powers():
    A = gaussian_matrix(20, 15, 80)
    Om = gaussian_matrix(15, 4, 81)
    blocks = krylov_blocks(A, Om, 3)
    assert len(blocks) == 4
    B = A @ Om
    for Z in blocks:
        P = np.linalg.qr(B)[0]
        assert np.max(np.abs(Z.T @ Z - np.eye(4))) <= 1e-12
        assert np.linalg.norm(Z @ Z.T - P @ P.T) <= 1e-8
        B = A @ (A.T @ B)


def test_krylov_column_cap():
    # every QR is of a rows x width block: an Omega wider than A has rows
    # gives blocks of exactly rows columns, never the long side
    A = gaussian_matrix(4, 30, 60)
    Om = gaussian_matrix(30, 6, 61)
    for Z in krylov_blocks(A, Om, 3):
        assert Z.shape == (4, 4)
        assert np.max(np.abs(Z.T @ Z - np.eye(4))) <= 1e-12


def reference_krylov_blocks(A, Omega, q):
    """The iteration through the two products A (A^T Z) at every shape."""
    blocks = [economy_qr(A @ Omega)[0]]
    for _ in range(q):
        blocks.append(economy_qr(A @ (A.T @ blocks[-1]))[0])
    return blocks


def spectrum_matrix(s, rows, cols, rng):
    """rows x cols matrix with singular values s and random singular vectors."""
    U = np.linalg.qr(rng.standard_normal((rows, len(s))))[0]
    V = np.linalg.qr(rng.standard_normal((cols, len(s))))[0]
    return (U * s) @ V.T


@st.composite
def krylov_inputs(draw):
    """(A, Omega, q, p): A wide or tall, zero, rank 1, with singular values
    graded geometrically from ||A|| down to as little as 1e-30 ||A||, or
    with a flat tail of 1e-3 to 1e-8 ||A|| under 1 to 3 leading values,
    which puts the energy beyond the top w singular directions on both
    sides of the Gram test's 1e-10 ||A||_F^2; Omega has w = r + p columns."""
    q, w = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(rows + 1, 3000) | st.integers(1, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["graded", "flat", "zero", "rank1"]))
    k = min(rows, cols)
    s = np.zeros(k)
    if kind == "graded":
        s = 10.0 ** (-draw(st.floats(0, 30)) * np.arange(k) / max(k - 1, 1))
    elif kind == "flat":
        s[:] = 10.0 ** -draw(st.floats(3, 8))
        s[: draw(st.integers(1, 3))] = 1.0
    elif kind == "rank1":
        s[0] = 1.0
    A = spectrum_matrix(s, rows, cols, rng) * 10.0 ** draw(st.integers(-3, 3))
    return A, rng.standard_normal((cols, w)), q, draw(st.integers(0, min(2, w - 1)))


# criterion 5's allowance for float64 rounding (tests/test_acceptance.py)
# for the single sweep step of an order-2 tensor
ROUNDING_TAU = 6 * np.finfo(float).eps


def rel_errs(A, r, q, p, seed, kb):
    """rel_err of tt_rsi and tt_rbki on the matrix A at rank r, with
    krylov_blocks replaced by kb."""
    errs = []
    with mock.patch.object(decompose, "krylov_blocks", kb):
        for method in ("rsi", "rbki"):
            tt, _ = decompose.run_method(method, A, (r,), p=p, q=q, seed=seed)
            errs.append(np.linalg.norm(A - tt_reconstruct(tt)) / np.linalg.norm(A))
    return errs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=krylov_inputs())
def test_krylov_branches_span_the_products_iteration(inputs):
    # both branches give orthonormal blocks.  The products branch is the
    # reference iteration itself; through G each block holds the energy
    # the reference block holds up to G's rounding of about eps ||A||_F^2
    # per direction, and tt_rsi and tt_rbki stay within criterion 5's
    # bound of their error through the products: the Gram test keeps G
    # away from the graded spectra where it would lose directions
    A, Om, q, p = inputs
    blocks = krylov_blocks(A, Om, q)
    ref = reference_krylov_blocks(A, Om, q)
    norm_sq = np.linalg.norm(A) ** 2
    assert len(blocks) == q + 1
    for Z, R in zip(blocks, ref):
        assert Z.shape == R.shape == (A.shape[0], min(A.shape[0], Om.shape[1]))
        assert np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1]))) <= 1e-12
        if not takes_gram(A, Om):
            assert np.array_equal(Z, R)
        held = np.linalg.norm(Z.T @ A) ** 2 - np.linalg.norm(R.T @ A) ** 2
        assert abs(held) <= 16 * Z.shape[1] * np.finfo(float).eps * norm_sq
    r = Om.shape[1] - p
    if norm_sq > 0 and r <= min(A.shape):
        got, want = rel_errs(A, r, q, p, 0, krylov_blocks), rel_errs(A, r, q, p, 0, reference_krylov_blocks)
        assert all(g <= 1.1 * w + ROUNDING_TAU for g, w in zip(got, want)), (got, want)


def test_gram_test_keeps_rsi_and_rbki_accuracy_on_graded_spectra():
    # a 20 x 4000 matrix with singular values graded from 1 to 1e-14: at
    # ranks 1 and 3 the power steps go through G; at ranks 11-17 the
    # residual lies below 1e-8 ||A||, where G would floor tt_rsi's error
    # at about 1e-9 ||A|| (up to about 3600 times the error through the
    # products), and they do not
    rng = np.random.default_rng(30)
    s = 10.0 ** (-14 * np.arange(20) / 19)
    A = spectrum_matrix(s, 20, 4000, rng)
    took = {}
    for r in range(1, 18, 2):
        took[r] = takes_gram(A, np.empty((4000, r + 2)))
        for q in (1, 2):
            got = rel_errs(A, r, q, 2, 5, krylov_blocks)
            want = rel_errs(A, r, q, 2, 5, reference_krylov_blocks)
            assert all(g <= 1.1 * w + ROUNDING_TAU for g, w in zip(got, want)), (r, q, got, want)
    assert [r for r in took if took[r]] == [1, 3]
    assert s[11] < 1e-8 and s[17] < 1e-12


def test_tail_energy_full_spectrum():
    A = np.random.default_rng(14).standard_normal((9, 7))
    assert abs(tail_energy(A, 1) - np.linalg.norm(A)) <= 1e-10


def test_tail_energy_diagonal():
    assert abs(tail_energy(np.diag([3.0, 2.0, 1.0]), 2) - np.sqrt(5)) <= 1e-12
    assert tail_energy(np.diag([3.0, 2.0, 1.0]), 4) == 0.0


def test_tail_energy_eckart_young():
    A = np.random.default_rng(15).standard_normal((15, 10))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    best3 = (U[:, :3] * s[:3]) @ Vt[:3]
    assert abs(tail_energy(A, 4) - np.linalg.norm(A - best3)) <= 1e-9


def test_tail_energy_bad_j():
    with pytest.raises(ValueError):
        tail_energy(np.eye(2), 0)
