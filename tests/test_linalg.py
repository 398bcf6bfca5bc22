from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stack_krylov_basis, tail_energy
from ttapprox import decompose, gaussian_matrix, linalg, tt_reconstruct
from ttapprox.linalg import (
    _power_step_gram,
    krylov_basis,
    krylov_blocks,
    rank_from_tail,
    svd,
)


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


def start_block(A, Omega):
    """The sweep's sketch basis Z_0 = svd(A Omega).U, which the Krylov
    routines start from."""
    return svd(A @ Omega).U


def cost_free():
    """_power_step_gram with its cost test passed, so it decides on
    accuracy alone: w below the short side and the energy test.  The
    matrices below are far too small for the Gram matrix to pay, so the
    tests of the Gram branches take them wherever accuracy allows; the
    cost test is pinned by test_gram_rule_decisions_on_the_workloads_shapes."""
    return mock.patch.object(linalg, "_gram_is_cheaper", lambda rows, cols, w, q: True)


def gram_step(A, w, q):
    """_power_step_gram(A, w, q) with its cost test passed: (M, lift) or
    None."""
    with cost_free():
        return _power_step_gram(A, w, q)


def sweep_operand(A, Omega, q):
    """R, R R^T = A A^T, where a wide step with blocks as wide as Omega
    and q power steps may go through it, else A: the M the sweep passes
    to the Krylov routines once the cost test agrees.  Started from the
    same Z_0, the routines span the same space through either, since
    M M^T = A A^T.  A tall step's T = U^T A works in the coordinates of
    A's left singular vectors, not in A's rows, and is tested through
    the sweep (test_tall_gram_step_matches_the_products_basis)."""
    gram = gram_step(A, Omega.shape[1], q)
    return A if gram is None or gram[1] is not None else gram[0]


def takes_gram(A, Omega, q):
    """Whether a wide step with blocks as wide as Omega may go through R."""
    return sweep_operand(A, Omega, q) is not A


def test_krylov_single_block_reduction():
    # q = 1: span([Z_0, Z_1]) = span([A Omega, A A^T A Omega]), through the
    # two products with A (tall A) and with R (wide A)
    for shape, gram in [((20, 15), False), ((12, 40), True)]:
        A = gaussian_matrix(*shape, 10)
        Om = gaussian_matrix(shape[1], 4, 11)
        assert takes_gram(A, Om, 1) == gram
        blocks = krylov_blocks(sweep_operand(A, Om, 1), start_block(A, Om), 1)
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
    for Z in krylov_blocks(A, start_block(A, Om), 3):
        # the leading direction of every block is u, the range of A
        assert abs(abs(Z[:, 0] @ u) - 1.0) <= 1e-8
        assert np.linalg.norm(Z @ (Z.T @ u) - u) <= 1e-8


def test_krylov_orthonormal():
    for seed in range(3):
        A = gaussian_matrix(18, 12, 20 + seed)
        Om = gaussian_matrix(12, 3, 30 + seed)
        for Z in krylov_blocks(A, start_block(A, Om), 2):
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
        assert takes_gram(A, Om, q) == gram
        U = naive_krylov_basis(A, Om, q)
        P = span_projector(krylov_blocks(sweep_operand(A, Om, q), start_block(A, Om), q))
        assert np.linalg.norm(P - U @ U.T) <= 1e-6, shape


def test_krylov_blocks_orthonormal_powers():
    A = gaussian_matrix(20, 15, 80)
    Om = gaussian_matrix(15, 4, 81)
    blocks = krylov_blocks(A, start_block(A, Om), 3)
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
    for Z in krylov_blocks(sweep_operand(A, Om, 3), start_block(A, Om), 3):
        assert Z.shape == (4, 4)
        assert np.max(np.abs(Z.T @ Z - np.eye(4))) <= 1e-12


def reference_krylov_blocks(A, Z0, q):
    """The iteration through the two products A (A^T Z) at every shape."""
    blocks = [Z0]
    for _ in range(q):
        blocks.append(np.linalg.qr(A @ (A.T @ blocks[-1]))[0])
    return blocks


def spectrum_matrix(s, rows, cols, rng):
    """rows x cols matrix with singular values s and random singular vectors."""
    U = np.linalg.qr(rng.standard_normal((rows, len(s))))[0]
    V = np.linalg.qr(rng.standard_normal((cols, len(s))))[0]
    return (U * s) @ V.T


@st.composite
def krylov_inputs(draw, tall=False, narrow=False):
    """(A, Omega, q, p): A wide or tall (with tall, always tall: the
    transpose of a wide draw, up to 3000 x 30; with narrow, w below both
    sides, as on every step where the sweeps draw) with singular values
    graded geometrically from ||A|| down to as little as 1e-30 ||A||;
    with a flat tail of 1e-3 to 1e-8 ||A|| under 1 to 3 leading values,
    which puts the energy beyond the top w singular directions on both
    sides of the Gram test's 1e-10 ||A||_F^2; in plateaus of 1 to 4 equal
    values, each 10 to 10^4 times below the last; graded under Gaussian
    noise of 1e-1 to 1e-6 ||A||; rank deficient, rank 1 or zero.  Omega
    has w = r + p columns."""
    q, w = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    least = w + 1 if narrow else 1
    rows = draw(st.integers(least, 30))
    wide = st.integers(rows + 1, 3000)
    cols = draw(wide if tall else wide | st.integers(least, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["graded", "flat", "plateau", "noisy", "deficient", "zero", "rank1"]))
    k = min(rows, cols)
    s = np.zeros(k)
    if kind in ("graded", "noisy", "deficient"):
        s = 10.0 ** (-draw(st.floats(0, 30)) * np.arange(k) / max(k - 1, 1))
    elif kind == "flat":
        s[:] = 10.0 ** -draw(st.floats(3, 8))
        s[: draw(st.integers(1, 3))] = 1.0
    elif kind == "plateau":
        s = 10.0 ** (-draw(st.floats(1, 4)) * (np.arange(k) // draw(st.integers(1, 4))))
    elif kind == "rank1":
        s[0] = 1.0
    if kind == "deficient":
        s[draw(st.integers(1, max(1, k - 1))) :] = 0.0
    A = spectrum_matrix(s, rows, cols, rng)
    if kind == "noisy":
        A += rng.standard_normal((rows, cols)) * 10.0 ** -draw(st.floats(1, 6)) / np.sqrt(max(rows, cols))
    A *= 10.0 ** draw(st.integers(-3, 3))
    if tall:
        A = A.T
    return A, rng.standard_normal((A.shape[1], w)), q, draw(st.integers(0, min(2, w - 1)))


# criterion 5's allowance for float64 rounding (tests/test_acceptance.py)
# for the single sweep step of an order-2 tensor
ROUNDING_TAU = 6 * np.finfo(float).eps


def rel_err(method, A, r, q, p, seed=0):
    """rel_err of one sweep of the matrix A at rank r."""
    tt, _ = decompose.run_method(method, A, (r,), p=p, q=q, seed=seed)
    return np.linalg.norm(A - tt_reconstruct(tt)) / np.linalg.norm(A)


def rel_errs(A, r, q, p, seed, through_gram):
    """rel_err of tt_rsvd, tt_rsi and tt_rbki on the matrix A.

    With through_gram the sweeps take R, R R^T = A A^T, wherever accuracy
    allows (cost_free), and there sketch with R Omega'', run the power
    steps and the Ritz step on R and carry Q^T A.  Without, the sweep's
    one G decision (decompose._power_step_gram) is patched to decline, so
    every sketch is A Omega and every power step goes through the
    products A (A^T Z); the patched decision must be the one the sweep
    asked, once per step, so the reference run formed no G.  Where the
    G run takes G, the reference's Omega is V P Omega'', Omega'' the G
    run's draw, A = U Sigma V^T and P the orthogonal factor of U^T U_G
    (U_G the eigenvectors of G): a cols x w Gaussian with A Omega = R
    Omega'' in exact arithmetic, so the two runs differ by G's rounding
    and not by their draws, which tt_rsvd, with no power steps, would not
    forgive."""
    methods = ("rsvd", "rsi", "rbki")
    if through_gram:
        with cost_free():
            return [rel_err(method, A, r, q, p, seed) for method in methods]
    plain, rows, cols = decompose.gaussian_matrix, *A.shape
    rotate = None
    if takes_gram(A, np.empty((cols, min(rows, r + p, cols))), q):
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        W, _, Zt = np.linalg.svd(U.T @ np.linalg.eigh(A @ A.T)[1])
        rotate = Vt.T @ (W @ Zt)

    def draw(n, width, rng):
        return plain(n, width, rng) if rotate is None else rotate @ plain(rows, width, rng)

    decline = mock.Mock(return_value=None)
    with mock.patch.object(decompose, "_power_step_gram", decline):
        with mock.patch.object(decompose, "gaussian_matrix", draw):
            errs = [rel_err(method, A, r, q, p, seed) for method in methods]
    assert decline.call_count == 3  # one step per sweep of a matrix
    return errs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=krylov_inputs(narrow=True))
def test_krylov_branches_span_the_products_iteration(inputs):
    # both branches give orthonormal blocks from the same Z_0.  The
    # products branch is the reference iteration itself; through R each
    # block holds the energy the reference block holds up to R R^T's
    # rounding of about eps ||A||_F^2 per direction
    A, Om, q, p = inputs
    Z0 = start_block(A, Om)
    blocks = krylov_blocks(sweep_operand(A, Om, q), Z0, q)
    ref = reference_krylov_blocks(A, Z0, q)
    norm_sq = np.linalg.norm(A) ** 2
    assert len(blocks) == q + 1
    for Z, R in zip(blocks, ref):
        assert Z.shape == R.shape == (A.shape[0], Om.shape[1])
        assert np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1]))) <= 1e-12
        if not takes_gram(A, Om, q):
            assert np.array_equal(Z, R)
        held = np.linalg.norm(Z.T @ A) ** 2 - np.linalg.norm(R.T @ A) ** 2
        assert abs(held) <= 16 * Z.shape[1] * np.finfo(float).eps * norm_sq


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=krylov_inputs())
def test_row_space_sketch_is_the_gaussian_sketch_of_a(inputs):
    # where the power steps go through G = R R^T, the sweep sketches with
    # R Omega'' for a rows x w Gaussian Omega''.  Exactness: with A = U
    # Sigma V^T and G's eigenvectors U D (D the signs), R = A V D, so R
    # Omega'' = A (V D Omega'') and V D Omega'' is a cols x w Gaussian;
    # on well-separated spectra that G resolves this holds to 1e-10.
    # Accuracy: tt_rsvd, tt_rsi and tt_rbki through G and the row-space
    # sketch stay within criterion 5's bound of their error with the drawn
    # sketch A Omega and the products: the energy test keeps G away from
    # the graded spectra where it would lose directions, and w < rows from
    # exactly low-rank input, where tt_rsvd would keep G's rounding
    A, Om, q, p = inputs
    rows = A.shape[0]
    w = min(rows, Om.shape[1])
    gram = gram_step(A, w, q)
    if gram is None or gram[1] is not None:  # no R: refused, or tall
        return
    R = gram[0]
    G = A @ A.T
    assert R.shape == (rows, rows)
    assert np.linalg.norm(R @ R.T - G) <= 1e-13 * np.linalg.norm(A) ** 2
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] >= 1e-4 * s[0] and np.all(-np.diff(s) >= 1e-3 * s[0]):
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        Ug = np.linalg.eigh(G)[1][:, ::-1]  # descending, as the SVD's
        D = np.sign(np.sum(Ug * U, axis=0))
        Om2 = gaussian_matrix(rows, Om.shape[1], 7)
        want = A @ ((Vt.T * D)[:, ::-1] @ Om2)  # R's columns ascend
        assert np.linalg.norm(R @ Om2 - want) <= 1e-10 * np.linalg.norm(want)
    r = Om.shape[1] - p
    if np.any(A) and r <= min(A.shape):
        got, want = rel_errs(A, r, q, p, 0, True), rel_errs(A, r, q, p, 0, False)
        assert all(g <= 1.1 * ref + ROUNDING_TAU for g, ref in zip(got, want)), (got, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=krylov_inputs(narrow=True))
def test_krylov_basis_holds_the_krylov_space(inputs):
    # the block-by-block basis is orthonormal, keeps between w and
    # min(rows, cols, (q + 1) w) columns and holds every raw power
    # (A A^T)^t A Omega but for what the 1e-12 drop rule lets go; and tt_rbki through it stays within criterion 5's bound of
    # tt_rbki through one QR of the stacked blocks
    A, Om, q, p = inputs
    w = Om.shape[1]
    S = krylov_basis(sweep_operand(A, Om, q), start_block(A, Om), q)
    assert w <= S.shape[1] <= min(*A.shape, (q + 1) * w)
    assert np.max(np.abs(S.T @ S - np.eye(S.shape[1]))) <= 1e-13
    K = A @ Om
    scale = np.linalg.norm(K)
    for t in range(q + 1):
        assert np.linalg.norm(K - S @ (S.T @ K)) <= 1e-9 * scale, t
        K = A @ (A.T @ K)
        scale *= np.linalg.norm(A, 2) ** 2
    r = w - p
    if np.any(A):
        got = rel_err("rbki", A, r, q, p)
        with mock.patch.object(decompose, "krylov_basis", stack_krylov_basis):
            want = rel_err("rbki", A, r, q, p)
        assert got <= 1.1 * want + ROUNDING_TAU, (got, want)


def test_krylov_basis_is_orthonormal_where_a_kept_direction_is_barely_resolved():
    # singular values in pairs, 1, 0.1, ..., 1e-4, at q 1 and w 5: the
    # last direction of the power step's remainder is kept at about 5e-8
    # of the block's scale, just above the 1e-8 where it would be
    # orthonormalized again, and the two projections left it up to 4e-12
    # off the basis (seed 49) until every kept block was projected once
    # more.  Through A, and through R from the same Z_0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        A = spectrum_matrix(10.0 ** -(np.arange(10) // 2), 10, 18, rng)
        Om = rng.standard_normal((18, 5))
        for M in (A, sweep_operand(A, Om, 1)):
            S = krylov_basis(M, start_block(A, Om), 1)
            assert np.max(np.abs(S.T @ S - np.eye(S.shape[1]))) <= 1e-13, seed


def test_krylov_basis_on_zero_rank_one_and_rank_deficient_input():
    # Z_0 is kept whole; a block that adds no direction ends the basis
    rng = np.random.default_rng(31)
    Om = rng.standard_normal((40, 4))
    Z0 = start_block(np.zeros((12, 40)), Om)
    assert np.array_equal(krylov_basis(np.zeros((12, 40)), Z0, 3), Z0)
    u, v = rng.standard_normal(12), rng.standard_normal(40)
    A = np.outer(u, v)
    S = krylov_basis(sweep_operand(A, Om, 3), start_block(A, Om), 3)
    assert S.shape == (12, 4)
    assert np.linalg.norm(u - S @ (S.T @ u)) <= 1e-14 * np.linalg.norm(u)
    # rank 6: Z_0 holds 4 directions of the range, Z_1 the other 2
    A = spectrum_matrix(np.arange(6, 0, -1.0), 12, 40, rng)
    S = krylov_basis(sweep_operand(A, Om, 3), start_block(A, Om), 3)
    assert S.shape == (12, 6)
    assert np.linalg.norm(A - S @ (S.T @ A)) <= 1e-13 * np.linalg.norm(A)


def test_krylov_basis_drops_directions_not_columns():
    # Omega's first column is A's top right singular vector, so the first
    # column of every power step adds nothing: a QR that dropped that
    # column would lose the later columns' share of its noise direction
    # (1e-3 of the raw powers here); the SVD of the remainder drops only
    # the direction
    rng = np.random.default_rng(33)
    U = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    V = np.linalg.qr(rng.standard_normal((40, 12)))[0]
    A = (U * 2.0 ** -np.arange(12)) @ V.T
    Om = np.column_stack([V[:, 0], rng.standard_normal((40, 2))])
    S = krylov_basis(sweep_operand(A, Om, 2), start_block(A, Om), 2)
    assert S.shape == (12, 7)  # 3 + 2 + 2 directions
    K = A @ Om
    for _ in range(3):
        assert np.linalg.norm(K - S @ (S.T @ K)) <= 1e-14 * np.linalg.norm(K)
        K = A @ (A.T @ K)


def test_gram_test_keeps_rsi_and_rbki_accuracy_on_graded_spectra():
    # a 20 x 4000 matrix with singular values graded from 1 to 1e-14: at
    # q 2 and 3 a step costs less through G at every rank, and at ranks 1
    # and 3 it goes through it; at ranks 11-17 the residual lies below
    # 1e-8 ||A||, where G would floor tt_rsi's error at about 1e-9 ||A||
    # (up to about 3600 times the error through the products), and it
    # does not.  tt_rsvd, asked with no power steps, is held to the same
    # bound
    rng = np.random.default_rng(30)
    s = 10.0 ** (-14 * np.arange(20) / 19)
    A = spectrum_matrix(s, 20, 4000, rng)
    for q in (2, 3):
        took = []
        for r in range(1, 18, 2):
            assert linalg._gram_is_cheaper(20, 4000, r + 2, q)
            if takes_gram(A, np.empty((4000, r + 2)), q):
                took.append(r)
            got, want = rel_errs(A, r, q, 2, 5, True), rel_errs(A, r, q, 2, 5, False)
            assert all(g <= 1.1 * w + ROUNDING_TAU for g, w in zip(got, want)), (r, q, got, want)
        assert took == [1, 3], q
    assert s[11] < 1e-8 and s[17] < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=krylov_inputs())
def test_tt_svd_stays_at_the_lapack_optimum_on_graded_spectra(inputs):
    # tt_svd of the matrix A as an order-2 tensor, wide or tall.  A step
    # truncates through the Gram matrix of its short side, A A^T or A^T A,
    # where the energy beyond the chosen rank clears the Gram test, else
    # through svd (the R-only QR, or LAPACK's thin SVD); either way
    # rank mode stays within 1.1x of the optimum sqrt(sum_{i>r} sigma_i^2)
    # from LAPACK's singular values, and epsilon mode within epsilon, up
    # to criterion 5's rounding allowance.  Without the test, G would lose
    # the directions below about sqrt(eps) ||A|| of the graded spectra
    A, Om, _, _ = inputs
    norm = np.linalg.norm(A)
    s = np.linalg.svd(A, compute_uv=False)
    r = min(Om.shape[1], *A.shape)
    tt, _ = decompose.tt_svd(A, decompose.TruncationSpec(ranks=(r,)))
    err = np.linalg.norm(A - tt_reconstruct(tt))
    best = np.sqrt(np.sum(s[r:] ** 2))
    assert err <= 1.1 * best + ROUNDING_TAU * norm, (r, err / norm, best / norm)
    for eps in (1e-1, 1e-4, 1e-8, 1e-12):
        tt, _ = decompose.tt_svd(A, decompose.TruncationSpec(epsilon=eps))
        err = np.linalg.norm(A - tt_reconstruct(tt))
        assert err <= (eps + ROUNDING_TAU) * norm, (eps, tt.ranks, err / norm)


def tall_spectrum(kind, rows, rng):
    """A rows x 100 matrix with the kind of spectrum tt_svd's tall Gram
    step must handle: graded geometrically to 1e-14 or 1e-30, ten
    graded values over a flat Gaussian-noise tail of about 1e-4, or ten
    equal values over a flat tail whose energy beyond them is half or
    twice _GRAM_TAIL ||A||_F^2."""
    cols = 100
    i = np.arange(cols)
    if kind.startswith("graded"):
        return spectrum_matrix(10.0 ** (-float(kind[6:]) * i / (cols - 1)), rows, cols, rng)
    if kind == "noisy":
        noise = rng.standard_normal((rows, cols)) * 1e-4 / np.sqrt(rows)
        return spectrum_matrix(10.0 ** (-2 * i[:10] / 9), rows, cols, rng) + noise
    f = {"straddle-below": 0.5, "straddle-above": 2.0}[kind] * linalg._GRAM_TAIL
    # 90 values tau under ten ones: 90 tau^2 = f (10 + 90 tau^2)
    tau = np.sqrt(10 * f / (90 * (1 - f)))
    return spectrum_matrix(np.where(i < 10, 1.0, tau), rows, cols, rng)


@pytest.mark.parametrize("rows", [1000, 2000])
@pytest.mark.parametrize(
    "kind", ["graded14", "graded30", "noisy", "straddle-below", "straddle-above"]
)
def test_tt_svd_tall_gram_step_at_workload_scale(rows, kind):
    # the shapes of spectrum 100^3's step 1 at ranks 10 and 20.  A tall
    # step truncates through A^T A exactly where the energy beyond the
    # chosen rank clears the Gram test, and either way stays within 1.1x
    # of LAPACK's optimum in rank mode and within epsilon in epsilon mode,
    # with a left-orthonormal core
    A = tall_spectrum(kind, rows, np.random.default_rng(rows))
    norm = np.linalg.norm(A)
    s = np.linalg.svd(A, compute_uv=False)

    def sweep(trunc):
        with mock.patch.object(decompose, "svd", wraps=decompose.svd) as lapack:
            tt, _ = decompose.tt_svd(A, trunc)
        Q = tt.cores[0][0]
        assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1]))) <= 1e-13
        return np.linalg.norm(A - tt_reconstruct(tt)), Q.shape[1], not lapack.called

    for r in (1, 5, 10, 20, 50):
        err, _, gram = sweep(decompose.TruncationSpec(ranks=(r,)))
        best = np.sqrt(np.sum(s[r:] ** 2))
        assert err <= 1.1 * best + ROUNDING_TAU * norm, (r, err / norm, best / norm)
        tail = np.sum(s[r:] ** 2) / np.sum(s**2)
        if tail >= 2 * linalg._GRAM_TAIL or tail <= linalg._GRAM_TAIL / 2:
            assert gram == (tail > linalg._GRAM_TAIL), (r, tail)
    for eps in (1e-1, 1e-4, 1e-8, 1e-12):
        err, r, _ = sweep(decompose.TruncationSpec(epsilon=eps))
        assert err <= (eps + ROUNDING_TAU) * norm, (eps, r, err / norm)


def step_basis(method, A, r, q, p, through_gram):
    """Q of one sweep step of the matrix A at rank r, the first core as a
    rows x r matrix: with through_gram wherever accuracy allows
    (cost_free), else with the sweep's one Gram decision declined, so
    every sketch is A Omega and every power step goes through the
    products.  Either way the sweep draws the same Omega at seed 0 on a
    tall step."""
    gate = cost_free() if through_gram else mock.patch.object(decompose, "_power_step_gram", return_value=None)
    with gate:
        tt, _ = decompose.run_method(method, A, (r,), p=p, q=q, seed=0)
    Q = np.reshape(tt.cores[0], (A.shape[0], r), order="F")
    assert np.all(np.isfinite(Q))
    assert np.max(np.abs(Q.T @ Q - np.eye(r))) <= 1e-13
    return Q


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=krylov_inputs(tall=True))
def test_tall_gram_step_matches_the_products_basis(inputs):
    # where the gate passes on a tall step, tt_rsi and tt_rbki run their
    # range finder on T = U^T A, from the cols x w Omega the products
    # path draws at the same seed (T Omega = U^T (A Omega)), and lift its
    # basis with one QR of A V Sigma^+ Q_T.  The two bases then hold the
    # same energy to rounding, and the same subspace up to what the Gram
    # matrix resolves, about sqrt(eps) ||A||, over the gap at r
    # (Davis-Kahan); on a plateau that straddles r, or on a zero A, any
    # basis of it is as good, and only the energy is compared
    A, Om, q, p = inputs
    rows, cols = A.shape
    r = Om.shape[1] - p
    if r > cols or gram_step(A, min(cols, r + p), q) is None:
        return
    norm_sq = np.linalg.norm(A) ** 2
    s = np.linalg.svd(A, compute_uv=False)
    gap = s[r - 1] - (s[r] if r < cols else 0.0)
    for method in ("rsi", "rbki"):
        got, want = (step_basis(method, A, r, q, p, g) for g in (True, False))
        held = np.linalg.norm(got.T @ A) ** 2 - np.linalg.norm(want.T @ A) ** 2
        assert abs(held) <= 16 * r * np.finfo(float).eps * norm_sq, method
        # ||Q Q^T - Q' Q'^T||_2, the sine of the largest principal angle
        apart = np.linalg.norm(got - want @ (want.T @ got), 2)
        assert apart * gap <= np.sqrt(np.finfo(float).eps) * s[0], (method, apart, gap)


def tall_tail_spectrum(f, rows, r, w, rng):
    """A rows x 100 matrix whose top r singular values fall from 1 to
    1e-3, the next w - r sit at 1e-5, and whose energy beyond the top w
    directions, a flat tail, is f ||A||_F^2."""
    cols = 100
    s = np.concatenate([10.0 ** (-3 * np.arange(r) / (r - 1)), np.full(w - r, 1e-5)])
    # cols - w values tau beyond w: (cols - w) tau^2 = f (sum s^2 + (cols - w) tau^2)
    tau = np.sqrt(f * np.sum(s**2) / ((cols - w) * (1 - f)))
    return spectrum_matrix(np.concatenate([s, np.full(cols - w, tau)]), rows, cols, rng)


@pytest.mark.parametrize("r", [10, 20])
def test_tall_gram_step_at_the_energy_test_boundary(r):
    # spectrum 100^3's step 1 shapes, 1000 x 100 and 2000 x 100 at ranks
    # 10 and 20, p 2, with the energy beyond w at half and twice
    # _GRAM_TAIL ||A||_F^2: the gate refuses the first and takes the
    # second, and tt_rsi and tt_rbki stay within 1.1x of the optimum
    # through either
    rng = np.random.default_rng(r)
    w = r + 2
    for factor in (0.5, 2.0):
        A = tall_tail_spectrum(factor * linalg._GRAM_TAIL, 100 * r, r, w, rng)
        s = np.linalg.svd(A, compute_uv=False)
        best = np.sqrt(np.sum(s[r:] ** 2))
        for q in (1, 2):
            assert (gram_step(A, w, q) is not None) == (factor > 1), (factor, q)
            for method in ("rsi", "rbki"):
                Q = step_basis(method, A, r, q, 2, True)
                err = np.linalg.norm(A - Q @ (Q.T @ A))
                assert err <= 1.1 * best + ROUNDING_TAU * np.linalg.norm(A), (factor, q, method, err, best)


def test_tall_gram_step_on_rank_deficient_input():
    # 2000 x 100 of rank 40, singular values exactly zero beyond 40 > w:
    # the gate passes at w 22 (by the fitted cost rule at q 2), Sigma^+ drops
    # the singular values at rounding level, and the lifted basis is
    # finite, orthonormal and within 1.1x of the optimum
    rng = np.random.default_rng(41)
    s = np.concatenate([10.0 ** (-2 * np.arange(40) / 39), np.zeros(60)])
    A = spectrum_matrix(s, 2000, 100, rng)
    norm = np.linalg.norm(A)
    assert _power_step_gram(A, 22, 2) is not None
    for q in (1, 2):
        lift = gram_step(A, 22, q)[1]
        # V Sigma^+: the 60 rounding-level singular values are dropped
        assert np.all(np.isfinite(lift)) and np.count_nonzero(np.any(lift, axis=0)) == 40
        for method in ("rsi", "rbki"):
            with cost_free():
                tt, _ = decompose.run_method(method, A, (20,), p=2, q=q, seed=3)
            Q = np.reshape(tt.cores[0], (2000, 20), order="F")
            assert np.all(np.isfinite(Q))
            assert np.max(np.abs(Q.T @ Q - np.eye(20))) <= 1e-13
            err = np.linalg.norm(A - tt_reconstruct(tt))
            assert err <= 1.1 * np.sqrt(np.sum(s[20:] ** 2)) + ROUNDING_TAU * norm, (q, method)


# (rows, cols, w, M at q 0 as tt_rsvd asks, M at q 2 as tt_rsi and
# tt_rbki ask), with the model's costs in ms: drawn at q 0 / drawn at
# q 2 / through M (at q 2 where it differs)
GRAM_RULE_DECISIONS = [
    # powerfn5-clean, 20^5 at ranks 4 and 8, steps 0 to 2.  Step 0: the
    # cols w normals dwarf G, whose 20 rows read A once (19 / 42 / 1.4,
    # and 32 / 57 / 1.5 at w 10)
    (20, 160000, 6, True, True),
    (20, 160000, 10, True, True),
    # 80 x 8000: G and eigh(80) outweigh 48000 normals, until the q 2
    # power steps' four passes over A are counted (1.1 / 5.6 / 2.7)
    (80, 8000, 6, False, True),
    # 160 x 8000: G's 205M flops and eigh(160) against the draw, and at
    # q 2 the power steps (2.1 / 12.0 / 10.7); forced each way, a step
    # through R was 0.3 to 2.5 ms faster at q 2
    (160, 8000, 10, False, True),
    # 80 x 400: eigh(80) against 2400 normals (0.06 / 0.12 / 1.7)
    (80, 400, 6, False, False),
    (160, 400, 10, False, False),
    # spectrum3-noisy, 100^3 at ranks 10 and 20, step 0: at w 12 G's 1e8
    # flops and eigh(100) outweigh the draw, but not the q 2 power steps
    # (2.8 / 10.9 / 4.6); at w 22 the draw alone (5.2 / 15.4 / 4.8)
    (100, 10000, 12, False, True),
    (100, 10000, 22, True, True),
    # powerfn 10^5 and 10^6 at ranks 3, step 0: 10 rows (0.97 / 1.1 /
    # 0.11, and 9.7 / 17 / 0.29 at 10^6)
    (10, 10000, 5, True, True),
    (10, 100000, 5, True, True),
    # cli-files' 30 x 1000 (10^5 and 10^6, step 1) and 40 x 2500 (40 x 50
    # x 50, step 0): A fits in cache, so the power steps cost their flops
    # alone (0.10 / 0.14 / 0.31 and 0.26 / 0.35 / 0.54); forced each way,
    # tt_rsi through the products was 0.02 to 0.1 ms faster on both, in
    # all six runs (tt_rbki on 40 x 2500 within 0.06 ms either way)
    (30, 1000, 5, False, False),
    (40, 2500, 5, False, False),
    # spectrum3-noisy, step 1, tall: H = A^T A, eigh(100) and the lift
    # against q + 1 factorizations of 1000 x 12 (0.62 / 2.0 / 3.6), and
    # of 2000 x 22 (4.1 / 12.5 / 7.6)
    (1000, 100, 12, False, False),
    (2000, 100, 22, False, True),
    # powerfn 20^5's last step, 80 x 20 and 160 x 20 (0.01 / 0.04 / 0.18,
    # and 0.07 / 0.20 / 0.25)
    (80, 20, 6, False, False),
    (160, 20, 10, False, False),
    # cli-files' tall steps: the fixed cost alone exceeds the products
    # (at most 0.05 ms drawn against 0.08 to 0.72 through M)
    (30, 10, 5, False, False),
    (75, 20, 5, False, False),
    (150, 50, 5, False, False),
    (54, 18, 5, False, False),
    (15, 8, 5, False, False),
]


def test_gram_rule_decisions_on_the_workloads_shapes():
    # one rule for the three sweeps and both orientations: tt_rsvd asks
    # it with no power steps, tt_rsi and tt_rbki with their q.  Its cost
    # model is fixed constants, so these decisions do not depend on the
    # machine; the random inputs pass the energy test.  A wide step
    # through M gets R, a tall one T and its lift
    rng = np.random.default_rng(32)
    for rows, cols, w, *wants in GRAM_RULE_DECISIONS:
        A = rng.standard_normal((rows, cols))
        for q, want in zip((0, 2), wants):
            gram = _power_step_gram(A, w, q)
            assert (gram is not None) == want, (rows, cols, w, q)
            if gram is not None:
                short = min(rows, cols)
                assert gram[0].shape == (short, short)
                assert (gram[1] is None) == (rows < cols), (rows, cols)
    # never where Z_0 already spans the short side (w >= min(rows, cols)),
    # however cheap: cli-files' 4 x 1000, 5 x 3125 and 15 x 5 steps at
    # w 4, 5 and 5
    for rows, cols, w in [(4, 1000, 4), (5, 3125, 5), (15, 5, 5)]:
        A = rng.standard_normal((rows, cols))
        with cost_free():
            assert all(_power_step_gram(A, w, q) is None for q in range(4)), (rows, cols)


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
