import math

import numpy as np
import pytest

from ttapprox import (
    InvalidArgumentError,
    SketchConfig,
    TTTensor,
    TruncationSpec,
    frobenius_norm,
    relative_error,
    spectrum_decay_tensor,
    power_function_tensor,
    tt_rbki,
    tt_reconstruct,
    tt_rsi,
    tt_rsvd,
    tt_svd,
    validate,
)
from ttapprox import decompose
from ttapprox.linalg import economy_qr, gaussian_matrix
from ttapprox.tt import left_unfolding

ALGS = {
    "rsvd": tt_rsvd,
    "rsi": tt_rsi,
    "rbki": tt_rbki,
}


def rank_one_tensor(seed=0):
    rng = np.random.default_rng(seed)
    u, v, w = (rng.standard_normal(d) for d in (5, 6, 7))
    u, v, w = (x / np.linalg.norm(x) for x in (u, v, w))
    return 7.0 * np.einsum("i,j,k->ijk", u, v, w)


def random_tt_tensor(dims, ranks, seed):
    rng = np.random.default_rng(seed)
    chain = (1,) + tuple(ranks) + (1,)
    cores = [rng.standard_normal((chain[i], d, chain[i + 1])) for i, d in enumerate(dims)]
    return tt_reconstruct(TTTensor(cores))


def rel(t, tt):
    return relative_error(t, tt_reconstruct(tt))


def median_err(fn, t, seeds, **kw):
    return float(np.median([rel(t, fn(t, SketchConfig(seed=s, **kw))[0]) for s in seeds]))


# ---------------- tt_svd ----------------


def test_tt_svd_rank_one_epsilon():
    t = rank_one_tensor()
    tt, trace = tt_svd(t, TruncationSpec(epsilon=1e-8))
    assert tt.ranks == (1, 1, 1, 1)
    assert rel(t, tt) <= 1e-10
    assert len(trace.steps) == 2


def test_tt_svd_epsilon_bound_from_trace():
    t = np.random.default_rng(1).standard_normal((6, 6, 6))
    tt, trace = tt_svd(t, TruncationSpec(epsilon=0.3))
    err = frobenius_norm(t - tt_reconstruct(tt))
    assert err / frobenius_norm(t) <= 0.3
    bound = math.sqrt(sum(s.residual**2 for s in trace.steps))
    assert err <= bound + 1e-12


def test_tt_svd_full_rank_lossless():
    t = np.random.default_rng(2).standard_normal((6, 6, 6))
    tt, _ = tt_svd(t, TruncationSpec(ranks=(6, 6)))
    assert rel(t, tt) <= 1e-10


def test_tt_svd_requested_ranks_used_exactly():
    t = np.random.default_rng(3).standard_normal((7, 6, 5))
    tt, trace = tt_svd(t, TruncationSpec(ranks=(3, 2)))
    assert tt.ranks == (1, 3, 2, 1)
    assert [s.rank for s in trace.steps] == [3, 2]


def test_tt_svd_argument_errors():
    t = np.zeros((4, 4, 4))
    with pytest.raises(InvalidArgumentError):
        tt_svd(t, TruncationSpec(ranks=(7, 2)))  # 7 > min(4, 16)
    with pytest.raises(InvalidArgumentError):
        tt_svd(t, TruncationSpec(ranks=(2,)))  # wrong length
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            TruncationSpec(epsilon=bad)
    with pytest.raises(InvalidArgumentError):
        TruncationSpec(epsilon=0.1, ranks=(2, 2))
    with pytest.raises(InvalidArgumentError):
        TruncationSpec()
    with pytest.raises(InvalidArgumentError):
        tt_svd(np.zeros(5), TruncationSpec(epsilon=0.1))  # order 1 has no sweep


def test_tt_svd_order_one_rank_mode():
    v = np.arange(1.0, 6.0)
    tt, trace = tt_svd(v, TruncationSpec(ranks=()))
    assert trace.steps == []
    assert np.array_equal(tt_reconstruct(tt), v)


def test_trace_residuals_match_tail_energy_oracle():
    # rebuild the sweep by hand with plain numpy and compare step residuals
    t = np.random.default_rng(4).standard_normal((5, 6, 7))
    tt, trace = tt_svd(t, TruncationSpec(ranks=(3, 4)))

    A1 = np.reshape(t, (5, 42), order="F")
    _, s1, Vt1 = np.linalg.svd(A1, full_matrices=False)
    want1 = math.sqrt(float(np.sum(s1[3:] ** 2)))
    assert abs(trace.steps[0].residual - want1) <= 1e-10 * max(1.0, want1)

    A2 = np.reshape(s1[:3, None] * Vt1[:3], (18, 7), order="F")
    s2 = np.linalg.svd(A2, compute_uv=False)
    want2 = math.sqrt(float(np.sum(s2[4:] ** 2)))
    assert abs(trace.steps[1].residual - want2) <= 1e-10 * max(1.0, want2)


def test_trace_elapsed_positive():
    t = np.random.default_rng(5).standard_normal((6, 6, 6))
    _, trace = tt_svd(t, TruncationSpec(ranks=(3, 3)))
    assert all(s.elapsed_s > 0 for s in trace.steps)


# ---------------- randomized sweeps ----------------


def test_tt_rsvd_exact_rank_recovery():
    t = random_tt_tensor((30, 30, 30), (2, 2), seed=7)
    err = median_err(tt_rsvd, t, range(5), ranks=(2, 2), p=5, q=1)
    assert err <= 1e-8


def test_tt_rsvd_deterministic():
    t = np.random.default_rng(8).standard_normal((8, 8, 8))
    cfg = SketchConfig(ranks=(3, 3), p=2, q=1, seed=42)
    a, _ = tt_rsvd(t, cfg)
    b, _ = tt_rsvd(t, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))


def test_tt_rsvd_worse_than_rbki_on_spectrum_tensor():
    # paired 5-seed comparison at ranks (30,30); the Krylov sweep wins
    t = spectrum_decay_tensor(100, 20, 1.0)
    e_rsvd = median_err(tt_rsvd, t, range(5), ranks=(30, 30), p=2, q=1)
    e_rbki = median_err(tt_rbki, t, range(5), ranks=(30, 30), p=2, q=2)
    assert e_rsvd > e_rbki


def test_tt_rsi_converges_to_svd_quality():
    t = spectrum_decay_tensor(50, 5, 1.0)
    tt, _ = tt_svd(t, TruncationSpec(ranks=(10, 10)))
    e_svd = rel(t, tt)
    e_rsi = median_err(tt_rsi, t, range(5), ranks=(10, 10), p=5, q=4)
    assert e_rsi <= 1.05 * e_svd


def test_tt_rsi_deterministic():
    t = np.random.default_rng(9).standard_normal((8, 8, 8))
    cfg = SketchConfig(ranks=(3, 3), p=2, q=2, seed=5)
    a, _ = tt_rsi(t, cfg)
    b, _ = tt_rsi(t, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))


def test_tt_rsi_q1_no_worse_than_rsvd():
    t = spectrum_decay_tensor(50, 5, 1.0)
    e_rsi = median_err(tt_rsi, t, range(9), ranks=(10, 10), p=2, q=1)
    e_rsvd = median_err(tt_rsvd, t, range(9), ranks=(10, 10), p=2, q=1)
    assert e_rsi <= e_rsvd + 1e-12


def test_tt_rbki_exact_rank_recovery():
    t = random_tt_tensor((25, 25, 25), (3, 3), seed=10)
    err = median_err(tt_rbki, t, range(5), ranks=(3, 3), p=4, q=2)
    assert err <= 1e-8


def test_tt_rbki_tracks_svd_on_power_function_tensor():
    t = power_function_tensor((20,) * 5, 5.0)
    tt, _ = tt_svd(t, TruncationSpec(ranks=(5, 5, 5, 5)))
    e_svd = rel(t, tt)
    e_rbki = median_err(tt_rbki, t, range(5), ranks=(5, 5, 5, 5), p=2, q=2)
    assert e_rbki <= 1.05 * e_svd


def test_tt_rbki_deterministic():
    t = np.random.default_rng(11).standard_normal((8, 8, 8))
    cfg = SketchConfig(ranks=(3, 3), p=2, q=2, seed=3)
    a, _ = tt_rbki(t, cfg)
    b, _ = tt_rbki(t, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a.cores, b.cores))


def test_rbki_q1_naive_spans_power_augmented_sketch():
    # at q = 1 the first core holds the top Ritz vectors of A in
    # span([A Omega, A A^T A Omega]), the raw powers with one QR
    t = np.random.default_rng(12).standard_normal((10, 9, 8))
    A = np.reshape(t, (10, 72), order="F")
    tt, _ = tt_rbki(t, SketchConfig(ranks=(3, 3), p=1, q=1, seed=99))
    Om = gaussian_matrix(A.shape[1], 4, 99)  # the sweep's first draw
    S = economy_qr(np.hstack([A @ Om, A @ (A.T @ (A @ Om))]))[0]
    assert S.shape[1] == 8  # fewer than the 10 rows: a proper subspace
    W = np.linalg.svd(S.T @ A)[0][:, :3]
    Qr = S @ W
    Q = np.reshape(tt.cores[0], (10, 3), order="F")
    assert np.linalg.norm(Q @ Q.T - Qr @ Qr.T) <= 1e-8


def test_rbki_krylov_stack_column_cap(monkeypatch):
    # the stack of q + 1 blocks keeps at most min(rows, cols, (q+1) w)
    # orthonormal columns, and always all of its first block
    seen = []
    ritz = decompose._ritz

    def spy(A, S, r):
        seen.append((A.shape, S))
        return ritz(A, S, r)

    monkeypatch.setattr(decompose, "_ritz", spy)
    t = np.random.default_rng(14).standard_normal((6, 6, 3))
    tt_rbki(t, SketchConfig(ranks=(3, 3), p=2, q=3, seed=0))
    widths = [5, 3]  # r + p, clamped to the 3 columns of step 1
    assert [shape for shape, _ in seen] == [(6, 18), (18, 3)]
    for (shape, S), w in zip(seen, widths):
        assert S.shape[1] <= min(*shape, 4 * w)
        assert S.shape[1] >= min(shape[0], w)
        assert np.max(np.abs(S.T @ S - np.eye(S.shape[1]))) <= 1e-12
    assert seen[1][1].shape[1] == 3  # 12 stacked columns, A has rank 3


def test_sketch_width_clamped_on_short_trailing_modes():
    t = np.random.default_rng(13).standard_normal((6, 6, 6))
    _, trace = tt_rsvd(t, SketchConfig(ranks=(4, 4), p=10, q=1, seed=0))
    assert not trace.steps[0].clamped  # 36 columns is plenty
    assert trace.steps[1].clamped and trace.steps[1].sketch_width == 6
    assert trace.steps[1].rank == 4


def test_randomized_feasibility_errors():
    t = np.zeros((4, 4, 4))
    with pytest.raises(InvalidArgumentError):
        tt_rsvd(t, SketchConfig(ranks=(7, 2), p=0, q=1, seed=0))
    with pytest.raises(InvalidArgumentError):
        SketchConfig(ranks=(2, 2), p=-1)
    with pytest.raises(InvalidArgumentError):
        SketchConfig(ranks=(2, 2), q=0)
    with pytest.raises(InvalidArgumentError):
        SketchConfig(ranks=(0, 2))
    with pytest.raises(InvalidArgumentError, match="seed must be >= 0"):
        SketchConfig(ranks=(2, 2), seed=-1)


# ---------------- shared invariants ----------------


def test_input_check_tells_non_finite_from_overflow():
    # NaN and +-Inf entries are errors in every method; entries so large
    # that ||t||^2 overflows, or so small that it underflows, are finite,
    # pass the check and are swept at the requested ranks
    for bad in (np.nan, np.inf, -np.inf):
        t = np.ones((3, 4, 5))
        t[2, 1, 3] = bad
        for method in decompose.METHODS:
            with pytest.raises(FloatingPointError):
                decompose.run_method(method, t, ranks=(2, 2))
        with pytest.raises(FloatingPointError):
            tt_svd(t, TruncationSpec(epsilon=0.1))
    base = np.random.default_rng(13).standard_normal((3, 4, 5))
    for c in (1e200, 1e-200):
        for method in decompose.METHODS:
            tt, trace = decompose.run_method(method, base * c, ranks=(2, 2), p=1, q=2)
            assert tt.ranks == (1, 2, 2, 1), (c, method)
            residuals = [s.residual for s in trace.steps]
            assert all(0 < r < math.inf for r in residuals), (c, method)
            # squares of residuals near 1e200 lie beyond the float range
            assert (trace.residual_sq_sum == math.inf) == (c > 1), (c, method)


@pytest.mark.parametrize("j", [600, -600, 1000, -1000])
def test_sweeps_are_exactly_scale_equivariant(j):
    # a tensor scaled by 2^j, far outside the range whose squares float64
    # holds, is swept as the unscaled one: the same bits in cores
    # 0..N-2, and exactly 2^j times its last core and residuals
    t0 = np.random.default_rng(17).standard_normal((6, 7, 8))
    t0 = np.ldexp(t0, -math.frexp(np.max(np.abs(t0)))[1])  # max|t0| in [1/2, 1)
    t = np.ldexp(t0, j)
    assert np.array_equal(np.ldexp(t, -j), t0)  # no entry left the normal range
    runs = [lambda x, m=m: decompose.run_method(m, x, ranks=(3, 3), p=2, q=2, seed=5)
            for m in sorted(decompose.METHODS)]
    runs.append(lambda x: tt_svd(x, TruncationSpec(epsilon=0.5)))
    for k, run in enumerate(runs):
        (tt0, trace0), (tt, trace) = run(t0), run(t)
        assert tt.ranks == tt0.ranks, k
        for a, b in zip(tt.cores[:-1], tt0.cores[:-1]):
            assert np.array_equal(a, b), k
        assert np.array_equal(tt.cores[-1], np.ldexp(tt0.cores[-1], j)), k
        assert [s.residual for s in trace.steps] == [
            float(np.ldexp(s.residual, j)) for s in trace0.steps
        ], k


def test_left_orthogonality_all_algorithms():
    t = np.random.default_rng(14).standard_normal((8, 8, 8))
    outs = [tt_svd(t, TruncationSpec(ranks=(4, 4)))[0]]
    for fn in ALGS.values():
        outs.append(fn(t, SketchConfig(ranks=(4, 4), p=2, q=2, seed=1))[0])
    for tt in outs:
        rep = validate(tt)
        assert rep.ok
        assert max(rep.orth_residuals) <= 1e-10


def test_error_decomposition_identity():
    # squared final error equals the sum of squared per-step residuals
    t = np.random.default_rng(15).standard_normal((8, 8, 8))
    runs = [tt_svd(t, TruncationSpec(ranks=(4, 4)))]
    runs += [fn(t, SketchConfig(ranks=(4, 4), p=2, q=2, seed=2)) for fn in ALGS.values()]
    for tt, trace in runs:
        err_sq = frobenius_norm(t - tt_reconstruct(tt)) ** 2
        assert abs(err_sq - trace.residual_sq_sum) <= 1e-8 * err_sq


def test_residuals_match_projector_oracle():
    # rho_n recomputed as ||A_n - Q_n Q_n^T A_n||_F from the emitted cores
    t = np.random.default_rng(16).standard_normal((7, 6, 5))
    tt, trace = tt_rsvd(t, SketchConfig(ranks=(3, 3), p=2, q=1, seed=4))
    A = np.reshape(t, (7, 30), order="F")
    for n, core in enumerate(tt.cores[:-1]):
        Q = left_unfolding(core)
        want = np.linalg.norm(A - Q @ (Q.T @ A))
        assert abs(trace.steps[n].residual - want) <= 1e-8 * max(1.0, want)
        A = np.reshape(Q.T @ A, (Q.shape[1] * t.shape[n + 1], -1), order="F")


def test_accumulated_bound_holds_across_epsilons():
    rng = np.random.default_rng(17)
    for eps in (0.1, 0.3, 0.5):
        t = rng.standard_normal((6, 6, 6))
        tt, trace = tt_svd(t, TruncationSpec(epsilon=eps))
        err = frobenius_norm(t - tt_reconstruct(tt))
        assert err <= math.sqrt(sum(s.residual**2 for s in trace.steps)) + 1e-12
        assert err <= eps * frobenius_norm(t)


def test_epsilon_bound_holds_near_float64_floor():
    # a diag(S) V^T carry floors both at ~1.05e-14; Q^T A keeps them near 3e-15
    for t in (spectrum_decay_tensor(100, 20, 1.0), power_function_tensor((20,) * 4, 5.0)):
        tt, _ = tt_svd(t, TruncationSpec(epsilon=1e-14))
        assert rel(t, tt) <= 1e-14


def test_monotone_rank_sweep():
    t = np.random.default_rng(18).standard_normal((6, 6, 6))
    errs = [rel(t, tt_svd(t, TruncationSpec(ranks=(r, r)))[0]) for r in range(1, 7)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12


def test_oversampling_monotone_with_energy_ordered_truncation():
    t = spectrum_decay_tensor(50, 5, 1.0)
    meds = [median_err(tt_rsvd, t, range(9), ranks=(10, 10), p=p, q=1) for p in (0, 2, 5, 10)]
    for a, b in zip(meds, meds[1:]):
        assert b <= a + 1e-15

