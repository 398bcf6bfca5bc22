import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ttapprox import (
    InvalidArgumentError,
    SketchConfig,
    TTTensor,
    TruncationSpec,
    add_awgn,
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
from ttapprox import decompose, linalg
from ttapprox.linalg import svd
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
    # ranks are integers: a float is not truncated, a bool is not taken as 1
    for bad in ((2.7, 2), (True, 2), ("2", 2)):
        with pytest.raises(InvalidArgumentError, match="rank must be an integer >= 1"):
            TruncationSpec(ranks=bad)
    assert TruncationSpec(ranks=np.array([3, 2])).ranks == (3, 2)
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


@pytest.mark.parametrize("r", [10, 20])
def test_tt_svd_tall_step_of_spectrum_100_goes_through_gram_on_noisy_input(monkeypatch, r):
    # step 1 of spectrum 100^3 is (100 r) x 100.  Clean, its energy beyond
    # r is rounding (about 1e-35 of ||A||^2 by LAPACK), so the Gram test
    # refuses it and it takes LAPACK's thin SVD, as criterion 12 times it;
    # at 5 and 20 dB it goes through A^T A
    lapack, grams = [], []
    real_svd, real_gram = decompose.svd, decompose._gram_eigh
    monkeypatch.setattr(decompose, "svd", lambda A: lapack.append(A.shape) or real_svd(A))
    monkeypatch.setattr(decompose, "_gram_eigh", lambda A: grams.append(A.shape) or real_gram(A))
    t = spectrum_decay_tensor(100, 20, 1.0)
    for snr, tall_svd in [(None, [(100 * r, 100)]), (5, []), (20, [])]:
        lapack.clear()
        grams.clear()
        tt_svd(t if snr is None else add_awgn(t, snr, 0), TruncationSpec(ranks=(r, r)))
        assert grams == [(100, 10000), (100, 100 * r)], snr
        assert [s for s in lapack if s[0] > s[1]] == tall_svd, snr


# ---------------- randomized sweeps ----------------


def test_tt_rsvd_exact_rank_recovery():
    t = random_tt_tensor((30, 30, 30), (2, 2), seed=7)
    err = median_err(tt_rsvd, t, range(5), ranks=(2, 2), p=5, q=1)
    assert err <= 1e-8


def test_tt_rsvd_exact_rank_recovery_where_the_sketch_spans_the_rows():
    # w >= rows: Z_0 spans the rows, and tt_rsvd keeps it with no Ritz
    # step on A, so a sketch through G would carry G's rounding (about
    # sqrt(eps) ||A|| per direction) into exactly low-rank input, errors of
    # 3e-9 to 1e-8; the one G rule takes no G on such steps
    for rows, cols, k, r, p in [(6, 2000, 3, 4, 2), (10, 5000, 2, 3, 8)]:
        rng = np.random.default_rng(rows)
        A = rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
        for seed in range(5):
            tt, _ = tt_rsvd(A, SketchConfig(ranks=(r,), p=p, q=1, seed=seed))
            err = relative_error(A, tt_reconstruct(tt))
            assert err <= 1e-13, (rows, seed, err)


def test_tt_rsvd_cores_do_not_depend_on_q():
    # tt_rsvd asks the G rule with no power steps whatever q is: on 20^5 at
    # ranks 8 step 0 takes G and step 1 (160 x 8000) would take it at
    # q 3 if asked with q; on the 5 dB spectrum 30^3, step 0 (30 x 900)
    # would at q 3
    cases = [(power_function_tensor((20,) * 5, 5.0), (8,) * 4),
             (add_awgn(spectrum_decay_tensor(30, 5, 1.0), 5.0, 3), (5, 5))]
    for t, ranks in cases:
        runs = [tt_rsvd(t, SketchConfig(ranks=ranks, p=2, q=q, seed=6))[0] for q in (1, 2, 3)]
        for other in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(runs[0].cores, other.cores))


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


def test_tt_rsi_takes_no_power_step_where_the_sketch_spans_the_rows(monkeypatch):
    # cli-files' 4 x 5 x 5 x 5 x 8 at ranks 3, p 2, q 2: step 0 is 4 x 1000
    # at w 4, so Z_0 spans the rows and no power step could change the
    # Ritz vectors.  That step takes no product with A, its core is the
    # Ritz basis on Z_0, and it still draws its cols x w sketch, so later
    # steps draw from the rng stream they always have; step 1 (15 x 200,
    # w 5) runs its power steps
    t = power_function_tensor((4, 5, 5, 5, 8), 5.0)
    products, draws, starts = [], [], []  # products: per step, those with M
    blocks, draw, factor = decompose.krylov_blocks, decompose.gaussian_matrix, decompose.svd

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products[-1].append(self.shape)
            return np.asarray(self) @ other

    def spy_blocks(M, Z0, q):
        products.append([])
        return blocks(M.view(Counted), Z0, q)

    def spy_draw(*args):
        draws.append(args[:2])
        return draw(*args)

    def spy_factor(Y):
        result = factor(Y)
        starts.append(result.U)
        return result

    monkeypatch.setattr(decompose, "krylov_blocks", spy_blocks)
    monkeypatch.setattr(decompose, "gaussian_matrix", spy_draw)
    monkeypatch.setattr(decompose, "svd", spy_factor)
    tt, _ = tt_rsi(t, SketchConfig(ranks=(3, 3, 3, 3), p=2, q=2, seed=4))
    assert draws[0] == (1000, 5) and len(draws) == 4
    # M^T Z then M (M^T Z), twice per step but on step 0
    assert products[0] == [] and products[1] == [(200, 15), (15, 200)] * 2
    Q, _ = decompose._ritz(np.reshape(t, (4, 1000), order="F"), starts[0], 3)
    assert np.array_equal(np.reshape(tt.cores[0], (4, 3), order="F"), Q)


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


def test_rbki_q1_naive_spans_power_augmented_sketch(monkeypatch):
    # at q = 1 the first core holds the top Ritz vectors of A in
    # span([Y, A A^T Y]), Y the step's sketch, the raw powers with one QR.
    # The 10 x 72 unfolding goes through G, so Y is R Omega'' with a
    # 10 x 4 Omega'' (see decompose._randomized_sweep); the spy on the
    # sweep's draw and sketch factorization hands back Y
    draws, sketches = [], []
    draw, factor = decompose.gaussian_matrix, decompose.svd

    def spy_draw(*args):
        draws.append(draw(*args))
        return draws[-1]

    def spy_factor(Y):
        sketches.append(Y.copy())
        return factor(Y)

    monkeypatch.setattr(decompose, "gaussian_matrix", spy_draw)
    monkeypatch.setattr(decompose, "svd", spy_factor)
    # both steps are far too small for the Gram matrix to pay: take it
    # wherever accuracy allows, as the steps of a large tensor do.  Step 1
    # (27 x 8) is tall, so it goes through T = U^T A and draws the cols x w
    # Omega the products would
    monkeypatch.setattr(linalg, "_gram_is_cheaper", lambda rows, cols, w, q: True)
    t = np.random.default_rng(12).standard_normal((10, 9, 8))
    A = np.reshape(t, (10, 72), order="F")
    tt, _ = tt_rbki(t, SketchConfig(ranks=(3, 3), p=1, q=1, seed=99))
    assert draws[0].shape == (10, 4)  # rows x w normals, not cols x w
    assert draws[1].shape == (8, 4)
    Y = sketches[0]
    S = np.linalg.qr(np.hstack([Y, A @ (A.T @ Y)]))[0]
    assert S.shape[1] == 8  # fewer than the 10 rows: a proper subspace
    W = np.linalg.svd(S.T @ A)[0][:, :3]
    Qr = S @ W
    Q = np.reshape(tt.cores[0], (10, 3), order="F")
    assert np.linalg.norm(Q @ Q.T - Qr @ Qr.T) <= 1e-8


def test_randomized_sweeps_share_one_sketch_basis_per_step(monkeypatch):
    # each step asks the one G rule once, draws once and factors its
    # sketch once: Z_0 = svd(Y).U with Y = M Omega, M = A, or R where the
    # step goes through R R^T = A A^T, and the range finder reads the same
    # M.  tt_rsvd asks with no power steps, tt_rsi and tt_rbki with q.
    # Step 0 (4 x 5000, w 3) takes R for all three, so they draw the same
    # rows x w Omega'' and share Z_0; step 1 (5000 x 2, tall, the sketch
    # clamped to 2 columns, so w is A's short side) takes no Gram factor,
    # and they draw the same cols x 2 Omega
    t = np.random.default_rng(15).standard_normal((4, 2500, 2))
    cfg = SketchConfig(ranks=(2, 2), p=1, q=2, seed=4)
    seen = {method: [] for method in ALGS}  # per step: [asked, draw, Y, Z0]
    starts = {"rsi": [], "rbki": []}
    draw, rule, factor = decompose.gaussian_matrix, decompose._power_step_gram, decompose.svd

    def spy_rule(A, w, q):
        gram = rule(A, w, q)
        seen[method].append([(A.copy(order="K"), w, q, gram)])
        return gram

    def spy_draw(*args):
        seen[method][-1].append(draw(*args))
        return seen[method][-1][-1]

    def spy_factor(Y):
        U = factor(Y)
        seen[method][-1] += [Y.copy(), U.U.copy()]
        return U

    def spy_range_finder(name, finder):
        def spy(M, Z0, q):
            starts[name].append((Z0.copy(), M.copy(order="K")))
            return finder(M, Z0, q)
        return spy

    monkeypatch.setattr(decompose, "_power_step_gram", spy_rule)
    monkeypatch.setattr(decompose, "gaussian_matrix", spy_draw)
    monkeypatch.setattr(decompose, "svd", spy_factor)
    monkeypatch.setattr(decompose, "krylov_blocks", spy_range_finder("rsi", decompose.krylov_blocks))
    monkeypatch.setattr(decompose, "krylov_basis", spy_range_finder("rbki", decompose.krylov_basis))
    sweeps = {}
    for method, sweep in ALGS.items():
        sweeps[method] = sweep(t, cfg)[0]
    for method, steps in seen.items():
        assert len(steps) == 2, method  # one rule, draw and factorization per step
        for n, ((A, w, q, gram), Om, Y, Z0) in enumerate(steps):
            assert q == (0 if method == "rsvd" else cfg.q)
            assert (w, gram is None) == ((3, False) if n == 0 else (2, True)), (method, n)
            if gram is None:
                assert Om.shape == (A.shape[1], 2) and np.array_equal(Y, A @ Om)
            else:
                R, lift = gram
                assert lift is None and R.shape == (4, 4)  # wide: no lift
                assert np.linalg.norm(R @ R.T - A @ A.T) <= 1e-13 * np.linalg.norm(A) ** 2
                assert Om.shape == (A.shape[0], 3) and np.array_equal(Y, R @ Om)
    for method in ("rsi", "rbki"):
        for n in range(2):
            assert np.array_equal(seen[method][n][1], seen["rsvd"][n][1])  # Omega'', Omega
            Z0, M = starts[method][n]
            A, _, _, gram = seen[method][n][0]
            assert np.array_equal(Z0, seen[method][n][3])
            assert np.array_equal(M, A if gram is None else gram[0])
        assert np.array_equal(seen[method][0][3], seen["rsvd"][0][3])  # one Z_0 on step 0
    for n, core in enumerate(sweeps["rsvd"].cores[:2]):
        Q = np.reshape(core, (-1, 2), order="F")
        assert np.array_equal(Q, seen["rsvd"][n][3][:, :2])


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
    with pytest.raises(InvalidArgumentError, match="seed must be an integer >= 0"):
        SketchConfig(ranks=(2, 2), seed=-1)
    # every sketch parameter is an integer: no float, bool or string
    for name, bad in (("p", 1.5), ("q", 1.5), ("seed", 2.5), ("p", True), ("q", "2"),
                      ("rank", (2.7, 2)), ("rank", (2, False))):
        kw = {"ranks": bad} if name == "rank" else {name: bad}
        with pytest.raises(InvalidArgumentError, match=f"{name} must be an integer"):
            SketchConfig(**{"ranks": (2, 2), **kw})
    # numpy integers are integers
    cfg = SketchConfig(ranks=np.array([2, 2]), p=np.int64(1), q=np.uint8(2), seed=np.int32(3))
    assert (cfg.ranks, cfg.p, cfg.q, cfg.seed) == ((2, 2), 1, 2, 3)
    assert all(type(v) is int for v in (*cfg.ranks, cfg.p, cfg.q, cfg.seed))


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



# prints one line per randomized sweep of power-function 12^5, and one
# for tt_svd on power-function 20^5 at ranks 8: the parameters, a hash of
# every core's bytes and the step residuals
_CORE_HASHES = """
import hashlib
from ttapprox import power_function_tensor
from ttapprox.decompose import run_method

def show(tt, trace, *params):
    h = hashlib.sha256(b"".join(c.tobytes(order="F") for c in tt.cores))
    print(*params, h.hexdigest(), [repr(s.residual) for s in trace.steps])

t = power_function_tensor((12,) * 5, 5.0)
for method in ("rsvd", "rsi", "rbki"):
    for r in (4, 8):
        for q in (1, 2):
            show(*run_method(method, t, (r,) * 4, p=2, q=q, seed=3), method, r, q)
show(*run_method("svd", power_function_tensor((20,) * 5, 5.0), (8,) * 4), "svd", 8)
"""


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return ""


@pytest.mark.skipif("openblas" not in _blas_name(), reason="OPENBLAS_NUM_THREADS sets no other BLAS")
def test_randomized_cores_do_not_depend_on_blas_threads():
    # pins behaviour of these shapes, not a property of the sweeps: on
    # a 5 dB noisy spectrum 100^3 and on powerfn 10^6 the randomized cores
    # do differ between 1 and 2 threads, as do tt_svd's on the noisy
    # spectrum, and whether 12^5 is spared rests on OpenBLAS's per-size
    # threading.  tt_svd on 20^5 at ranks 8 takes the Gram matrix on its
    # wide steps and its tall last one, and so passes through no threaded
    # QR or SVD.  Given the same cores,
    # the step residuals match too, because their norms call no BLAS.
    # OpenBLAS reads its thread count once, at load time, so each count
    # runs in its own interpreter
    src = str(Path(decompose.__file__).resolve().parents[1])
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _CORE_HASHES], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out[threads] = proc.stdout.splitlines()
    assert len(out["1"]) == 13
    assert out["1"] == out["2"]


@pytest.mark.skipif("openblas" not in _blas_name(), reason="OPENBLAS_NUM_THREADS sets no other BLAS")
def test_bench_rows_do_not_depend_on_blas_threads(tmp_path):
    # a ttapprox bench plan on the shape the core hashes above pin: all
    # four methods at ranks 4 and 8, q 1 and 2, seeds 0 and 1.  Every row,
    # svd's included, matches between 1 and 2 threads but for its wall
    # time; like the core hashes, this pins how OpenBLAS threads this
    # shape, not a property of the sweeps
    src = str(Path(decompose.__file__).resolve().parents[1])
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "dataset": {"kind": "powerfn", "dims": [12] * 5, "h": 5.0},
        "methods": ["svd", "rsvd", "rsi", "rbki"],
        "ranks": [4, 8], "p": 2, "q": [1, 2], "seeds": [0, 1],
    }))
    rows = {}
    for threads in ("1", "2"):
        out = tmp_path / f"rows-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        argv = ["bench", "--plan", str(plan), "-o", str(out), "--format", "csv"]
        proc = subprocess.run([sys.executable, "-m", "ttapprox.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        with open(out, newline="") as f:
            rows[threads] = [{k: v for k, v in row.items() if k != "wall_time_s"}
                             for row in csv.DictReader(f)]
    assert len(rows["1"]) == 32
    assert not any(row["error"] for row in rows["1"])
    assert rows["1"] == rows["2"]
