"""Property tests on edge shapes: order 1, size-1 modes and ranks equal
to min(rows, cols) at some step.

The residual identity ||A - Ahat||^2 = sum_n rho_n^2 must hold for all
four sweeps, the randomized sweeps must return exactly the requested
ranks also on zero and rank-1 tensors, and keep them, the identity and
left-orthonormal cores where their steps take the Gram factor of the
short side, draw a sketch only where it is narrower than the short side
and equal tt_svd bit for bit where no step draws, one tt_rbki step must
leave no larger residual than tt_rsi or tt_rsvd with the same sketch,
linalg.svd must agree with LAPACK's singular values on wide, zero and
rank-deficient matrices, both file formats must round-trip bit for bit
from either layout into owned column-major arrays, the
memory layout of the input must not change any result, the blocked
metric pass must agree with the unblocked formulas on sizes around its
block, the noise levels drawn once per seed must be add_awgn's, bit
for bit, and tt_reconstruct, which meets in the middle, must agree with
the left-to-right contraction on chains with unit modes and links.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttapprox import (
    InvalidArgumentError,
    TTTensor,
    add_awgn,
    decompose,
    error_metrics,
    linalg,
    psnr,
    relative_error,
    tensor_load,
    tensor_save,
    tt_load,
    tt_reconstruct,
    tt_save,
    validate,
)
from ttapprox.datagen import _awgn_levels
from ttapprox.decompose import METHODS, run_method
from ttapprox.linalg import svd
from ttapprox.metrics import _BLOCK, _error_metrics, _sum_sq

from oracles import reconstruct_left_to_right

EPS = np.finfo(np.float64).eps

dims_st = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)
seed_st = st.integers(0, 2**32 - 1)


@st.composite
def feasible_ranks(draw, dims):
    """Ranks r_1..r_{N-1}, each within min(r_{n-1} I_n, I_{n+1}...I_N);
    the cap itself is drawn about half the time."""
    ranks, r_prev = [], 1
    for n in range(len(dims) - 1):
        cap = min(r_prev * dims[n], int(np.prod(dims[n + 1 :])))
        r = draw(st.just(cap) | st.integers(1, cap))
        ranks.append(r)
        r_prev = r
    return tuple(ranks)


@st.composite
def sweep_inputs(draw):
    dims = draw(dims_st)
    t = np.random.default_rng(draw(seed_st)).standard_normal(dims)
    return t, draw(feasible_ranks(dims))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    inputs=sweep_inputs(),
    method=st.sampled_from(sorted(METHODS)),
    p=st.integers(0, 3),
    q=st.integers(1, 2),
    seed=seed_st,
)
def test_residual_identity_all_methods(inputs, method, p, q, seed):
    t, ranks = inputs
    tt, trace = run_method(method, t, ranks, p=p, q=q, seed=seed)
    assert tt.dims == t.shape
    err_sq = float(np.sum((t - tt_reconstruct(tt)) ** 2))
    norm_sq = float(np.sum(t * t))
    assert abs(err_sq - trace.residual_sq_sum) <= 64 * EPS * norm_sq


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    inputs=sweep_inputs(),
    method=st.sampled_from(sorted(METHODS)),
    p=st.integers(0, 3),
    q=st.integers(1, 2),
    seed=seed_st,
)
def test_input_layout_does_not_change_results(inputs, method, p, q, seed):
    t, ranks = inputs
    layouts = {
        "C": np.ascontiguousarray(t),
        "F": np.asfortranarray(t),
        # a strided view: every other entry of a doubled last mode
        "strided": np.repeat(t, 2, axis=-1)[..., ::2],
    }
    runs = {k: run_method(method, a, ranks, p=p, q=q, seed=seed) for k, a in layouts.items()}
    tt_f, trace_f = runs["F"]
    tol = 1e3 * EPS * np.linalg.norm(t)
    for tt, trace in runs.values():
        assert tt.ranks == tt_f.ranks
        for core, core_f in zip(tt.cores, tt_f.cores):
            assert np.max(np.abs(core - core_f)) <= tol
        for step, step_f in zip(trace.steps, trace_f.steps):
            assert abs(step.residual**2 - step_f.residual**2) <= tol * np.linalg.norm(t)


def max_ranks(dims):
    """The largest feasible ranks: r_n = min(r_{n-1} I_n, I_{n+1}...I_N)."""
    ranks, r_prev = [], 1
    for n in range(len(dims) - 1):
        r_prev = min(r_prev * dims[n], int(np.prod(dims[n + 1 :])))
        ranks.append(r_prev)
    return tuple(ranks)


@st.composite
def rank_deficient_tensors(draw):
    """A zero or a rank-1 tensor: every unfolding has rank <= 1, far below
    the largest feasible ranks."""
    dims = draw(dims_st)
    if draw(st.booleans()):
        return np.zeros(dims)
    rng = np.random.default_rng(draw(seed_st))
    t = np.ones(())
    for d in dims:
        t = np.multiply.outer(t, rng.standard_normal(d))
    return t


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    t=rank_deficient_tensors(),
    method=st.sampled_from(["rsvd", "rsi", "rbki"]),
    p=st.integers(0, 3),
    q=st.integers(1, 2),
    seed=seed_st,
)
def test_rank_deficient_unfoldings_keep_requested_ranks(t, method, p, q, seed):
    ranks = max_ranks(t.shape)
    tt, trace = run_method(method, t, ranks, p=p, q=q, seed=seed)
    assert tt.ranks == (1,) + ranks + (1,)
    assert validate(tt).ok
    err_sq = float(np.sum((t - tt_reconstruct(tt)) ** 2))
    assert abs(err_sq - trace.residual_sq_sum) <= 64 * EPS * float(np.sum(t * t))


@st.composite
def gram_inputs(draw):
    """A Gaussian, zero or rank-1 tensor of order 2 to 4 with modes of 2
    to 10, and ranks up to half their caps, so that many steps' sketches
    are narrower than their unfolding's short side."""
    dims = tuple(draw(st.lists(st.integers(2, 10), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(seed_st))
    kind = draw(st.sampled_from(["gaussian", "zero", "rank1"]))
    if kind == "gaussian":
        t = rng.standard_normal(dims)
    else:
        t = np.ones(())
        for d in dims:
            t = np.multiply.outer(t, rng.standard_normal(d) if kind == "rank1" else np.zeros(d))
    ranks, r = [], 1
    for n in range(len(dims) - 1):
        r = draw(st.integers(1, max(1, min(r * dims[n], int(np.prod(dims[n + 1 :]))) // 2)))
        ranks.append(r)
    return t, tuple(ranks)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    inputs=gram_inputs(),
    method=st.sampled_from(["rsvd", "rsi", "rbki"]),
    p=st.integers(0, 3),
    q=st.integers(1, 2),
    seed=seed_st,
)
def test_gram_steps_keep_identity_and_orthonormal_cores(inputs, method, p, q, seed):
    # with the Gram gate's cost test passed, every step whose sketch is
    # narrower than its short side and whose energy test holds runs the
    # range finder on R (wide) or T (tall, lifted by one QR): the cores
    # keep the requested ranks and stay left-orthonormal, on zero and
    # rank-1 tensors too, and the residual identity holds
    t, ranks = inputs
    with mock.patch.object(linalg, "_gram_is_cheaper", lambda rows, cols, w, q: True):
        tt, trace = run_method(method, t, ranks, p=p, q=q, seed=seed)
    assert tt.ranks == (1,) + ranks + (1,)
    assert validate(tt).ok
    err_sq = float(np.sum((t - tt_reconstruct(tt)) ** 2))
    assert abs(err_sq - trace.residual_sq_sum) <= 64 * EPS * float(np.sum(t * t))


@st.composite
def exact_step_inputs(draw):
    """A Gaussian tensor of order 2 to 5 with modes of 1 to 6 and feasible
    ranks, so that with p up to 8 many steps, and often all, have
    r + p >= min(rows, cols)."""
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=5)))
    t = np.random.default_rng(draw(seed_st)).standard_normal(dims)
    return t, draw(feasible_ranks(dims))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    inputs=exact_step_inputs(),
    method=st.sampled_from(["rsvd", "rsi", "rbki"]),
    p=st.integers(0, 8),
    q=st.integers(1, 2),
    seed=seed_st,
)
def test_randomized_sweeps_draw_only_sketches_narrower_than_the_short_side(inputs, method, p, q, seed):
    # a step with r + p >= min(rows, cols) is tt_svd's step: it draws
    # nothing and reports no sketch width.  Every other step draws once,
    # r + p columns.  A sweep with no drawn step returns tt_svd's cores
    # and residuals bit for bit
    t, ranks = inputs
    widths = []
    draw = decompose.gaussian_matrix

    def spy(rows, cols, rng):
        widths.append(cols)
        return draw(rows, cols, rng)

    with mock.patch.object(decompose, "gaussian_matrix", spy):
        tt, trace = run_method(method, t, ranks, p=p, q=q, seed=seed)
    chain = (1,) + ranks
    drawn = [
        r + p < min(chain[n] * t.shape[n], math.prod(t.shape[n + 1 :]))
        for n, r in enumerate(ranks)
    ]
    assert widths == [r + p for r, d in zip(ranks, drawn) if d]
    assert [s.sketch_width for s in trace.steps] == [r + p if d else None for r, d in zip(ranks, drawn)]
    if not any(drawn):
        want, want_trace = run_method("svd", t, ranks)
        assert all(np.array_equal(a, b) for a, b in zip(tt.cores, want.cores))
        assert [s.residual for s in trace.steps] == [s.residual for s in want_trace.steps]


@st.composite
def decaying_matrices(draw):
    """A wide, square or tall matrix whose columns decay geometrically,
    with a target rank r <= min(rows, cols)."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(seed_st))
    decay = draw(st.sampled_from([1.0, 0.7, 0.3, 1e-3]))
    A = rng.standard_normal((rows, cols)) * decay ** np.arange(cols)
    return A, draw(st.integers(1, min(rows, cols)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(inputs=decaying_matrices(), p=st.integers(0, 3), q=st.integers(1, 3), seed=seed_st)
def test_rbki_step_beats_rsi_and_rsvd(inputs, p, q, seed):
    # the same seed draws the same Omega, and rbki's Ritz step is optimal
    # over a span that holds both A Omega and (A A^T)^q A Omega
    A, r = inputs
    rho_sq = {
        m: run_method(m, A, (r,), p=p, q=q, seed=seed)[1].residual_sq_sum
        for m in ("rsvd", "rsi", "rbki")
    }
    slack = 64 * EPS * float(np.sum(A * A))
    assert rho_sq["rbki"] <= min(rho_sq["rsi"], rho_sq["rsvd"]) + slack


@st.composite
def svd_matrices(draw):
    """A wide (rows < cols), a zero or a rank-deficient matrix, at a
    scale far from 1."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(seed_st))
    scale = 10.0 ** draw(st.integers(-8, 8))
    kind = draw(st.sampled_from(["wide", "zero", "deficient"]))
    if kind == "wide":
        return scale * rng.standard_normal((rows, rows + cols))
    if kind == "zero":
        return np.zeros((rows, cols))
    k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
    return scale * rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(A=svd_matrices())
def test_svd_matches_lapack_singular_values(A):
    got = svd(A)
    want = np.linalg.svd(A, compute_uv=False)
    k = min(A.shape)
    assert got.U.shape == (A.shape[0], k) and got.s.shape == (k,)
    assert np.max(np.abs(got.s - want)) <= 64 * EPS * np.linalg.norm(A)
    assert np.max(np.abs(got.U.T @ got.U - np.eye(k))) <= 64 * EPS


file_dims_st = st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple)
file_layout_st = st.sampled_from([np.asfortranarray, np.ascontiguousarray])


def _owned_column_major(arrays):
    return all(a.flags.f_contiguous and a.flags.owndata for a in arrays)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dims=file_dims_st, seed=seed_st, layout=file_layout_st)
def test_dten_round_trip(tmp_path_factory, dims, seed, layout):
    t = layout(np.random.default_rng(seed).standard_normal(dims))
    path = tmp_path_factory.mktemp("dten") / "t.dten"
    tensor_save(t, path)
    back = tensor_load(path)
    assert back.shape == t.shape and back.tobytes(order="F") == t.tobytes(order="F")
    assert _owned_column_major([back])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), dims=file_dims_st, seed=seed_st, layout=file_layout_st)
def test_ttc_round_trip(tmp_path_factory, data, dims, seed, layout):
    chain = (1,) + data.draw(feasible_ranks(dims)) + (1,)
    rng = np.random.default_rng(seed)
    tt = TTTensor([layout(rng.standard_normal((chain[n], d, chain[n + 1]))) for n, d in enumerate(dims)])
    path = tmp_path_factory.mktemp("ttc") / "t.ttc"
    tt_save(tt, path)
    back = tt_load(path)
    assert back.ranks == tt.ranks and back.dims == tt.dims
    assert all(a.tobytes(order="F") == b.tobytes(order="F") for a, b in zip(back.cores, tt.cores))
    assert _owned_column_major(back.cores)


def _two_way_shape(n):
    """The most nearly square (rows, cols) with rows * cols = n."""
    rows = max(k for k in range(1, math.isqrt(n) + 1) if n % k == 0)
    return rows, n // rows


def _laid_out(x, layout):
    """x's values in F, C or strided (every other column of a wider C
    array) memory layout."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "C":
        return np.ascontiguousarray(x)
    return np.repeat(x, 2, axis=1)[:, ::2]


layout_st = st.sampled_from(["F", "C", "strided"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]),
    layouts=st.tuples(layout_st, layout_st),
    log_mag=st.floats(-100, 100),
    log_err=st.floats(-12, 1),
    seed=seed_st,
)
def test_blocked_metrics_match_unblocked_formulas(n, layouts, log_mag, log_err, seed):
    rng = np.random.default_rng(seed)
    shape = _two_way_shape(n)
    a = 10.0**log_mag * rng.standard_normal(shape)
    ahat = a + 10.0 ** (log_mag + log_err) * rng.standard_normal(shape)
    A, H = _laid_out(a, layouts[0]), _laid_out(ahat, layouts[1])
    # the reference sums the same rounded squares exactly, so only the
    # pass's summation order can differ from it
    err_sq = math.fsum(((a - ahat) ** 2).ravel())
    want_rel = math.sqrt(err_sq) / math.sqrt(math.fsum((a * a).ravel()))
    want_psnr = 10.0 * math.log10(n * np.max(np.abs(ahat)) ** 2 / err_sq)
    rel, db = error_metrics(A, H)
    assert abs(rel - want_rel) <= 4 * EPS * want_rel
    # the reference's own sum, taken once, gives error_metrics bit for bit
    # in any layout, also on the rescaled path (|a| near 1e100)
    assert _error_metrics(A, H, _sum_sq(A)) == error_metrics(A, H)
    # 4 ulp of the ratio inside the log, and of the result
    assert abs(db - want_psnr) <= 4 * EPS * (10.0 / math.log(10.0) + abs(want_psnr))
    assert (relative_error(A, H), psnr(A, H)) == (rel, db)
    # the sentinels, also across layouts
    assert error_metrics(A, _laid_out(a, layouts[1])) == (0.0, math.inf)
    assert psnr(A, np.zeros(shape)) == -math.inf
    # a zero reference: psnr is defined, the relative error is not
    zero = _laid_out(np.zeros(shape), layouts[0])
    assert math.isfinite(psnr(zero, H))
    for metric in (relative_error, error_metrics):
        with pytest.raises(InvalidArgumentError, match="zero norm"):
            metric(zero, H)


# 4000 dB: sigma underflows to 0 and t comes back unchanged; -4000 dB:
# 10^(snr/10) underflows, so the noise is past float64's range
snr_st = st.sampled_from([-4000.0, -20.0, -3.0, 0.0, 5.0, 20.0, 300.0, 4000.0]) | st.floats(-60, 60)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dims=dims_st,
    seed=seed_st,
    layout=st.sampled_from([np.asfortranarray, np.ascontiguousarray]),
    j=st.sampled_from([0, 600, -600]),
    snrs=st.lists(snr_st, min_size=1, max_size=5),
)
def test_shared_draw_levels_are_add_awgn(dims, seed, layout, j, snrs):
    # every level of one draw is add_awgn(t, snr, seed) bit for bit, at
    # scales 2^+-600 (sums rescaled) and from either layout; a level
    # add_awgn refuses fails the whole call with the same error
    t = layout(np.ldexp(np.random.default_rng(seed).standard_normal(dims), j))
    sum_sq, e = _sum_sq(t)
    want = {}
    for snr in snrs:
        try:
            want[snr] = add_awgn(t, snr, seed)
        except InvalidArgumentError:
            pass
    kept = [snr for snr in snrs if snr in want]
    if len(kept) < len(snrs):
        with pytest.raises(InvalidArgumentError, match="past float64's range"):
            _awgn_levels(t, snrs, seed, sum_sq, e)
    for snr, y in zip(kept, _awgn_levels(t, kept, seed, sum_sq, e)):
        assert y.flags.f_contiguous and y.tobytes(order="F") == want[snr].tobytes(order="F")
    if 4000.0 in kept:
        assert np.array_equal(want[4000.0], t)


@st.composite
def tt_chains(draw):
    """Chains of order 1-6: modes of 1-4 with unit ones, links of rank
    1-5 drawn independently, so rank-1 links and uneven ranks occur."""
    n = draw(st.integers(1, 6))
    dims = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    ranks = [1] + draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1)) + [1]
    rng = np.random.default_rng(draw(seed_st))
    return TTTensor([rng.standard_normal((ranks[k], d, ranks[k + 1])) for k, d in enumerate(dims)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tt=tt_chains())
def test_reconstruct_matches_the_left_to_right_contraction(tt):
    # every entry is a sum of products of one entry per core, so both
    # contraction orders round it by a few eps of the cores' norms
    got = tt_reconstruct(tt)
    want = reconstruct_left_to_right(tt)
    assert got.shape == want.shape == tt.dims
    assert got.flags.f_contiguous
    scale = math.prod(float(np.linalg.norm(c)) for c in tt.cores)
    assert np.max(np.abs(got - want)) <= 4 * tt.order * EPS * scale
