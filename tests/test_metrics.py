import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttapprox import (
    InvalidArgumentError,
    SketchConfig,
    TTTensor,
    add_awgn,
    error_metrics,
    frobenius_norm,
    power_function_tensor,
    psnr,
    relative_error,
    tt_rbki,
    tt_reconstruct,
)
from ttapprox import tt
from ttapprox.metrics import _BLOCK, _error_metrics, _sum_sq

from oracles import at_blas_threads, needs_openblas, traced_peak

EPS = np.finfo(np.float64).eps


def test_frobenius_norm():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.ones((2, 2))) == 2.0
    rng = np.random.default_rng(9)
    t = rng.standard_normal((5, 5, 5))
    s = np.linalg.svd(np.reshape(t, (5, 25), order="F"), compute_uv=False)
    assert abs(frobenius_norm(t) - np.sqrt(np.sum(s**2))) <= 1e-10
    # at 2^600 the squares overflow and at 2^-600 they underflow; the sum
    # is redone on t scaled by one power of two, so the norm scales exactly
    for j in (600, -600):
        assert frobenius_norm(np.ldexp(t, j)) == np.ldexp(frobenius_norm(t), j)


def test_relative_error_single_entry_perturbation():
    a = np.zeros((3, 3))
    a[0, 0] = 3.0
    b = a.copy()
    b[0, 0] += 0.3
    assert abs(relative_error(a, b) - 0.1) <= 1e-16


def test_relative_error_identical_is_zero():
    a = np.random.default_rng(0).standard_normal((4, 5))
    assert relative_error(a, a) == 0.0


def test_relative_error_formula_oracle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((3, 4, 5))
    want = np.linalg.norm((a - b).ravel()) / np.linalg.norm(a.ravel())
    assert abs(relative_error(a, b) - want) <= 1e-15


def test_relative_error_scale_invariant():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6))
    b = a + 0.01 * rng.standard_normal((6, 6))
    r1 = relative_error(a, b)
    r2 = relative_error(1e6 * a, 1e6 * b)
    assert abs(r1 - r2) <= 1e-12 * r1


def test_psnr_unit_peak_single_error():
    a = np.ones((2, 2, 2))
    b = np.ones((2, 2, 2))
    b[0, 0, 0] = 0.0
    assert abs(psnr(a, b) - 10.0 * math.log10(8.0)) <= 1e-9


def test_psnr_formula_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5, 6))
    b = a + 0.1 * rng.standard_normal((4, 5, 6))
    want = 10.0 * math.log10(
        a.size * np.max(np.abs(b)) ** 2 / np.sum((a - b) ** 2)
    )
    assert abs(psnr(a, b) - want) <= 1e-10


def test_psnr_scale_invariant():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5))
    b = a + 0.05 * rng.standard_normal((5, 5))
    assert abs(psnr(a, b) - psnr(100.0 * a, 100.0 * b)) <= 1e-9


def test_psnr_sentinels():
    a = np.ones((3, 3))
    assert psnr(a, a.copy()) == math.inf
    assert psnr(a, np.zeros((3, 3))) == -math.inf
    assert math.isnan(psnr(a, np.full((3, 3), np.nan)))
    assert psnr(a, np.full((3, 3), np.inf)) == -math.inf  # an error past float64


def test_metrics_move_together():
    a = np.random.default_rng(5).standard_normal((6, 6, 6))
    rng = np.random.default_rng(6)
    noise = rng.standard_normal((6, 6, 6))
    rels, psnrs = [], []
    for scale in (0.001, 0.01, 0.1, 1.0):
        b = a + scale * noise
        rels.append(relative_error(a, b))
        psnrs.append(psnr(a, b))
    assert all(x < y for x, y in zip(rels, rels[1:]))
    assert all(x > y for x, y in zip(psnrs, psnrs[1:]))


def test_metrics_argument_errors():
    with pytest.raises(InvalidArgumentError):
        relative_error(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError):
        psnr(np.ones((2, 2)), np.ones((4,)))
    with pytest.raises(InvalidArgumentError):
        relative_error(np.zeros((2, 2)), np.ones((2, 2)))


@pytest.mark.parametrize("layout", [np.asfortranarray, np.ascontiguousarray])
def test_error_metrics_is_both_metrics_from_one_pass(layout):
    rng = np.random.default_rng(7)
    a = layout(rng.standard_normal((64, 128, 128)))  # 2^20 entries
    ahat = layout(a + 0.01 * rng.standard_normal(a.shape))
    # at 2^600 the squares overflow, so the sums are taken again on the
    # pair scaled by 2^-600, block by block
    for j in (0, 600):
        A, H = np.ldexp(a, j), np.ldexp(ahat, j)
        got, peak = traced_peak(error_metrics, A, H)
        norm, norm_peak = traced_peak(frobenius_norm, A)
        # block-sized scratch, no temporary the size of the tensor
        assert peak < a.nbytes / 8, j
        assert norm_peak < a.nbytes / 8, j
        assert got == (relative_error(A, H), psnr(A, H))
        assert norm == np.ldexp(frobenius_norm(a), j)
    with pytest.raises(InvalidArgumentError, match="zero norm"):
        error_metrics(np.zeros((2, 2)), np.ones((2, 2)))


@pytest.mark.parametrize("j", [600, -600])
def test_error_metrics_are_exactly_scale_invariant(j):
    # at 2^600 the squares overflow and at 2^-600 they underflow; the pass
    # is redone on both tensors scaled by one power of two, which leaves
    # both ratios bit-identical
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 7, 8))
    ahat = a + 1e-3 * rng.standard_normal(a.shape)
    assert error_metrics(np.ldexp(a, j), np.ldexp(ahat, j)) == error_metrics(a, ahat)


@pytest.mark.parametrize("a, ahat", [(1e-200, 1e100), (1e-20, 1e170)])
def test_an_error_past_float64_reads_inf_without_a_warning(a, ahat):
    # 1e-200's squares underflow, so the pass is redone on both tensors
    # times 2^664, where the error's squares overflow; 1e-20's squares are
    # in range and 1e170's overflow in the first pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = error_metrics(np.full((4, 4), a), np.full((4, 4), ahat))
    assert got == (math.inf, -math.inf)


def test_psnr_where_the_peak_squared_leaves_float64():
    # the ratio, 1000 peak^2 / ||a - ahat||^2, is in range where peak^2
    # overflows (30 dB) or underflows (-5400 dB)
    a = np.full(1000, 1e-3)
    ahat = a.copy()
    ahat[-1] = 1e153
    assert psnr(a, ahat) == pytest.approx(30.0, abs=1e-9)
    assert psnr(np.full((4, 4), 1e70), np.full((4, 4), 1e-200)) == pytest.approx(-5400.0, abs=1e-9)


@pytest.mark.parametrize("j", [0, 600, -600])
@pytest.mark.parametrize("layouts", ["FF", "CC", "CF"])
def test_every_caller_scores_with_the_bench_cells_computation(layouts, j):
    # error_metrics, relative_error and psnr take ||a||^2 and its exponent
    # from _sum_sq(a), as a bench cell does through ref, so every caller
    # gets the same bits whatever the layouts; a C-ordered reference summed
    # in the pair's column-major walk would differ in the last bit here
    clean = power_function_tensor((4, 5, 5, 5, 8), 5)
    tt, _ = tt_rbki(add_awgn(clean, 20.0, 1), SketchConfig(ranks=(3, 3, 3, 3), p=2, q=2, seed=0))
    order = {"F": np.asfortranarray, "C": np.ascontiguousarray}
    a = order[layouts[0]](np.ldexp(clean, j))
    ahat = order[layouts[1]](np.ldexp(tt_reconstruct(tt), j))
    want = _error_metrics(a, ahat, _sum_sq(a))
    assert error_metrics(a, ahat) == want
    assert (relative_error(a, ahat), psnr(a, ahat)) == want
    # a reference whose squares underflow and an error past float64: the
    # rescaled pair overflows to inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = error_metrics(np.full(10, 1e-200), np.full(10, 1e300))
    assert got == (math.inf, -math.inf)


@pytest.mark.parametrize("kind", ["powerfn", "gaussian"])
def test_sums_at_bench_size_stay_within_4_eps_of_the_exact_sum(kind):
    # the property test's bound at 20^5 = 3.2M entries, 98 blocks: fsum
    # takes the exact sum of the rounded squares, so only the kernel's
    # summation order (and ddot's fused multiply-adds) can differ from it
    rng = np.random.default_rng(26)
    shape = (20,) * 5
    if kind == "powerfn":
        a = power_function_tensor(shape, 5.0)
    else:
        a = np.asfortranarray(rng.standard_normal(shape))
    ahat = a + 1e-6 * rng.standard_normal(shape)
    ref_sq = math.fsum((a * a).ravel().tolist())
    want_rel = math.sqrt(math.fsum(((a - ahat) ** 2).ravel().tolist())) / math.sqrt(ref_sq)
    rel, _ = error_metrics(a, ahat)
    assert abs(rel - want_rel) <= 4 * EPS * want_rel
    assert abs(_sum_sq(a)[0] - ref_sq) <= 4 * EPS * ref_sq


# prints, for tensors of 10001 entries (one past the longest ddot that
# OpenBLAS keeps on one thread), 3 _BLOCK + 7 and 20^5 in F and C layout,
# the bits of frobenius_norm, _sum_sq and both metrics
_SUM_BITS = """
import numpy as np
from ttapprox import error_metrics, frobenius_norm
from ttapprox.metrics import _BLOCK, _sum_sq

shapes = [(73, 137), (17, 5783), (20,) * 5]
assert [int(np.prod(s)) for s in shapes] == [10001, 3 * _BLOCK + 7, 20**5]
rng = np.random.default_rng(26)
for shape in shapes:
    a = rng.standard_normal(shape)
    ahat = a + 1e-3 * rng.standard_normal(shape)
    for layout in (np.asfortranarray, np.ascontiguousarray):
        A, H = layout(a), layout(ahat)
        sums = frobenius_norm(A), _sum_sq(A)[0], *error_metrics(A, H)
        print(shape, layout.__name__, *(x.hex() for x in sums))
"""


@needs_openblas
def test_sums_do_not_depend_on_blas_threads():
    # every sum of squares is ddot over slices short enough that OpenBLAS
    # runs each on one thread; a longer slice is split across threads and
    # its last bits then change with the thread count
    out = {t: at_blas_threads(["-c", _SUM_BITS], t).stdout.splitlines() for t in ("1", "2")}
    assert len(out["1"]) == 6
    assert out["1"] == out["2"]


@st.composite
def _scored_chains(draw):
    """(chain, chunk constant): order 2-6, modes 1-40, ranks 1-8, at most
    2^17 entries, so a few 2^15-entry blocks; chunks from one entry (every
    chunk one column) to past the tensor's size (one chunk)."""
    order = draw(st.integers(2, 6))
    dims, size = [], 1
    for _ in range(order):
        dims.append(draw(st.integers(1, min(40, 2**17 // size))))
        size *= dims[-1]
    ranks = [1] + [draw(st.integers(1, 8)) for _ in range(order - 1)] + [1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chain = TTTensor([rng.standard_normal((ranks[n], dims[n], ranks[n + 1])) for n in range(order)])
    return chain, draw(st.integers(1, 64) | st.integers(1, 3 * _BLOCK))


def _chain(dims, rank):
    rng = np.random.default_rng(33)
    ranks = [1] + [rank] * (len(dims) - 1) + [1]
    return TTTensor([rng.standard_normal((ranks[n], d, ranks[n + 1])) for n, d in enumerate(dims)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn=_scored_chains())
# 1600 x 80 in chunks of 3 columns: 4800 entries, a block each
@example(drawn=(_chain((40, 40, 40, 2), 5), 5000))
# 900 x 900 in one-column chunks, each longer than the chunk constant
@example(drawn=(_chain((30, 30, 30), 3), 7))
# 80 x 1: a single right column
@example(drawn=(_chain((2, 40, 1), 4), 3))
# order 1: L is [[1]] and R the one core, in chunks of 5 columns
@example(drawn=(_chain((40,), 1), 5))
# the last mode outweighs the rest: k stops at N - 1, a 6 x 1000 product
@example(drawn=(_chain((2, 3, 1000), 2), 50))
def test_a_chain_scores_as_its_reconstruction_bit_for_bit(drawn):
    # the cell's scoring reads the chunks that tt_reconstruct writes, and
    # the dense pair is sliced at the same chunk bounds, so each block must
    # hold the same values in the same order on both sides
    chain, chunk = drawn
    rng = np.random.default_rng(34)
    with mock.patch.object(tt, "_CHUNK", chunk):
        dense = tt_reconstruct(chain)
        for layout in (np.asfortranarray, np.ascontiguousarray):
            base = layout(dense + 0.1 * rng.standard_normal(dense.shape))
            for j in (0, 600, -600):
                # cores scaled by 2^j scale the product exactly
                scaled = TTTensor([np.ldexp(chain.cores[0], j), *chain.cores[1:]])
                a = np.ldexp(base, j)
                want = error_metrics(a, tt_reconstruct(scaled))
                assert _error_metrics(a, scaled, _sum_sq(a)) == want, (layout.__name__, j)


# powerfn 20^5 at ranks 8: an 8000 x 400 product in 7 chunks of at most
# 65 columns; prints the chunk count and the bits of both scorings
_CHUNK_BITS = """
import numpy as np
from ttapprox import error_metrics, power_function_tensor, tt_rbki, tt_reconstruct, SketchConfig
from ttapprox.metrics import _error_metrics, _sum_sq
from ttapprox.tt import _chunks, _factors

a = power_function_tensor((20,) * 5, 5.0)
chain, _ = tt_rbki(a, SketchConfig(ranks=(8,) * 4, p=2, q=2, seed=1))
print(sum(1 for _ in _chunks(*_factors(chain))))
print(*(x.hex() for x in _error_metrics(a, chain, _sum_sq(a))))
print(*(x.hex() for x in error_metrics(a, tt_reconstruct(chain))))
"""


@needs_openblas
def test_a_chain_scores_as_its_reconstruction_at_1_and_2_blas_threads():
    for threads in ("1", "2"):
        chunks, got, want = at_blas_threads(["-c", _CHUNK_BITS], threads).stdout.splitlines()
        assert chunks == "7"
        assert got == want, threads
