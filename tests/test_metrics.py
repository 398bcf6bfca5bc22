import math
import tracemalloc

import numpy as np
import pytest

from ttapprox import InvalidArgumentError, error_metrics, frobenius_norm, psnr, relative_error


def test_frobenius_norm():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.ones((2, 2))) == 2.0
    rng = np.random.default_rng(9)
    t = rng.standard_normal((5, 5, 5))
    s = np.linalg.svd(np.reshape(t, (5, 25), order="F"), compute_uv=False)
    assert abs(frobenius_norm(t) - np.sqrt(np.sum(s**2))) <= 1e-10


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
    tracemalloc.start()
    try:
        got = error_metrics(a, ahat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of scratch, no temporary the size of the tensor
    assert peak < a.nbytes / 8
    assert got == (relative_error(a, ahat), psnr(a, ahat))
    with pytest.raises(InvalidArgumentError, match="zero norm"):
        error_metrics(np.zeros((2, 2)), np.ones((2, 2)))
