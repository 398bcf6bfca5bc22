"""The memory-layout contract: producers return column-major arrays and,
on column-major input, no sweep step copies the tensor."""

import numpy as np
import pytest

from ttapprox import (
    add_awgn,
    power_function_tensor,
    spectrum_decay_tensor,
    tensor_load,
    tensor_save,
    tt_reconstruct,
)
from ttapprox import decompose
from ttapprox.decompose import METHODS, run_method


def test_producers_return_column_major(tmp_path):
    t = power_function_tensor((4, 5, 6), 2.0)
    path = tmp_path / "t.dten"
    tensor_save(np.ascontiguousarray(t), path)
    tt, _ = run_method("rsvd", t, (3, 4), p=1, seed=0)
    produced = {
        "power_function_tensor": t,
        "spectrum_decay_tensor": spectrum_decay_tensor(5, 2, 1.0),
        "add_awgn": add_awgn(np.ones((3, 4, 2)), 10.0, 0),  # C-ordered input
        "tensor_load": tensor_load(path),
        "tt_reconstruct": tt_reconstruct(tt),
    }
    for name, a in produced.items():
        assert a.flags.f_contiguous, name


def test_power_function_values_match_the_c_ordered_build():
    # the values before the tensor was built on reversed axes: broadcast
    # sums in mode order on a C-ordered grid, then the same power; unequal
    # dims, since the tensor is symmetric under any permutation of equal ones
    dims, h = (20, 18, 16, 14, 12), 5.0
    total = 0.0
    for k, d in enumerate(dims):
        shape = [-1 if a == k else 1 for a in range(len(dims))]
        total = total + (np.arange(1, d + 1, dtype=np.float64) ** h).reshape(shape)
    assert np.array_equal(power_function_tensor(dims, h), total ** (-1.0 / h))


@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_unfold_is_a_view_on_column_major_input(monkeypatch, method):
    seen = []  # (unfolding, carry) of every step
    sweep = decompose._sweep

    def spy(t, norm, pick_basis):
        def pick(A, n):
            b = pick_basis(A, n)
            seen.append((A, b.carry))
            return b

        return sweep(t, norm, pick)

    monkeypatch.setattr(decompose, "_sweep", spy)
    t = power_function_tensor((5, 4, 6, 3), 2.0)
    tt, _ = run_method(method, t, (3, 4, 2), p=1, q=1, seed=0)
    sources = [t] + [carry for _, carry in seen]
    assert len(seen) == t.ndim - 1
    for n, (A, carry) in enumerate(seen):
        assert np.shares_memory(A, sources[n]), n
        assert carry.flags.f_contiguous, n
    assert np.shares_memory(tt.cores[-1], seen[-1][1])
