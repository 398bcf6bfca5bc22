"""The memory-layout contract: producers return column-major arrays,
each built in the array it returns, a bench plan holds one seed's noisy
inputs at a time, a chain scores one chunk of its product at a time,
and, on column-major input, no sweep step copies the tensor; every step
carries (A^T Q)^T, whatever matrix its basis Q was found on."""

import numpy as np
import pytest

from ttapprox import (
    TTTensor,
    add_awgn,
    error_metrics,
    power_function_tensor,
    spectrum_decay_tensor,
    tensor_load,
    tensor_save,
    tt_reconstruct,
)
from ttapprox import decompose
from ttapprox.bench import BenchPlan, run_bench
from ttapprox.decompose import METHODS, run_method

from oracles import traced_peak


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


def test_each_producer_builds_its_output_in_place():
    # the traced peak of one call, its input made beforehand, is the output
    # and small temporaries: no second array of the tensor's size (the
    # grid's sum and its power, the draw and the noisy sum, or the
    # N / I_N x r_{N-1} left contraction beside its product)
    rng = np.random.default_rng(31)
    ranks = (1, 8, 8, 8, 8, 1)
    chain = TTTensor([rng.standard_normal((ranks[k], 20, ranks[k + 1])) for k in range(5)])
    calls = {
        "power_function_tensor": (power_function_tensor, (20,) * 5, 5.0),
        "add_awgn": (add_awgn, rng.random(10**6), 10.0, 1),
        "tt_reconstruct": (tt_reconstruct, chain),
    }
    for name, (f, *args) in calls.items():
        out, peak = traced_peak(f, *args)
        assert out.size >= 10**6, name
        assert peak <= 1.1 * out.nbytes, (name, peak / out.nbytes)


def test_a_bench_plan_holds_one_seeds_inputs_at_a_time():
    # the clean tensor, one seed's two noisy levels and one scoring chunk,
    # whatever the seed count: a plan that made every (SNR, seed) input up
    # front would hold 6.3 tensors at 2 seeds and 18.3 at 8
    def plan(n_seeds):
        return BenchPlan(
            dataset={"kind": "spectrum", "n": 50, "T": 5, "D": 1.0}, methods=["rsvd"],
            ranks=[5], seeds=list(range(n_seeds)), snr_db=[5, 20],
        )

    run_bench(plan(1))  # untraced: the modules a first plan imports
    tensor = 50**3 * 8
    peaks = [traced_peak(run_bench, plan(n))[1] / tensor for n in (2, 8)]
    assert abs(peaks[0] - peaks[1]) <= 0.1, peaks
    assert max(peaks) < 5.0, peaks


def test_a_bench_cell_scores_its_chain_without_a_dense_reconstruction():
    # a clean plan holds the clean tensor, the cell's sweep and one scoring
    # chunk (4 MiB, half a tensor here); a dense reconstruction per cell
    # would add a whole tensor, 2.1 tensors in all
    plan = BenchPlan(
        dataset={"kind": "spectrum", "n": 100, "T": 20, "D": 1.0}, methods=["rsvd"], ranks=[10], seeds=[0]
    )
    run_bench(plan)  # untraced: the modules a first plan imports
    _, peak = traced_peak(run_bench, plan)
    assert peak / (100**3 * 8) < 1.8


def test_a_chain_whose_last_mode_outweighs_the_rest_scores_in_chunks():
    # 3 x 3 x 200000 at ranks 1: a 9 x 200000 product in chunks of 4 MiB,
    # 0.29 tensors; contracting cores 1..N into L would make it the tensor
    rng = np.random.default_rng(34)
    chain = TTTensor([rng.standard_normal((1, d, 1)) for d in (3, 3, 200000)])
    a = np.asfortranarray(rng.standard_normal(chain.dims))
    _, peak = traced_peak(error_metrics, a, chain)
    assert peak / a.nbytes < 0.5


@pytest.mark.parametrize("method", sorted(METHODS))
def test_every_unfold_is_a_view_on_column_major_input(monkeypatch, method):
    # powerfn 10^5 at ranks 3, p 2, q 2: rsi's and rbki's step 0
    # (10 x 10000) goes through R and step 1 (30 x 1000) through the
    # products, so the one carry rule is checked on both kinds of step
    seen = []  # (unfolding, Q) of every step
    carries = []  # the 2-D arrays _sweep takes norms of: its carries
    through_gram = []  # per randomized step: did M replace A?
    sweep, norm, rule = decompose._sweep, decompose.frobenius_norm, decompose._power_step_gram

    def spy_sweep(t, t_norm, pick_basis):
        def pick(A, n):
            b = pick_basis(A, n)
            seen.append((A, b.Q))
            return b

        return sweep(t, t_norm, pick)

    def spy_norm(x):
        if x.ndim == 2:
            carries.append(x)
        return norm(x)

    def spy_rule(*args):
        gram = rule(*args)
        through_gram.append(gram is not None)
        return gram

    monkeypatch.setattr(decompose, "_sweep", spy_sweep)
    monkeypatch.setattr(decompose, "frobenius_norm", spy_norm)
    monkeypatch.setattr(decompose, "_power_step_gram", spy_rule)
    t = power_function_tensor((10,) * 5, 5.0)
    tt, _ = run_method(method, t, (3, 3, 3, 3), p=2, q=2, seed=0)
    if method in ("rsi", "rbki"):
        assert through_gram[:2] == [True, False]
    assert len(seen) == len(carries) == t.ndim - 1
    sources = [t] + carries
    unfolds = [A for A, _ in seen[1:]] + [tt.cores[-1]]
    for n, (A, Q) in enumerate(seen):
        assert np.shares_memory(A, sources[n]), n  # a view, no copy
        assert carries[n].flags.f_contiguous, n
        want = np.reshape((A.T @ Q).T, unfolds[n].shape, order="F")
        assert np.array_equal(unfolds[n], want), n
    assert np.shares_memory(tt.cores[-1], carries[-1])
