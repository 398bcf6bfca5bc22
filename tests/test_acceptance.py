"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the whole gate can be read off
`pytest -v -s tests/test_acceptance.py` at a glance.  Tolerances and
sweep shapes are fixed; seeds are frozen so the statistical checks are
reproducible run to run.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from ttapprox import (
    BenchPlan,
    SketchConfig,
    TTTensor,
    TruncationSpec,
    add_awgn,
    emit,
    frobenius_norm,
    load_records,
    power_function_tensor,
    psnr,
    relative_error,
    run_bench,
    spectrum_decay_tensor,
    tensor_load,
    tensor_save,
    tt_rbki,
    tt_reconstruct,
    tt_rsi,
    tt_rsvd,
    tt_svd,
    validate,
)
from ttapprox.cli import main as cli_main
from oracles import tail_energy

RANDOMIZED = {"rsvd": tt_rsvd, "rsi": tt_rsi, "rbki": tt_rbki}

# cores produced anywhere in this suite are collected for criterion 4
PRODUCED_TTS = []


def _report(idx, ok, detail):
    print(f"\n[criterion {idx:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok


def _keep(tt):
    PRODUCED_TTS.append(tt)
    return tt


def _rel(t, tt):
    return relative_error(t, tt_reconstruct(tt))


@pytest.fixture(scope="module")
def powerfn5():
    return power_function_tensor((20,) * 5, 5.0)


@pytest.fixture(scope="module")
def spectrum100():
    return spectrum_decay_tensor(100, 20, 1.0)


def _medians(records, method_names):
    """method -> {group key -> median rel_err} with group = (ranks, snr)."""
    out = {}
    for m in method_names:
        cells = {}
        for r in records:
            if r.method == m:
                cells.setdefault((r.ranks, r.snr_db), []).append(r.rel_err)
        out[m] = {k: statistics.median(v) for k, v in cells.items()}
    return out


def test_criterion_01_exact_rank_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    cores = [
        rng.standard_normal((1, 40, 5)),
        rng.standard_normal((5, 40, 5)),
        rng.standard_normal((5, 40, 1)),
    ]
    t = tt_reconstruct(TTTensor(cores))

    e_svd = _rel(t, _keep(tt_svd(t, TruncationSpec(ranks=(5, 5)))[0]))
    e_rbki = statistics.median(
        _rel(t, _keep(tt_rbki(t, SketchConfig(ranks=(5, 5), p=5, q=2, seed=s))[0]))
        for s in range(5)
    )
    elapsed = time.perf_counter() - t0
    ok = e_svd <= 1e-10 and e_rbki <= 1e-8 and elapsed < 10.0
    _report(
        1,
        ok,
        f"exact recovery on 40^3 rank-(5,5): svd {e_svd:.2e}, "
        f"rbki median {e_rbki:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_accumulated_error_bound():
    rng = np.random.default_rng(21)
    worst_slack, worst_rel = -math.inf, -math.inf
    for _ in range(20):
        t = rng.standard_normal((6, 6, 6))
        for eps in (0.1, 0.3, 0.5):
            tt, trace = tt_svd(t, TruncationSpec(epsilon=eps))
            _keep(tt)
            err = frobenius_norm(t - tt_reconstruct(tt))
            bound = math.sqrt(sum(s.residual**2 for s in trace.steps))
            worst_slack = max(worst_slack, err - bound)
            worst_rel = max(worst_rel, err / frobenius_norm(t) - eps)
    ok = worst_slack <= 1e-12 and worst_rel <= 0.0
    _report(
        2,
        ok,
        f"error <= accumulated bound on 20 tensors x 3 epsilons "
        f"(worst slack {worst_slack:.1e})",
    )


def test_criterion_03_residual_decomposition_identity():
    t = np.random.default_rng(31).standard_normal((8, 8, 8))
    worst = 0.0
    runs = [tt_svd(t, TruncationSpec(ranks=(4, 4)))]
    runs += [
        fn(t, SketchConfig(ranks=(4, 4), p=2, q=2, seed=3)) for fn in RANDOMIZED.values()
    ]
    for tt, trace in runs:
        _keep(tt)
        err_sq = frobenius_norm(t - tt_reconstruct(tt)) ** 2
        worst = max(worst, abs(err_sq - trace.residual_sq_sum) / err_sq)
    ok = worst <= 1e-8
    _report(3, ok, f"squared error equals residual sum for all 4 methods "
                   f"(worst rel dev {worst:.1e})")


def test_criterion_04_left_orthogonality():
    t = np.random.default_rng(41).standard_normal((9, 8, 7))
    for fn in RANDOMIZED.values():
        _keep(fn(t, SketchConfig(ranks=(3, 3), p=2, q=2, seed=1))[0])
    worst = 0.0
    for tt in PRODUCED_TTS:
        rep = validate(tt)
        assert rep.boundary_ok and rep.adjacency_ok
        worst = max(worst, max(rep.orth_residuals, default=0.0))
    ok = worst <= 1e-10
    _report(4, ok, f"max ||Q^T Q - I|| over {len(PRODUCED_TTS)} decompositions: {worst:.1e}")


# Criterion 5's allowance for float64 rounding, in units of relative
# error on the order-3 spectrum tensor.  Step n of a sweep returns
# Q (Q^T A_n) for A_n, and Q is orthonormal only to O(u): ||Q^T Q - I||_2
# is 5-6u for rbki's QR bases on these unfoldings, and the carry Q^T A_n
# and the product Q C that rebuilds the tensor add under 1u together.  So
# one step misses its exact projection by about c u ||A_n|| <= c u ||t||
# with c = 6, and the residual identity adds the N - 1 steps in
# quadrature: c sqrt(N - 1) u ||t||.  Once rbki is down to this floor,
# its order against another method is rounding noise, so each ordering
# check allows tau on top.  tau ~ 1.9e-15 sits over 1000x below the
# r = 30 optimum (2.1e-12), so ranks 15-30 still test the orderings.
FLOAT64_TAU = 6 * math.sqrt(3 - 1) * np.finfo(float).eps


def test_criterion_05_spectrum_tensor_sweep():
    t0 = time.perf_counter()
    plan = BenchPlan.from_dict(
        {
            "dataset": {"kind": "spectrum", "n": 100, "T": 20, "D": 1.0},
            "methods": ["svd", "rsvd", "rbki"],
            "ranks": [5, 10, 15, 20, 25, 30, 35, 40],
            "p": 2,
            "q": 2,
            "seeds": [0, 1, 2, 3, 4],
        }
    )
    med = _medians(run_bench(plan), plan.methods)
    # (group, other method, factor): rbki <= factor * other + tau
    checks = []
    for k in sorted(med["svd"]):
        checks.append((k, "svd", 1.1))
        if k[0][0] >= 15:
            checks.append((k, "rsvd", 1.0))
    failed = [
        (k, m, f) for k, m, f in checks if not med["rbki"][k] <= f * med[m][k] + FLOAT64_TAU
    ]
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < 120.0
    detail = (
        f"spectrum 100^3 sweep: rbki within 1.1x of svd at all 8 ranks "
        f"and <= rsvd for r >= 15 (+ tau {FLOAT64_TAU:.1e}), {elapsed:.0f}s"
    )
    if failed:
        k, m, f = failed[0]
        detail += (
            f"; first failure at r={k[0][0]}: rbki {med['rbki'][k]:.3e} > "
            f"{f}x {m} {med[m][k]:.3e} + tau"
        )
    _report(5, ok, detail)


def test_criterion_06_power_function_sweep():
    t0 = time.perf_counter()
    plan = BenchPlan.from_dict(
        {
            "dataset": {"kind": "powerfn", "dims": [20] * 5, "h": 5.0},
            "methods": ["svd", "rsvd", "rsi", "rbki"],
            "ranks": list(range(2, 9)),
            "p": 2,
            "q": 2,
            "seeds": [0, 1, 2, 3, 4],
        }
    )
    med = _medians(run_bench(plan), plan.methods)
    keys = sorted(med["svd"])
    near_ok = all(
        med[m][k] <= 1.05 * med["svd"][k] for m in ("rbki", "rsi") for k in keys
    )
    gap_ok = all(med["rsvd"][k] >= 1.2 * med["svd"][k] for k in keys if k[0][0] >= 4)
    elapsed = time.perf_counter() - t0
    ok = near_ok and gap_ok and elapsed < 300.0
    _report(
        6,
        ok,
        f"power-function sweep: rbki/rsi within 1.05x of svd, rsvd >= 1.2x "
        f"for r >= 4, {elapsed:.0f}s",
    )


def test_criterion_07_noisy_ranking():
    plan = BenchPlan.from_dict(
        {
            "dataset": {"kind": "powerfn", "dims": [20] * 5, "h": 5.0},
            "methods": ["rsvd", "rsi", "rbki"],
            "ranks": list(range(2, 9)),
            "p": 2,
            "q": 2,
            "seeds": [0, 1, 2, 3, 4],
            "snr_db": 5.0,
        }
    )
    med = _medians(run_bench(plan), plan.methods)
    keys = sorted(med["rbki"])
    chain_ok = all(
        med["rbki"][k] <= med["rsi"][k] <= med["rsvd"][k] for k in keys
    )
    strict = sum(
        med["rbki"][k] < med["rsi"][k] and med["rbki"][k] < med["rsvd"][k]
        for k in keys
    )
    ok = chain_ok and strict >= 5
    _report(
        7,
        ok,
        f"5 dB ranking rbki <= rsi <= rsvd at all 7 ranks, strictly best at "
        f"{strict}/7",
    )


def test_criterion_08_noise_level_trend():
    plan = BenchPlan.from_dict(
        {
            "dataset": {"kind": "powerfn", "dims": [20] * 5, "h": 5.0},
            "methods": ["rsvd", "rsi", "rbki"],
            "ranks": [[5, 5, 5, 5]],
            "p": 2,
            "q": 2,
            "seeds": [0, 1, 2, 3, 4],
            "snr_db": [1.0, 3.0, 5.0, 10.0, 20.0],
        }
    )
    med = _medians(run_bench(plan), plan.methods)
    snrs = [1.0, 3.0, 5.0, 10.0, 20.0]
    key = lambda s: ((5, 5, 5, 5), s)
    gaps = [med["rsvd"][key(s)] - med["rbki"][key(s)] for s in snrs]
    trend_ok = all(b <= a for a, b in zip(gaps, gaps[1:]))
    vs_rsi_ok = all(med["rbki"][key(s)] <= med["rsi"][key(s)] for s in snrs)
    ok = trend_ok and vs_rsi_ok
    _report(
        8,
        ok,
        "rsvd-rbki gap nonincreasing in SNR: "
        + ", ".join(f"{g:.3f}" for g in gaps),
    )


def test_criterion_09_noise_calibration():
    t = power_function_tensor((100, 100, 100), 3.0)
    noise = add_awgn(t, 5.0, 42) - t
    snr = 10.0 * math.log10(float(np.sum(t**2) / np.sum(noise**2)))
    mean = float(np.mean(noise))
    ok = abs(snr - 5.0) <= 0.1 and abs(mean) <= 0.005
    _report(9, ok, f"10^6-entry AWGN at 5 dB: empirical {snr:.4f} dB, "
                   f"noise mean {mean:.1e}")


def test_criterion_10_metric_formulas():
    a = np.ones((2, 2, 2))
    b = np.ones((2, 2, 2))
    b[0, 0, 0] = 0.0
    psnr_ok = abs(psnr(a, b) - 10.0 * math.log10(8.0)) <= 1e-9
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        m = rng.standard_normal((rng.integers(5, 15), rng.integers(5, 15)))
        s = np.linalg.svd(m, compute_uv=False)
        for j in range(1, min(m.shape) + 2):
            want = math.sqrt(float(np.sum(s[j - 1 :] ** 2)))
            worst = max(worst, abs(tail_energy(m, j) - want))
    ok = psnr_ok and worst <= 1e-9
    _report(10, ok, f"psnr hand value and tail energies on 20 matrices "
                    f"(worst dev {worst:.1e})")


def test_criterion_11_determinism():
    t = np.random.default_rng(111).standard_normal((10, 9, 8))
    ok = True
    for name, fn in RANDOMIZED.items():
        cfg = SketchConfig(ranks=(3, 3), p=2, q=2, seed=7)
        t1, _ = fn(t, cfg)
        t2, _ = fn(t, cfg)
        same_cores = all(np.array_equal(a, b) for a, b in zip(t1.cores, t2.cores))
        same_metric = _rel(t, t1) == _rel(t, t2)
        ok = ok and same_cores and same_metric
    _report(11, ok, "repeated seeds give bit-identical cores and metrics")


def test_criterion_12_wall_time_ordering(spectrum100):
    def med_time(fn):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    t = spectrum100
    t_svd = med_time(lambda: tt_svd(t, TruncationSpec(ranks=(20, 20))))
    t_rsvd = med_time(lambda: tt_rsvd(t, SketchConfig(ranks=(20, 20), p=2, q=1, seed=0)))
    t_rbki = med_time(lambda: tt_rbki(t, SketchConfig(ranks=(20, 20), p=2, q=2, seed=0)))
    ok = t_rsvd < t_rbki < t_svd
    _report(
        12,
        ok,
        f"median wall times rsvd {t_rsvd * 1e3:.0f}ms < rbki {t_rbki * 1e3:.0f}ms "
        f"< svd {t_svd * 1e3:.0f}ms (t_rbki / t_rsvd {t_rbki / t_rsvd:.2f}, "
        f"t_svd / t_rbki {t_svd / t_rbki:.2f})",
    )


def test_criterion_13_cli_round_trip(tmp_path):
    clean = tmp_path / "c.dten"
    ttc = tmp_path / "c.ttc"
    recon = tmp_path / "r.dten"
    assert cli_main(["synth", "spectrum", "--n", "20", "--T", "4", "--D", "1.0",
                     "-o", str(clean)]) == 0
    assert cli_main(["decompose", "--method", "rbki", "--ranks", "6,6", "--p", "2",
                     "--q", "2", "--seed", "0", "-i", str(clean), "-o", str(ttc)]) == 0
    assert cli_main(["reconstruct", "-i", str(ttc), "-o", str(recon)]) == 0

    t = spectrum_decay_tensor(20, 4, 1.0)
    tt, _ = tt_rbki(t, SketchConfig(ranks=(6, 6), p=2, q=2, seed=0))
    want = _rel(t, tt)
    got = relative_error(tensor_load(clean), tensor_load(recon))
    pipeline_ok = abs(got - want) <= 1e-12

    plan = {
        "dataset": {"kind": "spectrum", "n": 10, "T": 2, "D": 1.0},
        "methods": ["svd", "rbki"],
        "ranks": [2, 4],
        "p": 1,
        "seeds": [0, 1],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    csv_path = tmp_path / "out.csv"
    assert cli_main(["bench", "--plan", str(plan_path), "-o", str(csv_path)]) == 0
    header = csv_path.read_text().splitlines()[0]
    csv_ok = header.count(",") == 11  # 12 columns, error last
    records = run_bench(BenchPlan.from_dict(plan))
    emit(records, "csv", tmp_path / "again.csv")
    csv_ok = csv_ok and load_records(tmp_path / "again.csv", "csv") == records
    ok = pipeline_ok and csv_ok
    _report(
        13,
        ok,
        f"file pipeline matches in-process rel_err ({got:.3e}) and CSV "
        f"round-trips {len(records)} records",
    )
