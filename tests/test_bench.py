import csv
import json
import math
import time

import numpy as np
import pytest

from ttapprox import (
    BenchPlan,
    BenchRecord,
    InvalidArgumentError,
    ParseError,
    SketchConfig,
    TruncationSpec,
    add_awgn,
    emit,
    error_metrics,
    load_records,
    power_function_tensor,
    run_bench,
    spectrum_decay_tensor,
    tensor_save,
    tt_reconstruct,
    tt_svd,
)
from ttapprox import bench, decompose
from ttapprox.cli import main as cli_main

SPECTRUM8 = {"kind": "spectrum", "n": 8, "T": 2, "D": 1.0}

HEADER = "method,dataset,ranks,p,q,seed,snr_db,rel_err,psnr,wall_time_s,trace_sum_sq,error"


def small_plan(**over):
    base = dict(dataset=SPECTRUM8, methods=["svd"], ranks=[2], seeds=[0])
    base.update(over)
    return BenchPlan.from_dict(base)


# ---------------- plan parsing ----------------


def test_plan_scalar_q_and_snr_normalized():
    plan = BenchPlan.from_dict(
        dict(dataset=SPECTRUM8, methods=["rsvd"], ranks=[2], seeds=[0], q=3, snr_db=5)
    )
    assert plan.q == [3]
    assert plan.snr_db == [5.0]
    # integer values for float fields and seeds up to 2^64 - 1 are accepted
    plan = BenchPlan.from_dict(
        dict(dataset={"kind": "powerfn", "dims": [3, 3], "h": 5}, methods=["svd"],
             ranks=[1], seeds=[2**64 - 1], q=2)
    )
    assert plan.dataset["h"] == 5.0 and plan.q == [2] and plan.seeds == [2**64 - 1]
    assert small_plan(dataset={"kind": "spectrum", "n": 8, "T": 2, "D": 1}).dataset["D"] == 1.0


def test_plan_defaults():
    plan = small_plan()
    assert plan.p == 0 and plan.q == [1]
    assert plan.snr_db is None
    assert small_plan(svd_truncate=True) == plan  # the key older plans carry


def test_plan_sketch_defaults_are_sketch_configs():
    plan, cfg = small_plan(), SketchConfig(ranks=(2,))
    assert (plan.p, plan.q, plan.seeds) == (cfg.p, [cfg.q], [cfg.seed])


def test_plan_refuses_a_dataset_number_at_or_below_zero():
    # D and h are refused when the plan is read, not when its tensor is made
    for bad in (0, -1, True):
        with pytest.raises(InvalidArgumentError, match="D must be a finite number > 0"):
            small_plan(dataset={"kind": "spectrum", "n": 8, "T": 2, "D": bad})
        with pytest.raises(InvalidArgumentError, match="h must be a finite number > 0"):
            small_plan(dataset={"kind": "powerfn", "dims": [4, 4], "h": bad})
    with pytest.raises(InvalidArgumentError, match="unknown dataset kind"):
        small_plan(dataset={"kind": ["spectrum"]})


def test_plan_rejects_unknown_and_missing_keys():
    with pytest.raises(InvalidArgumentError, match="unknown plan keys"):
        BenchPlan.from_dict(
            dict(dataset=SPECTRUM8, methods=["svd"], ranks=[2], seeds=[0], bogus=1)
        )
    with pytest.raises(InvalidArgumentError, match="missing"):
        BenchPlan.from_dict(dict(dataset=SPECTRUM8, methods=["svd"], ranks=[2]))


def test_plan_validation_errors():
    with pytest.raises(InvalidArgumentError):
        small_plan(methods=[])
    with pytest.raises(InvalidArgumentError):
        small_plan(methods=["qrcp"])
    with pytest.raises(InvalidArgumentError):
        small_plan(ranks=[])
    with pytest.raises(InvalidArgumentError):
        small_plan(p=-1)
    with pytest.raises(InvalidArgumentError, match="missing keys: \\['h'\\]"):
        small_plan(dataset={"kind": "powerfn", "dims": [4, 4]})
    with pytest.raises(InvalidArgumentError, match="p must be an integer"):
        small_plan(p="x")
    with pytest.raises(InvalidArgumentError, match="methods must be a non-empty list"):
        small_plan(methods="rsvd")
    with pytest.raises(InvalidArgumentError, match="q must be an integer >= 1"):
        small_plan(q=0)
    with pytest.raises(InvalidArgumentError):
        small_plan(dataset={"kind": "spectrum", "n": 8, "T": 2, "D": "1"})
    with pytest.raises(InvalidArgumentError):
        small_plan(seeds=[-1])
    for flag in ("yes", False):
        with pytest.raises(InvalidArgumentError, match="svd_truncate must be true"):
            small_plan(svd_truncate=flag)
    with pytest.raises(InvalidArgumentError, match="unknown powerfn dataset keys: \\['zzz'\\]"):
        small_plan(dataset={"kind": "powerfn", "dims": [4, 4, 4], "h": 2, "zzz": 3})
    with pytest.raises(InvalidArgumentError, match="snr_db must be a finite number"):
        small_plan(snr_db=[5.0, math.nan])
    with pytest.raises(InvalidArgumentError, match="h must be a finite number"):
        small_plan(dataset={"kind": "powerfn", "dims": [4, 4], "h": math.inf})
    with pytest.raises(InvalidArgumentError, match="D must be a finite number"):
        small_plan(dataset={"kind": "spectrum", "n": 8, "T": 2, "D": 10**400})


def test_rank_entry_must_fit_tensor_order():
    with pytest.raises(InvalidArgumentError):
        run_bench(small_plan(ranks=[[2, 2, 2]]))  # order-3 tensor needs 2 ranks


# ---------------- sweep behaviour ----------------


def test_record_count_and_sort_order():
    plan = small_plan(
        methods=["svd", "rbki"], ranks=[2, 3], q=[1, 2], snr_db=[None, 5.0], seeds=[0, 1]
    )
    records = run_bench(plan)
    assert len(records) == 2 * 2 * 2 * 2 * 2
    key = lambda r: (
        r.dataset,
        r.method,
        r.ranks,
        r.q,
        (r.snr_db is not None, r.snr_db or 0.0),
        r.seed,
    )
    assert [key(r) for r in records] == sorted(key(r) for r in records)
    assert records[0].method == "rbki"  # alphabetical within a dataset


def _assert_rows_are_their_cells(records, base):
    """Every row's metrics are error_metrics(base, tt_reconstruct(tt)) of
    its cell, bit for bit, tt the sweep of the clean tensor or of
    add_awgn(base, snr, seed): so every method of one (snr, seed) saw the
    same noisy input, and metrics are taken against the clean one."""
    assert records and all(r.error is None for r in records)
    for r in records:
        inp = base if r.snr_db is None else add_awgn(base, r.snr_db, r.seed)
        tt, trace = decompose.run_method(r.method, inp, r.ranks, p=r.p, q=r.q, seed=r.seed)
        assert (r.rel_err, r.psnr) == error_metrics(base, tt_reconstruct(tt)), r
        assert r.trace_sum_sq == trace.residual_sq_sum


def test_noise_is_paired_across_methods():
    plan = small_plan(
        methods=list(decompose.METHODS), ranks=[[2, 2]], q=[2], snr_db=[5.0, 20.0], seeds=[3, 4], p=1
    )
    records = run_bench(plan)
    assert len(records) == 4 * 2 * 2
    _assert_rows_are_their_cells(records, spectrum_decay_tensor(8, 2, 1.0))


def test_rows_are_their_cells_metrics_on_clean_and_rescaled_inputs(tmp_path):
    # a clean powerfn plan, and a file dataset near 1e200, whose squared
    # norm is past float64's range, so every sum is taken on base 2^-e
    methods = list(decompose.METHODS)
    plan = small_plan(dataset={"kind": "powerfn", "dims": [4, 5, 6], "h": 2.0}, methods=methods,
                      ranks=[2, 3], q=[1, 2], seeds=[0, 1])
    _assert_rows_are_their_cells(run_bench(plan), power_function_tensor((4, 5, 6), 2.0))
    big = 1e200 * np.random.default_rng(7).standard_normal((6, 5, 4))
    path = tmp_path / "big.dten"
    tensor_save(big, path)
    plan = small_plan(dataset={"kind": "file", "path": str(path)}, methods=methods, ranks=[2],
                      seeds=[0, 1], snr_db=[None, 5.0])
    _assert_rows_are_their_cells(run_bench(plan), big)


def test_a_plan_draws_one_gaussian_stream_per_seed(monkeypatch):
    # S levels x K seeds of noise come from K draws, one per seed; tt_svd
    # draws nothing, so every generator made here is the noise's
    real, seeds = np.random.default_rng, []

    def spy(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    records = run_bench(small_plan(snr_db=[1.0, 5.0, 20.0], seeds=[4, 0]))
    assert len(records) == 3 * 2
    assert seeds == [4, 0]


def test_non_finite_file_fails_a_noisy_plan_before_any_cell(monkeypatch, tmp_path):
    # the sweeps' error from the one power sum: the library raises it, the
    # CLI exits 4 and writes nothing; a clean plan keeps its error rows
    calls = []
    real = decompose.run_method
    monkeypatch.setattr(decompose, "run_method", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
    t = spectrum_decay_tensor(8, 2, 1.0)
    t[1, 2, 3] = np.nan
    path = tmp_path / "nan.dten"
    tensor_save(t, path)
    plan = dict(dataset={"kind": "file", "path": str(path)}, methods=["svd"], ranks=[2], seeds=[0], snr_db=[5])
    with pytest.raises(FloatingPointError, match="NaN or Inf"):
        run_bench(BenchPlan.from_dict(plan))
    plan_path, out = tmp_path / "plan.json", tmp_path / "out.csv"
    plan_path.write_text(json.dumps(plan))
    assert cli_main(["bench", "--plan", str(plan_path), "-o", str(out)]) == 4
    assert calls == [] and not out.exists()
    (row,) = run_bench(BenchPlan.from_dict({**plan, "snr_db": None}))
    assert "NaN or Inf" in row.error and row.rel_err is None


def test_svd_rows_identical_across_seeds():
    records = run_bench(small_plan(seeds=[0, 1, 2]))
    errs = {r.rel_err for r in records}
    assert len(records) == 3 and len(errs) == 1


@pytest.mark.parametrize("snr_db", [None, [5.0]])
def test_svd_runs_once_per_ranks_and_input(monkeypatch, snr_db):
    # tt_svd ignores q and the sketch seed: one call per rank entry on the
    # clean tensor, one per (ranks, seed) on noisy input
    real = decompose.tt_svd
    calls = []

    def spy(t, trunc):
        calls.append(trunc.ranks)
        return real(t, trunc)

    monkeypatch.setattr(decompose, "tt_svd", spy)
    plan = small_plan(
        methods=["svd", "rsvd"], ranks=[1, 2], q=[1, 2], seeds=[0, 1, 2], snr_db=snr_db
    )
    records = run_bench(plan)
    inputs = 1 if snr_db is None else 3
    assert len(calls) == 2 * inputs
    assert len(records) == 2 * 2 * 2 * 3  # methods x ranks x q x seeds
    # every svd row of one (ranks, input) carries that input's one result
    results = {}
    for r in records:
        if r.method == "svd":
            key = (r.ranks, None if snr_db is None else r.seed)
            results.setdefault(key, set()).add(
                (r.rel_err, r.psnr, r.trace_sum_sq, r.error, r.wall_time_s)
            )
    assert len(results) == len(calls)
    assert all(len(v) == 1 for v in results.values())
    assert all(r.wall_time_s > 0.0 for r in records)


def test_a_refused_noise_level_fails_the_plan_before_any_cell(monkeypatch, tmp_path):
    # -4000 dB asks for noise beyond float64's range, which add_awgn
    # refuses; the 5 dB level listed before it must not get its cells run
    # first, in the library or through the CLI, which exits 2
    calls = []
    real = decompose.run_method

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(decompose, "run_method", spy)
    plan = dict(
        dataset={"kind": "powerfn", "dims": [4, 5, 6], "h": 2.0},
        methods=["svd", "rsvd"], ranks=[2], seeds=[0, 1], snr_db=[5, -4000],
    )
    with pytest.raises(InvalidArgumentError):
        run_bench(BenchPlan.from_dict(plan))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    out = tmp_path / "out.csv"
    assert cli_main(["bench", "--plan", str(path), "-o", str(out)]) == 2
    assert calls == []
    assert not out.exists()


def test_wall_time_measures_decomposition_only(monkeypatch, tmp_path):
    t = spectrum_decay_tensor(8, 2, 1.0)
    canned = tt_svd(t, TruncationSpec(ranks=(2, 2)))

    # the method table looks the sweep up on the decompose module per call
    monkeypatch.setattr(decompose, "tt_svd", lambda inp, trunc: canned)
    records = run_bench(small_plan(methods=["svd"], ranks=[[2, 2]]))
    assert len(records) == 1
    assert 0.0 < records[0].wall_time_s < 0.02

    # a slow reconstruction followed by failing metrics (zero reference)
    # must not leak into the decomposition time
    def slow_reconstruct(tt):
        time.sleep(0.3)
        return tt_reconstruct(tt)

    monkeypatch.setattr(bench, "tt_reconstruct", slow_reconstruct)
    zero = tmp_path / "zero.dten"
    tensor_save(np.zeros((8, 8, 8)), zero)
    records = run_bench(small_plan(dataset={"kind": "file", "path": str(zero)}, ranks=[[2, 2]]))
    assert len(records) == 1 and "zero norm" in records[0].error
    assert 0.0 < records[0].wall_time_s < 0.02


def test_infeasible_rank_becomes_error_row():
    records = run_bench(small_plan(methods=["rsvd"], ranks=[2, 40], q=[1]))
    ok = [r for r in records if r.ranks == (2, 2)]
    bad = [r for r in records if r.ranks == (40, 40)]
    assert len(ok) == 1 and len(bad) == 1
    assert ok[0].rel_err is not None and ok[0].error is None
    assert bad[0].rel_err is None and bad[0].psnr is None
    assert bad[0].trace_sum_sq is None
    assert "40" in bad[0].error


def test_file_dataset_kind(tmp_path):
    t = np.random.default_rng(0).standard_normal((5, 5, 5))
    path = tmp_path / "input.dten"
    tensor_save(t, path)
    plan = small_plan(dataset={"kind": "file", "path": str(path)}, ranks=[[5, 5]])
    records = run_bench(plan)
    assert records[0].dataset == str(path)
    assert records[0].rel_err <= 1e-10  # full rank reproduces the file


def test_unknown_dataset_kind():
    with pytest.raises(InvalidArgumentError):
        run_bench(small_plan(dataset={"kind": "mystery"}))


# ---------------- serialization ----------------


def gnarly_records():
    return [
        BenchRecord(
            method="rsvd",
            dataset="spectrum(n=8,T=2,D=1)",
            ranks=(3, 4),
            p=2,
            q=1,
            seed=0,
            snr_db=None,
            rel_err=1.0 / 3.0,
            psnr=math.inf,
            wall_time_s=0.12345678901234567,
            trace_sum_sq=2.2250738585072014e-308,
        ),
        BenchRecord(
            method="svd",
            dataset="spectrum(n=8,T=2,D=1)",
            ranks=(3, 4),
            p=0,
            q=1,
            seed=7,
            snr_db=-3.5,
            rel_err=None,
            psnr=None,
            wall_time_s=1e-7,
            trace_sum_sq=None,
            error="rank 40 at step 0 exceeds min(8, 64)",
        ),
    ]


def test_csv_header_and_field_count(tmp_path):
    path = tmp_path / "out.csv"
    emit(gnarly_records(), "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == HEADER
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    for row in rows:  # dataset ids contain commas, so parse properly
        assert len(row) == 12


def test_csv_empty_sweep_is_header_only(tmp_path):
    path = tmp_path / "out.csv"
    emit([], "csv", path)
    assert path.read_text().strip() == HEADER
    assert load_records(path, "csv") == []


def test_round_trip_preserves_every_field(tmp_path):
    recs = gnarly_records()
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        emit(recs, fmt, path)
        back = load_records(path, fmt)
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert a.method == b.method and a.dataset == b.dataset
            assert a.ranks == b.ranks
            assert (a.p, a.q, a.seed) == (b.p, b.q, b.seed)
            assert a.snr_db == b.snr_db
            assert a.rel_err == b.rel_err  # 17 sig digits round-trips exactly
            assert a.psnr == b.psnr
            assert a.wall_time_s == b.wall_time_s
            assert a.trace_sum_sq == b.trace_sum_sq
            assert a.error == b.error


def test_json_and_csv_agree(tmp_path):
    records = run_bench(small_plan(methods=["svd", "rsvd"], ranks=[2, 3], seeds=[0, 1]))
    emit(records, "csv", tmp_path / "o.csv")
    emit(records, "json", tmp_path / "o.json")
    a = load_records(tmp_path / "o.csv", "csv")
    b = load_records(tmp_path / "o.json", "json")
    assert a == b


def test_error_rows_serialize_with_empty_metrics(tmp_path):
    records = run_bench(small_plan(methods=["rsvd"], ranks=[40]))
    path = tmp_path / "o.csv"
    emit(records, "csv", path)
    with open(path, newline="") as f:
        row = list(csv.reader(f))[1]
    assert row[7] == "" and row[8] == "" and row[10] == ""
    assert row[11] == records[0].error and "40" in row[11]
    back = load_records(path, "csv")
    assert back[0].rel_err is None and back[0].error == records[0].error

    jpath = tmp_path / "o.json"
    emit(records, "json", jpath)
    obj = json.loads(jpath.read_text())[0]
    assert obj["rel_err"] is None and obj["error"] == records[0].error
    assert load_records(jpath, "json")[0].error == records[0].error


def test_emit_unknown_format(tmp_path):
    with pytest.raises(InvalidArgumentError):
        emit([], "xml", tmp_path / "o.xml")


def test_load_records_names_the_row_and_column_of_a_malformed_file(tmp_path):
    path = tmp_path / "out.csv"
    emit(gnarly_records(), "csv", path)
    rows = list(csv.reader(path.read_text().splitlines()))
    ranks, seed = rows[0].index("ranks"), rows[0].index("seed")

    def write(rows):
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)

    write([[v for i, v in enumerate(row) if i != ranks] for row in rows])
    with pytest.raises(ParseError, match="row 1 has no ranks column"):
        load_records(path, "csv")
    rows[2][seed] = "zero"
    write(rows)
    with pytest.raises(ParseError, match="row 2, column seed: invalid literal"):
        load_records(path, "csv")

    jpath = tmp_path / "out.json"
    emit(gnarly_records(), "json", jpath)
    objs = json.loads(jpath.read_text())
    objs[1]["ranks"] = [3, 4]
    jpath.write_text(json.dumps(objs))
    with pytest.raises(ParseError, match="row 2, column ranks"):
        load_records(jpath, "json")
    del objs[0]["error"]
    jpath.write_text(json.dumps(objs))
    with pytest.raises(ParseError, match="row 1 has no error column"):
        load_records(jpath, "json")
    for top in ({"method": "svd"}, 5):
        jpath.write_text(json.dumps(top))
        with pytest.raises(ParseError, match="expected a list of records"):
            load_records(jpath, "json")
