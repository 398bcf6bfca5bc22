import argparse
import json
import struct

import numpy as np
import pytest

from ttapprox import (
    SketchConfig,
    TruncationSpec,
    add_awgn,
    load_records,
    power_function_tensor,
    psnr,
    relative_error,
    spectrum_decay_tensor,
    tensor_load,
    tensor_save,
    tt_load,
    tt_reconstruct,
    tt_rbki,
    tt_rsi,
    tt_rsvd,
    tt_save,
    tt_svd,
)
from ttapprox import cli
from ttapprox.cli import build_parser, main
from ttapprox.decompose import METHODS


def run(*argv):
    return main([str(a) for a in argv])


def test_synth_spectrum_matches_library(tmp_path):
    out = tmp_path / "t.dten"
    assert run("synth", "spectrum", "--n", 6, "--T", 2, "--D", 1.0, "-o", out) == 0
    assert np.array_equal(tensor_load(out), spectrum_decay_tensor(6, 2, 1.0))


def test_synth_powerfn_matches_library(tmp_path):
    out = tmp_path / "t.dten"
    assert run("synth", "powerfn", "--dims", "4,5,6", "--h", 3.0, "-o", out) == 0
    assert np.array_equal(tensor_load(out), power_function_tensor((4, 5, 6), 3.0))


def test_noise_matches_library(tmp_path):
    src, dst = tmp_path / "a.dten", tmp_path / "b.dten"
    t = spectrum_decay_tensor(5, 1, 1.0)
    tensor_save(t, src)
    assert run("noise", "--snr", 10.0, "--seed", 3, "-i", src, "-o", dst) == 0
    assert np.array_equal(tensor_load(dst), add_awgn(t, 10.0, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_noise_on_non_finite_input_exits_4(tmp_path, capsys, bad):
    src, dst = tmp_path / "a.dten", tmp_path / "b.dten"
    t = spectrum_decay_tensor(5, 1, 1.0)
    t[0, 1, 2] = bad
    tensor_save(t, src)
    assert run("noise", "--snr", 10.0, "--seed", 3, "-i", src, "-o", dst) == 4
    assert "NaN or Inf" in capsys.readouterr().err
    assert not dst.exists()


def test_decompose_svd_writes_expected_cores(tmp_path):
    src, dst = tmp_path / "a.dten", tmp_path / "a.ttc"
    t = np.random.default_rng(0).standard_normal((6, 6, 6))
    tensor_save(t, src)
    assert run("decompose", "--method", "svd", "--ranks", "3,3", "-i", src, "-o", dst) == 0
    tt = tt_load(dst)
    assert tt.ranks == (1, 3, 3, 1)
    want, _ = tt_svd(t, TruncationSpec(ranks=(3, 3)))
    assert all(np.array_equal(a, b) for a, b in zip(tt.cores, want.cores))


def test_decompose_randomized_flags_reach_config(tmp_path):
    src = tmp_path / "a.dten"
    t = spectrum_decay_tensor(10, 2, 1.0)
    tensor_save(t, src)
    out1, out2 = tmp_path / "1.ttc", tmp_path / "2.ttc"
    args = ["decompose", "--method", "rsvd", "--ranks", "3,3", "--p", "2",
            "--seed", "5", "-i", src, "-o"]
    assert run(*args, out1) == 0
    assert run(*args, out2, "--svd-truncate") == 0
    got = tt_load(out1)
    want, _ = tt_rsvd(t, SketchConfig(ranks=(3, 3), p=2, q=1, seed=5))
    assert all(np.array_equal(a, b) for a, b in zip(got.cores, want.cores))
    assert out1.read_bytes() == out2.read_bytes()  # --svd-truncate has no effect


def test_decompose_without_sketch_flags_writes_sketch_config_defaults(tmp_path):
    src = tmp_path / "a.dten"
    t = np.random.default_rng(3).standard_normal((6, 7, 8))
    tensor_save(t, src)
    for method, sweep in (("rsvd", tt_rsvd), ("rsi", tt_rsi), ("rbki", tt_rbki)):
        out = tmp_path / f"{method}.ttc"
        assert run("decompose", "--method", method, "--ranks", "3,3", "-i", src, "-o", out) == 0
        want, _ = sweep(t, SketchConfig(ranks=(3, 3)))
        assert all(np.array_equal(a, b) for a, b in zip(tt_load(out).cores, want.cores)), method


def test_decompose_is_deterministic_on_disk(tmp_path):
    src = tmp_path / "a.dten"
    tensor_save(np.random.default_rng(1).standard_normal((8, 8, 8)), src)
    out1, out2 = tmp_path / "1.ttc", tmp_path / "2.ttc"
    for out in (out1, out2):
        assert run("decompose", "--method", "rbki", "--ranks", "2,2", "--q", "2",
                   "--seed", "9", "-i", src, "-o", out) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_decompose_trace_payload(tmp_path):
    src, dst, tr = tmp_path / "a.dten", tmp_path / "a.ttc", tmp_path / "trace.json"
    tensor_save(np.random.default_rng(2).standard_normal((5, 6, 7)), src)
    assert run("decompose", "--method", "rsvd", "--ranks", "2,2", "-i", src,
               "-o", dst, "--trace", tr) == 0
    payload = json.loads(tr.read_text())
    assert len(payload["steps"]) == 2
    for i, step in enumerate(payload["steps"]):
        assert step["n"] == i
        assert step["rank"] == 2
        assert step["residual"] >= 0.0
        assert step["elapsed_s"] > 0.0
    assert payload["residual_sq_sum"] >= 0.0


def test_full_pipeline_round_trip(tmp_path, capsys):
    clean, ttc, recon = tmp_path / "c.dten", tmp_path / "c.ttc", tmp_path / "r.dten"
    assert run("synth", "spectrum", "--n", 20, "--T", 4, "--D", 1.0, "-o", clean) == 0
    assert run("decompose", "--method", "svd", "--ranks", "6,6", "-i", clean, "-o", ttc) == 0
    assert run("reconstruct", "-i", ttc, "-o", recon) == 0
    assert run("metrics", "--ref", clean, "--approx", recon) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("rel_err ") and out[1].startswith("psnr ")
    got_rel, got_psnr = float(out[0].split()[1]), float(out[1].split()[1])
    t = spectrum_decay_tensor(20, 4, 1.0)
    tt, _ = tt_svd(t, TruncationSpec(ranks=(6, 6)))
    want = tt_reconstruct(tt)
    assert abs(got_rel - relative_error(t, want)) <= 1e-12
    assert abs(got_psnr - psnr(t, want)) <= 1e-9


def test_metrics_identical_prints_inf(tmp_path, capsys):
    p = tmp_path / "a.dten"
    tensor_save(np.ones((3, 3)), p)
    assert run("metrics", "--ref", p, "--approx", p) == 0
    out = capsys.readouterr().out
    assert "psnr inf" in out


def test_bench_subcommand_csv_and_json(tmp_path):
    plan = {
        "dataset": {"kind": "spectrum", "n": 8, "T": 2, "D": 1.0},
        "methods": ["svd", "rsvd"],
        "ranks": [2, 3],
        "p": 1,
        "seeds": [0, 1],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    csv_out, json_out = tmp_path / "o.csv", tmp_path / "o.json"
    assert run("bench", "--plan", plan_path, "-o", csv_out) == 0
    assert run("bench", "--plan", plan_path, "-o", json_out, "--format", "json") == 0
    a = load_records(csv_out, "csv")
    b = load_records(json_out, "json")
    assert len(a) == 2 * 2 * 2
    for x, y in zip(a, b):  # separate runs, so only wall times may differ
        assert (x.method, x.ranks, x.seed, x.rel_err, x.psnr) == (
            y.method, y.ranks, y.seed, y.rel_err, y.psnr
        )


# ---------------- failure modes ----------------


def test_missing_input_exits_3(tmp_path):
    assert run("decompose", "--method", "svd", "--ranks", "2,2",
               "-i", tmp_path / "absent.dten", "-o", tmp_path / "o.ttc") == 3


def ttc_bytes(ranks, dims):
    """A .ttc with the given header and all-zero cores."""
    count = sum(ranks[n] * dims[n] * ranks[n + 1] for n in range(len(dims)))
    return (
        b"TTC1"
        + struct.pack("<I", len(dims))
        + np.asarray(ranks, dtype="<u8").tobytes()
        + np.asarray(dims, dtype="<u8").tobytes()
        + np.zeros(count).astype("<f8").tobytes()
    )


def test_corrupt_container_exits_3(tmp_path):
    bad = tmp_path / "bad.ttc"
    # truncated, bad boundary rank, zero rank, zero rank beside mode sizes
    # numpy cannot shape
    blobs = (
        b"TTC1\x02",
        ttc_bytes((2, 3, 1), (4, 4)),
        ttc_bytes((1, 0, 1), (4, 4)),
        ttc_bytes((0, 1), (2**64 - 1,)),
        ttc_bytes((0, 1), (2**62,)),
    )
    for blob in blobs:
        bad.write_bytes(blob)
        assert run("reconstruct", "-i", bad, "-o", tmp_path / "o.dten") == 3


def test_invalid_rank_string_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("decompose", "--method", "svd", "--ranks", "2,x",
            "-i", tmp_path / "a.dten", "-o", tmp_path / "o.ttc")
    assert exc.value.code == 2


def test_epsilon_and_ranks_together_exit_2(tmp_path):
    src = tmp_path / "a.dten"
    tensor_save(np.ones((3, 3, 3)), src)
    assert run("decompose", "--method", "svd", "--epsilon", 0.1, "--ranks", "2,2",
               "-i", src, "-o", tmp_path / "o.ttc") == 2


def test_epsilon_rejected_for_randomized(tmp_path):
    src = tmp_path / "a.dten"
    tensor_save(np.ones((3, 3, 3)), src)
    assert run("decompose", "--method", "rbki", "--epsilon", 0.1,
               "-i", src, "-o", tmp_path / "o.ttc") == 2
    assert run("decompose", "--method", "rsvd",
               "-i", src, "-o", tmp_path / "o.ttc") == 2  # needs --ranks


def test_non_finite_arguments_exit_2(tmp_path):
    src, dst = tmp_path / "a.dten", tmp_path / "b.dten"
    tensor_save(np.ones((4, 4, 4)), src)
    for bad in ("nan", "inf"):
        assert run("synth", "spectrum", "--n", 4, "--T", 1, "--D", bad, "-o", dst) == 2, bad
        assert run("synth", "powerfn", "--dims", "4,4", "--h", bad, "-o", dst) == 2, bad
        assert run("noise", "--snr", bad, "--seed", 0, "-i", src, "-o", dst) == 2, bad
        assert run("decompose", "--method", "svd", "--epsilon", bad,
                   "-i", src, "-o", tmp_path / "o.ttc") == 2, bad
    assert not dst.exists() and not (tmp_path / "o.ttc").exists()


def test_negative_seed_exits_2(tmp_path):
    src, dst = tmp_path / "a.dten", tmp_path / "b.dten"
    tensor_save(np.ones((4, 4, 4)), src)
    assert run("noise", "--snr", 10.0, "--seed", -3, "-i", src, "-o", dst) == 2
    for method in ("rsvd", "rsi", "rbki"):
        assert run("decompose", "--method", method, "--ranks", "2,2", "--seed", -1,
                   "-i", src, "-o", tmp_path / "o.ttc") == 2, method
    assert not dst.exists() and not (tmp_path / "o.ttc").exists()


def test_numerical_failure_exits_4(tmp_path):
    src = tmp_path / "nan.dten"
    t = np.ones((4, 4, 4))
    t[0, 0, 0] = np.nan
    tensor_save(t, src)
    for method in METHODS:  # every method rejects non-finite input
        assert run("decompose", "--method", method, "--ranks", "2,2",
                   "-i", src, "-o", tmp_path / "o.ttc") == 4, method
    assert not (tmp_path / "o.ttc").exists()


def test_zero_reference_metrics_exits_2(tmp_path):
    z, o = tmp_path / "z.dten", tmp_path / "o.dten"
    tensor_save(np.zeros((3, 3)), z)
    tensor_save(np.ones((3, 3)), o)
    assert run("metrics", "--ref", z, "--approx", o) == 2


def test_bad_plan_exits(tmp_path):
    missing = tmp_path / "absent.json"
    assert run("bench", "--plan", missing, "-o", tmp_path / "o.csv") == 3
    syntax = tmp_path / "syntax.json"
    syntax.write_text("{not json")
    assert run("bench", "--plan", syntax, "-o", tmp_path / "o.csv") == 3
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    assert run("bench", "--plan", binary, "-o", tmp_path / "o.csv") == 3
    good = {
        "dataset": {"kind": "spectrum", "n": 4, "T": 1, "D": 1.0},
        "methods": ["svd"], "ranks": [2], "seeds": [0],
    }
    bad_plans = [
        {**good, "typo": True},
        {**good, "dataset": {"kind": "powerfn", "dims": [4, 4]}},  # no h
        {**good, "p": "x"},
        {**good, "methods": "rsvd"},
        {**good, "q": 0},
        {**good, "snr_db": [float("nan")]},
        {**good, "dataset": {"kind": "powerfn", "dims": [4, 4], "h": float("nan")}},
        {**good, "dataset": {"kind": "powerfn", "dims": [4, 4, 4], "h": 2, "zzz": 3}},
        {**good, "svd_truncate": False},
    ]
    for plan in bad_plans:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(plan))
        assert run("bench", "--plan", path, "-o", tmp_path / "o.csv") == 2, plan
    assert not (tmp_path / "o.csv").exists()


def test_synth_too_big_to_index_exits_2(tmp_path, capsys):
    # 10^21 entries: refused before anything is allocated
    out = tmp_path / "x.dten"
    assert run("synth", "spectrum", "--n", 10**7, "--T", 2, "--D", 1.0, "-o", out) == 2
    assert "too big to index" in capsys.readouterr().err
    assert not out.exists()


def test_bench_dataset_too_big_to_index_exits_2(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "dataset": {"kind": "spectrum", "n": 10**7, "T": 2, "D": 1.0},
        "methods": ["rsvd"], "ranks": [2], "seeds": [0],
    }))
    assert run("bench", "--plan", plan, "-o", tmp_path / "o.csv") == 2
    assert "too big to index" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def no_memory(*args):
    """Fails as an allocation that does not fit would, so the tests that
    patch it in allocate nothing big."""
    raise MemoryError("Unable to allocate 74.5 GiB")


def test_synth_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "spectrum_decay_tensor", no_memory)
    out = tmp_path / "x.dten"
    assert run("synth", "spectrum", "--n", 4, "--T", 2, "--D", 1.0, "-o", out) == 2
    assert "error: out of memory: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    src, out = tmp_path / "a.ttc", tmp_path / "a.dten"
    tt_save(tt_svd(np.ones((3, 3, 3)), TruncationSpec(ranks=(1, 1)))[0], src)
    monkeypatch.setattr(cli, "tt_reconstruct", no_memory)
    assert run("reconstruct", "-i", src, "-o", out) == 2
    assert "error: out of memory: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    out = tmp_path / "t.dten"
    assert run("synth", "powerfn", "--dims", "3,4", "--h", 2.0, "-o", out) == 0
    n_built = len(built)
    assert n_built > 1  # the top-level parser and its subcommands
    assert run("synth", "spectrum", "--n", 3, "--T", 1, "--D", 1.0, "-o", out) == 0
    assert len(built) == n_built
    # the shared parser still rejects bad arguments with usage and exit 2,
    # and parses the next command afterwards
    with pytest.raises(SystemExit) as exc:
        run("decompose", "--method", "nope", "-i", out, "-o", tmp_path / "o.ttc")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ttapprox decompose") and "invalid choice" in err
    assert run("synth", "powerfn", "--dims", "3,4", "--h", 2.0, "-o", out) == 0
    assert len(built) == n_built


def test_noise_beyond_float64_snr_range(tmp_path, capsys):
    src, dst = tmp_path / "a.dten", tmp_path / "b.dten"
    t = np.arange(1.0, 13.0).reshape(3, 4)
    tensor_save(t, src)
    # +4000 dB: the noise level underflows, so no noise is added
    assert run("noise", "--snr", 4000, "--seed", 1, "-i", src, "-o", dst) == 0
    assert np.array_equal(tensor_load(dst), t)
    # -4000 dB: the noise is past float64's range
    dst.unlink()
    assert run("noise", "--snr", -4000, "--seed", 1, "-i", src, "-o", dst) == 2
    assert "past float64's range" in capsys.readouterr().err
    assert not dst.exists()


def test_bench_beyond_float64_snr_range(tmp_path, capsys):
    plan = {
        "dataset": {"kind": "powerfn", "dims": [4, 5, 6], "h": 2.0},
        "methods": ["svd", "rsvd"], "ranks": [2], "seeds": [0], "snr_db": 4000,
    }
    path, out = tmp_path / "plan.json", tmp_path / "o.json"
    path.write_text(json.dumps(plan))
    assert run("bench", "--plan", path, "-o", out, "--format", "json") == 0
    clean = {**plan, "snr_db": None}
    path.write_text(json.dumps(clean))
    assert run("bench", "--plan", path, "-o", tmp_path / "c.json", "--format", "json") == 0
    noisy, base = load_records(out, "json"), load_records(tmp_path / "c.json", "json")
    assert [r.rel_err for r in noisy] == [r.rel_err for r in base]
    path.write_text(json.dumps({**plan, "snr_db": -4000}))
    out.unlink()
    assert run("bench", "--plan", path, "-o", out) == 2
    assert "past float64's range" in capsys.readouterr().err
    assert not out.exists()
