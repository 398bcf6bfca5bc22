import numpy as np
import pytest

from ttapprox import (
    InvalidArgumentError,
    ParseError,
    TTTensor,
    TruncationSpec,
    frobenius_norm,
    tt_load,
    tt_reconstruct,
    tt_save,
    tt_svd,
    validate,
)


def random_tt(dims, ranks, seed=0):
    rng = np.random.default_rng(seed)
    chain = (1,) + tuple(ranks) + (1,)
    return TTTensor(
        [rng.standard_normal((chain[i], d, chain[i + 1])) for i, d in enumerate(dims)]
    )


def test_properties_and_param_count():
    tt = random_tt((5, 6, 7), (3, 4))
    assert tt.dims == (5, 6, 7)
    assert tt.ranks == (1, 3, 4, 1)


def test_reconstruct_single_core():
    v = np.arange(1.0, 6.0)
    tt = TTTensor([v.reshape(1, 5, 1)])
    out = tt_reconstruct(tt)
    assert out.shape == (5,)
    assert np.array_equal(out, v)


def test_reconstruct_outer_product():
    rng = np.random.default_rng(1)
    u, v, w = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
    tt = TTTensor([u.reshape(1, 3, 1), v.reshape(1, 4, 1), w.reshape(1, 5, 1)])
    out = tt_reconstruct(tt)
    for i in range(3):
        for j in range(4):
            for k in range(5):
                assert abs(out[i, j, k] - u[i] * v[j] * w[k]) <= 1e-12


def test_reconstruct_full_rank_round_trip():
    t = np.random.default_rng(2).standard_normal((4, 4, 4))
    tt, _ = tt_svd(t, TruncationSpec(ranks=(4, 4)))
    err = frobenius_norm(t - tt_reconstruct(tt))
    assert err <= 1e-10 * frobenius_norm(t)


def test_reconstruct_rejects_broken_chains():
    rng = np.random.default_rng(3)
    bad_adj = TTTensor([rng.standard_normal((1, 3, 2)), rng.standard_normal((3, 3, 1))])
    with pytest.raises(InvalidArgumentError):
        tt_reconstruct(bad_adj)
    bad_boundary = TTTensor(
        [rng.standard_normal((2, 3, 2)), rng.standard_normal((2, 3, 1))]
    )
    with pytest.raises(InvalidArgumentError):
        tt_reconstruct(bad_boundary)


def test_validate_good_tt():
    t = np.random.default_rng(4).standard_normal((5, 5, 5))
    tt, _ = tt_svd(t, TruncationSpec(ranks=(3, 3)))
    rep = validate(tt)
    assert rep.ok and rep.boundary_ok and rep.adjacency_ok
    assert all(r <= 1e-10 for r in rep.orth_residuals)


def test_validate_flags_boundary():
    rng = np.random.default_rng(5)
    tt = TTTensor([rng.standard_normal((2, 3, 2)), rng.standard_normal((2, 3, 1))])
    rep = validate(tt)
    assert not rep.boundary_ok
    assert not rep.ok


def test_validate_reports_scaled_core_residual():
    t = np.random.default_rng(6).standard_normal((5, 5, 5))
    tt, _ = tt_svd(t, TruncationSpec(ranks=(3, 3)))
    scaled = TTTensor([2.0 * tt.cores[0], tt.cores[1], tt.cores[2]])
    rep = validate(scaled)
    assert abs(rep.orth_residuals[0] - 3.0) <= 1e-8  # max|4I - I|
    assert rep.orth_residuals[1] <= 1e-10


def test_reconstruct_linearity_per_core():
    tt = random_tt((3, 4, 5), (2, 3), seed=7)
    base = tt_reconstruct(tt)
    for n in range(3):
        cores = list(tt.cores)
        cores[n] = 2.5 * cores[n]
        out = tt_reconstruct(TTTensor(cores))
        assert np.linalg.norm(out - 2.5 * base) <= 1e-12 * np.linalg.norm(base)


def test_norm_equals_last_core_when_left_orthogonal():
    t = np.random.default_rng(8).standard_normal((6, 6, 6))
    tt, _ = tt_svd(t, TruncationSpec(ranks=(4, 4)))
    rec_norm = frobenius_norm(tt_reconstruct(tt))
    last_norm = frobenius_norm(tt.cores[-1])
    assert abs(rec_norm - last_norm) <= 1e-10 * last_norm


def test_save_load_round_trip(tmp_path):
    tt = random_tt((5, 6, 7), (3, 4), seed=9)
    path = tmp_path / "x.ttc"
    tt_save(tt, path)
    back = tt_load(path)
    assert len(back.cores) == 3
    for a, b in zip(tt.cores, back.cores):
        assert np.array_equal(a, b)


def test_load_truncated_file(tmp_path):
    tt = random_tt((4, 4), (2,), seed=10)
    path = tmp_path / "x.ttc"
    tt_save(tt, path)
    data = path.read_bytes()
    for cut in (2, 6, 20, len(data) - 5):
        (tmp_path / "cut.ttc").write_bytes(data[:cut])
        with pytest.raises(ParseError):
            tt_load(tmp_path / "cut.ttc")


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.ttc"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ParseError) as exc:
        tt_load(path)
    assert exc.value.offset == 0


def test_load_bad_boundary_rank_names_core(tmp_path):
    import struct

    ranks = (2, 3, 1)
    dims = (4, 4)
    payload = b"".join(
        np.zeros(ranks[i] * dims[i] * ranks[i + 1]).astype("<f8").tobytes()
        for i in range(2)
    )
    blob = (
        b"TTC1"
        + struct.pack("<I", 2)
        + np.asarray(ranks, dtype="<u8").tobytes()
        + np.asarray(dims, dtype="<u8").tobytes()
        + payload
    )
    path = tmp_path / "badrank.ttc"
    path.write_bytes(blob)
    with pytest.raises(ParseError) as exc:
        tt_load(path)
    assert "core 0" in str(exc.value)


def test_load_trailing_bytes(tmp_path):
    tt = random_tt((3, 3), (2,), seed=11)
    path = tmp_path / "x.ttc"
    tt_save(tt, path)
    (tmp_path / "extra.ttc").write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ParseError):
        tt_load(tmp_path / "extra.ttc")


def test_reconstruct_save_and_load_check_the_chain_alone(monkeypatch, tmp_path):
    # tt_reconstruct, tt_save and tt_load check the rank chain and nothing
    # else: they accept non-orthogonal cores without forming any core's
    # Gram, and reject a broken chain with validate's first problem and
    # the error type each raised before (ParseError for a file)
    from ttapprox import tt as tt_module

    good = random_tt((4, 5, 6), (3, 2), seed=12)
    assert not validate(good).left_orthogonal
    rng = np.random.default_rng(13)
    broken = [
        TTTensor([rng.standard_normal((1, 3, 2)), rng.standard_normal((3, 3, 1))]),
        TTTensor([rng.standard_normal((2, 3, 2)), rng.standard_normal((2, 3, 1))]),
        TTTensor([rng.standard_normal((1, 3, 2)), np.zeros((2, 0, 1))]),
    ]
    problems = [validate(tt).problems[0] for tt in broken]
    assert problems == [
        "core 0 has trailing rank 2 but core 1 expects 3",
        "core 0 has boundary rank 2, expected 1",
        "core 1 has a zero rank or mode size",
    ]
    # a .ttc table shares each rank between two cores, so only a boundary
    # rank can break a chain read from a file
    bad_file = tmp_path / "boundary.ttc"
    tt_module._TTC.write(bad_file, 2, broken[1].ranks + broken[1].dims, broken[1].cores)

    monkeypatch.setattr(tt_module, "validate", lambda tt: pytest.fail("validate called"))
    path = tmp_path / "good.ttc"
    tt_save(good, path)
    assert tt_load(path) == good
    assert tt_reconstruct(good).shape == (4, 5, 6)
    for tt, problem in zip(broken, problems):
        for fn in (tt_reconstruct, lambda tt: tt_save(tt, tmp_path / "x.ttc")):
            with pytest.raises(InvalidArgumentError) as exc:
                fn(tt)
            assert str(exc.value) == problem
    assert not (tmp_path / "x.ttc").exists()
    with pytest.raises(ParseError) as exc:
        tt_load(bad_file)
    assert str(exc.value) == problems[1]
