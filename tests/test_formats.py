"""The container behind ".dten" and ".ttc": ParseError with an in-file
offset for every cut and every corrupt head, count or table byte, a bad
magic rejected without reading the file, a writer that refuses what the
reader rejects, and the documented byte layout.  The round trips are
property tests in test_properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttapprox import (
    InvalidArgumentError,
    ParseError,
    TTTensor,
    tensor_load,
    tensor_save,
    tt_load,
    tt_save,
)

dims_st = st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple)


@st.composite
def tt_st(draw, max_dim=4, max_rank=4):
    dims = draw(st.lists(st.integers(1, max_dim), min_size=1, max_size=6))
    chain = [1] + draw(st.lists(st.integers(1, max_rank), min_size=len(dims) - 1, max_size=len(dims) - 1)) + [1]
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    return TTTensor([rng.standard_normal((chain[n], d, chain[n + 1])) for n, d in enumerate(dims)])


def _rejected(path, blob, load):
    """load(path) on blob raises ParseError with an offset inside the file."""
    path.write_bytes(blob)
    with pytest.raises(ParseError) as exc:
        load(path)
    assert exc.value.offset is not None and 0 <= exc.value.offset <= len(blob), exc.value


def _dten_blob(path, dims, seed):
    tensor_save(np.random.default_rng(seed).standard_normal(dims), path)
    return path.read_bytes(), 9 + 8 * len(dims)  # the file, and its head, count and table bytes


def _ttc_blob(path, tt):
    tt_save(tt, path)
    return path.read_bytes(), 8 + 8 * (2 * tt.order + 1)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple), seed=st.integers(0, 99))
def test_every_cut_of_a_dten_is_a_parse_error(tmp_path_factory, dims, seed):
    path = tmp_path_factory.mktemp("cut") / "t.dten"
    blob, _ = _dten_blob(path, dims, seed)
    for cut in range(len(blob)):
        _rejected(path, blob[:cut], tensor_load)
    _rejected(path, blob + b"\0", tensor_load)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(tt=tt_st(max_dim=3, max_rank=2))
def test_every_cut_of_a_ttc_is_a_parse_error(tmp_path_factory, tt):
    path = tmp_path_factory.mktemp("cut") / "t.ttc"
    blob, _ = _ttc_blob(path, tt)
    for cut in range(len(blob)):
        _rejected(path, blob[:cut], tt_load)
    _rejected(path, blob + b"\0", tt_load)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(dims=dims_st, seed=st.integers(0, 99), mask=st.integers(1, 255))
def test_every_corrupt_dten_head_byte_is_a_parse_error(tmp_path_factory, dims, seed, mask):
    path = tmp_path_factory.mktemp("bad") / "t.dten"
    blob, head = _dten_blob(path, dims, seed)
    for i in range(head):
        bad = bytearray(blob)
        bad[i] ^= mask
        _rejected(path, bytes(bad), tensor_load)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(tt=tt_st(), mask=st.integers(1, 255))
def test_every_corrupt_ttc_head_byte_is_a_parse_error(tmp_path_factory, tt, mask):
    path = tmp_path_factory.mktemp("bad") / "t.ttc"
    blob, head = _ttc_blob(path, tt)
    for i in range(head):
        bad = bytearray(blob)
        bad[i] ^= mask
        _rejected(path, bytes(bad), tt_load)


@pytest.mark.parametrize("load", [tt_load, tensor_load])
def test_bad_magic_is_rejected_without_reading_the_file(tmp_path, load):
    path = tmp_path / "big.bin"
    with open(path, "wb") as f:
        f.write(b"NOPE")
        f.truncate(64 << 20)  # 64 MB, sparse where the file system allows
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.offset == 0
    assert peak < 1 << 20


@pytest.mark.parametrize("t", [np.float64(2.0), np.array(2.0), np.zeros((0, 3)), np.ones((3, 0, 2))])
def test_tensor_save_refuses_what_tensor_load_rejects(tmp_path, t):
    path = tmp_path / "t.dten"
    with pytest.raises(InvalidArgumentError):
        tensor_save(t, path)
    assert not path.exists()


def test_tt_save_writes_the_documented_layout(tmp_path):
    rng = np.random.default_rng(5)
    cores = [rng.standard_normal((1, 3, 2)), np.ascontiguousarray(rng.standard_normal((2, 4, 1)))]
    path = tmp_path / "t.ttc"
    tt_save(TTTensor(cores), path)
    want = (
        b"TTC1"
        + (2).to_bytes(4, "little")
        + np.asarray([1, 2, 1, 3, 4], "<u8").tobytes()
        + b"".join(c.astype("<f8").tobytes(order="F") for c in cores)
    )
    assert path.read_bytes() == want
