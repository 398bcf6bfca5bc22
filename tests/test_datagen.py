import struct

import numpy as np
import pytest

from ttapprox import (
    InvalidArgumentError,
    ParseError,
    add_awgn,
    power_function_tensor,
    spectrum_decay_tensor,
    tensor_load,
    tensor_save,
)


# ---------------- spectrum_decay_tensor ----------------


def test_spectrum_n3_plateau1():
    t = spectrum_decay_tensor(3, 1, 1.0)
    assert t.shape == (3, 3, 3)
    for j in range(3):  # T=1 makes every slice identical
        np.testing.assert_allclose(np.diag(t[:, :, j]), [1.0, 0.1, 0.01], rtol=1e-15)


def test_spectrum_plateau_grows_with_slice():
    t = spectrum_decay_tensor(2, 2, 1.0)
    np.testing.assert_allclose(np.diag(t[:, :, 0]), [1.0, 0.1], rtol=1e-15)
    np.testing.assert_allclose(np.diag(t[:, :, 1]), [1.0, 1.0], rtol=0)


def test_spectrum_slices_are_diagonal():
    t = spectrum_decay_tensor(6, 2, 0.5)
    for j in range(6):
        s = t[:, :, j]
        assert np.count_nonzero(s - np.diag(np.diag(s))) == 0


def test_spectrum_singular_values_read_off_diagonal():
    t = spectrum_decay_tensor(100, 20, 1.0)
    for j in (0, 19, 49, 99):
        s = t[:, :, j]
        want = np.diag(s)  # already sorted: ones then decaying
        got = np.linalg.svd(s, compute_uv=False)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.count_nonzero(want == 1.0) == min(20, j + 1)


def test_spectrum_decay_rate():
    t = spectrum_decay_tensor(5, 1, 2.0)
    np.testing.assert_allclose(
        np.diag(t[:, :, 0]), [1.0, 1e-2, 1e-4, 1e-6, 1e-8], rtol=1e-15
    )


def test_spectrum_argument_errors():
    bad_args = (
        (0, 1, 1.0), (3, 0, 1.0), (3, 1, 0.0), (3, 1, -1.0), (3, 1, np.nan), (3, 1, np.inf)
    )
    for bad in bad_args:
        with pytest.raises(InvalidArgumentError):
            spectrum_decay_tensor(*bad)


def test_spectrum_n_must_be_an_integer():
    # a float n raised numpy's TypeError
    with pytest.raises(InvalidArgumentError, match="n must be an integer >= 1"):
        spectrum_decay_tensor(2.5, 1, 1.0)
    assert np.array_equal(spectrum_decay_tensor(np.int64(3), 1, 1.0), spectrum_decay_tensor(3, 1, 1.0))


def test_spectrum_t_must_be_an_integer_not_a_bool():
    # True was taken as T = 1
    with pytest.raises(InvalidArgumentError, match="T must be an integer >= 1"):
        spectrum_decay_tensor(3, True, 1.0)
    assert np.array_equal(spectrum_decay_tensor(3, np.int32(2), 1.0), spectrum_decay_tensor(3, 2, 1.0))


# ---------------- power_function_tensor ----------------


def test_powerfn_corner_entry():
    t = power_function_tensor((2,) * 5, 5.0)
    assert abs(t[0, 0, 0, 0, 0] - 5.0 ** (-1.0 / 5.0)) <= 1e-15


def test_powerfn_single_mode_is_reciprocal():
    t = power_function_tensor((6,), 3.0)
    np.testing.assert_allclose(t, 1.0 / np.arange(1.0, 7.0), rtol=1e-12)


def test_powerfn_monotone_and_symmetric():
    t = power_function_tensor((4, 4, 4), 2.0)
    assert np.all(np.diff(t, axis=0) < 0)
    assert np.all(np.diff(t, axis=1) < 0)
    assert np.array_equal(t, np.transpose(t, (1, 0, 2)))
    assert np.array_equal(t, np.transpose(t, (2, 1, 0)))


def test_powerfn_matches_looped_sums_bitexact():
    # accumulate i_k^h in mode order with scalar arithmetic, then apply
    # the same elementwise power; numpy's vectorized pow can differ from
    # scalar pow by one ulp, the summation itself must not
    dims, h = (4, 3, 5, 2, 3), 5.0
    sums = np.empty(dims)
    for idx in np.ndindex(*dims):
        acc = np.float64(idx[0] + 1) ** np.float64(h)
        for v in idx[1:]:
            acc = acc + np.float64(v + 1) ** np.float64(h)
        sums[idx] = acc
    want = sums ** (-1.0 / h)
    got = power_function_tensor(dims, h)
    assert np.array_equal(got, want)


def test_powerfn_sampled_entries_scalar_oracle():
    dims, h = (20,) * 5, 5.0
    t = power_function_tensor(dims, h)
    rng = np.random.default_rng(0)
    idxs = [tuple(rng.integers(0, 20, 5)) for _ in range(50)]
    got = np.array([t[i] for i in idxs])
    want = np.array([sum(float(v + 1) ** h for v in i) ** (-1.0 / h) for i in idxs])
    np.testing.assert_array_max_ulp(got, want, maxulp=1)


def test_powerfn_argument_errors():
    with pytest.raises(InvalidArgumentError):
        power_function_tensor((), 2.0)
    with pytest.raises(InvalidArgumentError):
        power_function_tensor((3, 0), 2.0)
    for h in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidArgumentError):
            power_function_tensor((3, 3), h)


def test_powerfn_dims_must_be_integers():
    # int() truncated 2.7 to a mode of size 2
    with pytest.raises(InvalidArgumentError, match="dims must be an integer >= 1"):
        power_function_tensor((2.7, 2), 1.0)
    assert power_function_tensor(np.array([2, 3]), 1.0).shape == (2, 3)


# ---------------- add_awgn ----------------


def test_awgn_high_snr_barely_perturbs():
    t = power_function_tensor((10, 10, 10), 3.0)
    noisy = add_awgn(t, 300.0, 0)
    assert np.linalg.norm(noisy - t) / np.linalg.norm(t) <= 1e-10
    assert not np.array_equal(noisy, t)


def test_awgn_deterministic_per_seed():
    t = np.ones((5, 5))
    assert np.array_equal(add_awgn(t, 10.0, 3), add_awgn(t, 10.0, 3))
    assert not np.array_equal(add_awgn(t, 10.0, 3), add_awgn(t, 10.0, 4))


def test_awgn_empirical_snr():
    t = power_function_tensor((100, 100, 100), 3.0)
    noisy = add_awgn(t, 5.0, 42)
    noise = noisy - t
    snr = 10.0 * np.log10(np.sum(t**2) / np.sum(noise**2))
    assert abs(snr - 5.0) <= 0.1


@pytest.mark.parametrize("j", [600, -600])
def test_awgn_is_exactly_scale_equivariant(j):
    # far outside the range whose squares float64 holds (entries near
    # 1e+-180), the noise is 2^j times the noise of the unscaled tensor
    rng = np.random.default_rng(21)
    for t in (rng.standard_normal((6, 7, 8)), np.ones((4, 5)), power_function_tensor((9, 8, 7), 2.0)):
        for snr in (-3.0, 5.0, 20.0):
            got = add_awgn(np.ldexp(t, j), snr, 7)
            assert np.array_equal(got, np.ldexp(add_awgn(t, snr, 7), j))
            assert got.flags.f_contiguous


def test_awgn_in_range_keeps_its_formula():
    # in range the noise is sigma * N(0, 1) in column-major order, with
    # sigma^2 = sum(t^2) / numel / 10^(snr / 10) summed by np.sum, bit for bit
    rng = np.random.default_rng(22)
    for t in (rng.standard_normal((6, 7, 8)), np.ascontiguousarray(power_function_tensor((9, 8, 7), 2.0)),
              1e-70 * np.ones((3, 4)), 1e70 * rng.standard_normal((5, 3))):
        for snr in (-3.0, 5.0, 20.0):
            sigma = np.sqrt(float(np.sum(t**2)) / t.size / 10.0 ** (snr / 10.0))
            noise = np.random.default_rng(3).standard_normal(t.size).reshape(t.shape, order="F")
            assert np.array_equal(add_awgn(t, snr, 3), np.add(t, sigma * noise, order="F"))


def test_awgn_zero_signal_rejected():
    with pytest.raises(InvalidArgumentError):
        add_awgn(np.zeros((3, 3)), 10.0, 0)
    # an empty tensor has no power either
    with pytest.raises(InvalidArgumentError, match="signal power is zero"):
        add_awgn(np.zeros((0, 3)), 10.0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_awgn_non_finite_input_rejected(bad):
    # the sweeps' error, from the power sum: no NaN tensor, no warning
    t = np.ones((3, 4, 5))
    t[1, 2, 3] = bad
    with pytest.raises(FloatingPointError, match="input tensor has NaN or Inf entries"):
        add_awgn(t, 10.0, 0)


def test_awgn_negative_seed_rejected():
    with pytest.raises(InvalidArgumentError, match="seed must be an integer >= 0"):
        add_awgn(np.ones((3, 3)), 10.0, -3)
    # the seed is an integer: a bool is not taken as 1, a float is no seed
    for bad in (True, 1.5, "1"):
        with pytest.raises(InvalidArgumentError, match="seed must be an integer >= 0"):
            add_awgn(np.ones((3, 3)), 5.0, bad)
    t = np.ones((3, 3))
    assert np.array_equal(add_awgn(t, 5.0, np.int64(1)), add_awgn(t, 5.0, 1))


def test_awgn_non_finite_snr_rejected():
    for snr in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidArgumentError):
            add_awgn(np.ones((3, 3)), snr, 0)


def test_awgn_snr_beyond_float64_range():
    # 10^(snr_db/10) overflows near +3083 dB and underflows near -3234 dB;
    # the noise itself leaves float64's range near -3083 dB on this tensor
    t = np.arange(1.0, 13.0).reshape(3, 4)
    for snr in (3082.0, 3084.0, 4000.0, 1e300):
        assert np.array_equal(add_awgn(t, snr, 0), t)
    assert np.all(np.isfinite(add_awgn(t, -3000.0, 0)))
    for snr in (-3100.0, -3200.0, -3300.0, -4000.0, -1e300):
        with pytest.raises(InvalidArgumentError, match="past float64's range"):
            add_awgn(t, snr, 0)
    # at a huge scale sigma (1.4e308 here) can be finite while sigma * noise is not
    with pytest.raises(InvalidArgumentError, match="past float64's range"):
        add_awgn(np.full((3, 4), 1e300), -163.0, 0)


# ---------------- .dten container ----------------


def test_dten_round_trip(tmp_path):
    t = np.random.default_rng(1).standard_normal((3, 4, 2, 5))
    path = tmp_path / "t.dten"
    tensor_save(t, path)
    back = tensor_load(path)
    assert back.shape == t.shape
    assert np.array_equal(back, t)


def test_dten_payload_is_column_major(tmp_path):
    path = tmp_path / "t.dten"
    payload = struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    blob = b"DTEN" + struct.pack("<BI", 1, 2) + struct.pack("<2Q", 2, 2) + payload
    path.write_bytes(blob)
    t = tensor_load(path)
    assert np.array_equal(t, np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_dten_bad_magic(tmp_path):
    path = tmp_path / "t.dten"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ParseError) as exc:
        tensor_load(path)
    assert exc.value.offset == 0


def test_dten_truncation_reports_offset(tmp_path):
    t = np.arange(24.0).reshape(2, 3, 4)
    path = tmp_path / "t.dten"
    tensor_save(t, path)
    blob = path.read_bytes()
    for cut in (3, 4, 7, 20, len(blob) - 8):
        path.write_bytes(blob[:cut])
        with pytest.raises(ParseError) as exc:
            tensor_load(path)
        assert exc.value.offset is not None
    # trailing garbage is also an error
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ParseError):
        tensor_load(path)


def test_dten_unsupported_version(tmp_path):
    path = tmp_path / "t.dten"
    blob = b"DTEN" + struct.pack("<BI", 9, 1) + struct.pack("<Q", 1) + struct.pack("<d", 0.0)
    path.write_bytes(blob)
    with pytest.raises(ParseError) as exc:
        tensor_load(path)
    assert exc.value.offset == 4


def test_dten_zero_mode_size_reports_its_offset(tmp_path):
    path = tmp_path / "t.dten"
    for dims, offset in (((0, 3, 2), 9), ((3, 0, 2), 17), ((3, 2, 0), 25)):
        path.write_bytes(b"DTEN" + struct.pack("<BI", 1, 3) + struct.pack("<3Q", *dims))
        with pytest.raises(ParseError, match="zero mode size") as exc:
            tensor_load(path)
        assert exc.value.offset == offset
