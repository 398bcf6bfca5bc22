"""The package's public surface: every export is a deliberate choice."""

import ttapprox

PUBLIC = [
    "BenchPlan",
    "BenchRecord",
    "InvalidArgumentError",
    "ParseError",
    "SketchConfig",
    "SweepStep",
    "SweepTrace",
    "TTTensor",
    "TruncationSpec",
    "add_awgn",
    "emit",
    "error_metrics",
    "frobenius_norm",
    "gaussian_matrix",
    "load_records",
    "power_function_tensor",
    "psnr",
    "relative_error",
    "run_bench",
    "spectrum_decay_tensor",
    "tensor_load",
    "tensor_save",
    "tt_load",
    "tt_rbki",
    "tt_reconstruct",
    "tt_rsi",
    "tt_rsvd",
    "tt_save",
    "tt_svd",
    "validate",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(ttapprox.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(ttapprox, name) is not None, name
