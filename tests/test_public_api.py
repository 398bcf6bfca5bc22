"""The package's public surface: every export is a deliberate choice."""

import os
import subprocess
import sys

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


def test_import_loads_numpy_and_the_standard_library_only():
    # numpy is the package's one dependency (pyproject.toml); a fresh
    # interpreter's import of ttapprox must load no other top-level module
    code = (
        "import sys; before = set(sys.modules); import ttapprox; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    src = os.path.dirname(os.path.dirname(ttapprox.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "ttapprox" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "ttapprox"} == set()
