"""Dense tensor-train approximation toolkit.

Four left-to-right TT decomposition sweeps (deterministic SVD, Gaussian
sketch, power iteration, block Krylov), the TT format they produce,
synthetic data generators with calibrated noise, quality metrics and a
benchmark harness.
"""

from .bench import BenchPlan, BenchRecord, emit, load_records, run_bench
from .datagen import add_awgn, power_function_tensor, spectrum_decay_tensor, tensor_load, tensor_save
from .decompose import (
    SketchConfig,
    SweepStep,
    SweepTrace,
    TruncationSpec,
    bound_factors,
    tt_rbki,
    tt_rsi,
    tt_rsvd,
    tt_svd,
)
from .errors import InvalidArgumentError, ParseError
from .linalg import gaussian_matrix
from .metrics import frobenius_norm, psnr, relative_error
from .tt import TTTensor, num_params, tt_load, tt_reconstruct, tt_save, validate

__version__ = "0.1.0"

__all__ = [
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
    "bound_factors",
    "emit",
    "frobenius_norm",
    "gaussian_matrix",
    "load_records",
    "num_params",
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
