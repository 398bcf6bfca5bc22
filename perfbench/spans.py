"""Span recording for the traced benchmark run.

The tracer replaces public functions at the module attribute each caller
looks up (``ttapprox.bench.tt_svd`` is what ``run_bench`` calls, not
``ttapprox.decompose.tt_svd``) with a wrapper that records one span per
call: name, start, end, parent span and pass id.  Spans stay in memory
and are written out when the run ends.  No source file of the program is
touched, and the wrappers are installed only around traced passes.

Per-layer metrics are computed from the spans of one pass plus a few
counters that hooks derive from the wrapped call's arguments and result
(flop and byte counts from matrix shapes, fields of the returned sweep
trace, bench record counts).  Flop and byte counts are computed from
shapes, not measured.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from collections import defaultdict

# layer of each wrapped function, by its name at the call sites
HOME = {
    "main": "cli",
    "build_parser": "cli",
    "run_bench": "bench",
    "emit": "bench",
    "add_awgn": "datagen",
    "power_function_tensor": "datagen",
    "spectrum_decay_tensor": "datagen",
    "tensor_load": "datagen",
    "tensor_save": "datagen",
    "tt_svd": "decompose",
    "tt_rsvd": "decompose",
    "tt_rsi": "decompose",
    "tt_rbki": "decompose",
    "relative_error": "metrics",
    "psnr": "metrics",
    "tt_load": "tt",
    "tt_reconstruct": "tt",
    "tt_save": "tt",
    "svd": "linalg",
    "economy_qr": "linalg",
    "gaussian_matrix": "linalg",
    "block_krylov_basis": "linalg",
}

# module -> attributes wrapped there; every call on a pipeline path goes
# through exactly one of these sites
SITES = {
    "ttapprox.cli": (
        "main", "build_parser", "run_bench", "emit", "add_awgn",
        "power_function_tensor", "spectrum_decay_tensor", "tensor_load",
        "tensor_save", "tt_svd", "tt_rsvd", "tt_rsi", "tt_rbki",
        "relative_error", "psnr", "tt_load", "tt_reconstruct", "tt_save",
    ),
    "ttapprox.bench": (
        "add_awgn", "power_function_tensor", "spectrum_decay_tensor",
        "tensor_load", "tt_svd", "tt_rsvd", "tt_rsi", "tt_rbki",
        "relative_error", "psnr", "tt_reconstruct",
    ),
    "ttapprox.decompose": ("svd", "economy_qr", "gaussian_matrix", "block_krylov_basis"),
    "ttapprox.linalg": ("economy_qr",),
}

FUNCTIONS = sorted({f"{HOME[a]}.{a}" for attrs in SITES.values() for a in attrs})
METHODS = ("svd", "rsvd", "rsi", "rbki")

# (name, unit) of every per-layer metric beyond calls / s / self_s
EXTRA_METRICS = (
    [
        ("linalg.svd.flops", "flop"),
        ("linalg.svd.bytes", "B"),
        ("linalg.economy_qr.flops", "flop"),
        ("linalg.economy_qr.bytes", "B"),
        ("linalg.gaussian_matrix.draws", "count"),
        ("linalg.gaussian_matrix.bytes", "B"),
        ("linalg.block_krylov_basis.flops", "flop"),
        ("linalg.block_krylov_basis.bytes", "B"),
        ("linalg.block_krylov_basis.kept_ratio", "ratio"),
    ]
    + [(f"decompose.tt_{m}.{k}", "s") for m in METHODS for k in ("step_s", "untimed_s")]
    + [
        ("decompose.padded_cols", "count"),
        ("decompose.clamped_steps", "count"),
        ("bench.cells", "count"),
        ("bench.cells_failed", "count"),
        ("bench.svd_unique_ratio", "ratio"),
        ("datagen.add_awgn.bytes", "B"),
        ("datagen.tensor_save.bytes", "B"),
        ("datagen.tensor_load.bytes", "B"),
        ("tt.tt_save.bytes", "B"),
        ("tt.tt_load.bytes", "B"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_s", "s"),
        ("blas.threads", "count"),
        ("blas.single_thread_run_s", "s"),
        ("blas.single_thread_rel_err_match", "bool"),
        ("blas.single_thread_rel_err_maxdev", "ratio"),
        ("failed_frac", "ratio"),
    ]
)


def per_layer_spec():
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for f in FUNCTIONS:
        spec += [(f"{f}.calls", "count"), (f"{f}.s", "s"), (f"{f}.self_s", "s")]
    return spec + EXTRA_METRICS


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _qr_flops(m, n):
    """Householder QR (LAPACK geqrf) plus forming the economy Q (orgqr),
    operation counts from LAPACK Working Note 41."""
    k = min(m, n)
    geqrf = 2 * m * n * k - (m + n) * k * k + 2 * k**3 / 3
    orgqr = 2 * m * k * k - 2 * k**3 / 3
    return geqrf + orgqr


def _svd_flops(m, n):
    """Thin SVD with U and V, R-SVD count from Golub & Van Loan (4th ed.,
    Fig. 8.6.1): 6 M k^2 + 20 k^3 with M the long and k the short side."""
    big, k = max(m, n), min(m, n)
    return 6 * big * k * k + 20 * k**3


def _hook_svd(c, args, kwargs, result):
    m, n = args[0].shape
    k = min(m, n)
    c["linalg.svd.flops"] += _svd_flops(m, n)
    c["linalg.svd.bytes"] += 8 * (m * n + m * k + k + n * k)


def _hook_qr(c, args, kwargs, result):
    m, n = args[0].shape
    k = min(m, n)
    c["linalg.economy_qr.flops"] += _qr_flops(m, n)
    c["linalg.economy_qr.bytes"] += 8 * (m * n + m * k + k * n)


def _hook_gaussian(c, args, kwargs, result):
    c["linalg.gaussian_matrix.draws"] += result.size
    c["linalg.gaussian_matrix.bytes"] += result.nbytes


def _hook_krylov(c, args, kwargs, result):
    m, n = args[0].shape
    w = args[1].shape[1]
    q = _arg(args, kwargs, 2, "q")
    blocks = q + (1 if _arg(args, kwargs, 4, "include_zeroth", False) else 0)
    # the 2q products with A and A^T; the block QRs count under economy_qr
    c["linalg.block_krylov_basis.flops"] += 4 * q * m * n * w
    c["linalg.block_krylov_basis.bytes"] += 8 * (2 * q * m * n + (blocks + 1) * n * w)
    c["krylov_kept"] += result.shape[1]
    c["krylov_built"] += blocks * w


def _hook_sweep(method):
    def hook(c, args, kwargs, result):
        trace = result[1]
        c[f"decompose.tt_{method}.step_s"] += sum(s.elapsed_s for s in trace.steps)
        c["decompose.padded_cols"] += sum(s.padded_cols for s in trace.steps)
        c["decompose.clamped_steps"] += sum(1 for s in trace.steps if s.clamped)
        if method == "svd":
            c.svd_inputs.add(_fingerprint(args[0], _arg(args, kwargs, 1, "trunc")))

    return hook


def _fingerprint(t, trunc):
    """Cheap identity of a tt_svd call: shape, ranks and a strided sample."""
    flat = t.ravel(order="K")
    sample = flat[:: max(1, flat.size // 4096)].tobytes()
    return (t.shape, getattr(trunc, "ranks", None), hashlib.blake2b(sample).hexdigest())


def _hook_run_bench(c, args, kwargs, result):
    c["bench.cells"] += len(result)
    c["bench.cells_failed"] += sum(1 for r in result if r.rel_err is None)


def _nbytes_hook(metric, pick):
    def hook(c, args, kwargs, result):
        c[metric] += pick(args, result)

    return hook


HOOKS = {
    "linalg.svd": _hook_svd,
    "linalg.economy_qr": _hook_qr,
    "linalg.gaussian_matrix": _hook_gaussian,
    "linalg.block_krylov_basis": _hook_krylov,
    **{f"decompose.tt_{m}": _hook_sweep(m) for m in METHODS},
    "bench.run_bench": _hook_run_bench,
    "datagen.add_awgn": _nbytes_hook("datagen.add_awgn.bytes", lambda a, r: r.nbytes),
    "datagen.tensor_save": _nbytes_hook("datagen.tensor_save.bytes", lambda a, r: 8 * a[0].size),
    "datagen.tensor_load": _nbytes_hook("datagen.tensor_load.bytes", lambda a, r: r.nbytes),
    "tt.tt_save": _nbytes_hook("tt.tt_save.bytes", lambda a, r: sum(x.nbytes for x in a[0].cores)),
    "tt.tt_load": _nbytes_hook("tt.tt_load.bytes", lambda a, r: sum(x.nbytes for x in r.cores)),
}


class Counters(defaultdict):
    """Per-pass counters filled by the hooks."""

    def __init__(self):
        super().__init__(float)
        self.svd_inputs = set()


class Tracer:
    """In-memory span recorder; install() wraps the sites, uninstall()
    restores the original functions."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans = []  # [name, start, end, parent index or -1, pass id]
        self.counters = {}  # pass id -> Counters
        self.site_calls = defaultdict(int)
        self.missing_sites = []
        self._stack = []
        self._saved = []
        self._pass = None

    def install(self, pass_id):
        self._pass = pass_id
        self.counters[pass_id] = Counters()
        for mod_name, attrs in SITES.items():
            mod = importlib.import_module(mod_name)
            for attr in attrs:
                site = f"{mod_name}.{attr}"
                if not callable(getattr(mod, attr, None)):
                    if site not in self.missing_sites:
                        self.missing_sites.append(site)
                    continue
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, f"{HOME[attr]}.{attr}", site))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        self._pass = None

    def _wrap(self, fn, name, site):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self._pass]
            self.spans.append(span)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start - self.epoch, time.perf_counter() - self.epoch
                self._stack.pop()
                self.site_calls[site] += 1
            if hook is not None:
                hook(self.counters[self._pass], args, kwargs, result)
            return result

        return wrapper

    def pass_metrics(self, pass_id, wall_s):
        """Per-layer metrics of one traced pass.  The trace overhead, BLAS
        and failure entries are left at 0 for the caller to fill in."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_s = defaultdict(float)
        for _, s in spans:
            if s[3] >= 0:
                child_s[s[3]] += s[2] - s[1]
        out = {f"{f}.{k}": 0.0 for f in FUNCTIONS for k in ("calls", "s", "self_s")}
        top = 0.0
        for i, (name, start, end, parent, _) in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[i]
            if parent < 0:
                top += end - start
        c = self.counters[pass_id]
        for name, _ in EXTRA_METRICS:
            out[name] = float(c.get(name, 0.0))
        for m in METHODS:
            key = f"decompose.tt_{m}"
            out[f"{key}.untimed_s"] = out[f"{key}.s"] - out[f"{key}.step_s"]
        built = c["krylov_built"]
        out["linalg.block_krylov_basis.kept_ratio"] = c["krylov_kept"] / built if built else 0.0
        calls = out["decompose.tt_svd.calls"]
        out["bench.svd_unique_ratio"] = len(c.svd_inputs) / calls if calls else 0.0
        out["trace.coverage"] = top / wall_s
        return out

    def zero_call_sites(self):
        return [
            f"{m}.{a}"
            for m, attrs in SITES.items()
            for a in attrs
            if self.site_calls[f"{m}.{a}"] == 0 and f"{m}.{a}" not in self.missing_sites
        ]

    def dump(self):
        return {
            "fields": ["name", "start_s", "end_s", "parent", "pass"],
            "spans": self.spans,
            "site_calls": dict(self.site_calls),
            "zero_call_sites": self.zero_call_sites(),
            "missing_sites": self.missing_sites,
        }
