"""Benchmark harness: sweep methods x ranks x q x noise x seeds over one
dataset, time the decompositions and emit machine-readable records.

Noising is applied once per (snr, seed) pair and shared by every method
in that cell so comparisons are paired; metrics are always computed
against the clean tensor.  Wall time covers the decomposition call only,
also in rows whose decomposition or metrics fail.  The deterministic
svd sweep runs once per (ranks, input), and every svd row of that input
reports its one measured wall time (see run_bench).

A plan names a dataset, methods, ranks and seeds, and may set p, q and
snr_db; every number in it must be finite.  Plans written for earlier
versions may also say "svd_truncate": true, which names the only
truncation the randomized sweeps have; any other value is an error.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

import numpy as np

from . import decompose
from .datagen import add_awgn, power_function_tensor, spectrum_decay_tensor, tensor_load
from .errors import InvalidArgumentError
from .metrics import error_metrics
from .tt import tt_reconstruct


@dataclass
class BenchRecord:
    method: str
    dataset: str
    ranks: Tuple[int, ...]
    p: int
    q: int
    seed: int
    snr_db: Optional[float]
    rel_err: Optional[float]
    psnr: Optional[float]
    wall_time_s: float
    trace_sum_sq: Optional[float]
    error: Optional[str] = None  # why the cell failed; None for a good row


def _ranks_str(ranks) -> str:
    return "x".join(str(r) for r in ranks)


def _parse_ranks(s: str) -> Tuple[int, ...]:
    return tuple(int(v) for v in s.split("x"))


def _opt_float(v) -> Optional[float]:
    return None if v is None or v == "" else float(v)


def _opt_str(v) -> Optional[str]:
    return None if v is None or v == "" else str(v)


# The record schema, in column order: (field, encode to a JSON scalar,
# decode from that scalar or from its CSV text).  CSV writes each encoded
# value as text (see _csv_text); JSON writes it as is.
_SCHEMA = (
    ("method", str, str),
    ("dataset", str, str),
    ("ranks", _ranks_str, _parse_ranks),
    ("p", int, int),
    ("q", int, int),
    ("seed", int, int),
    ("snr_db", _opt_float, _opt_float),
    ("rel_err", _opt_float, _opt_float),
    ("psnr", _opt_float, _opt_float),
    ("wall_time_s", float, float),
    ("trace_sum_sq", _opt_float, _opt_float),
    ("error", _opt_str, _opt_str),
)


def _int(v, what: str, low: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < low:
        raise InvalidArgumentError(f"{what} must be an integer >= {low}, got {v!r}")
    return v


def _number(v, what: str) -> float:
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    # NaN fails the comparison, and so do +-Inf and ints beyond the float range
    if not (number and abs(v) <= sys.float_info.max):
        raise InvalidArgumentError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _str(v, what: str) -> str:
    if not isinstance(v, str):
        raise InvalidArgumentError(f"{what} must be a string, got {v!r}")
    return v


def _list(v, what: str) -> list:
    if not isinstance(v, (list, tuple)) or not v:
        raise InvalidArgumentError(f"{what} must be a non-empty list, got {v!r}")
    return list(v)


def _dims(v, what: str) -> Tuple[int, ...]:
    return tuple(_int(d, what, 1) for d in _list(v, what))


# dataset kind -> {key: check returning the normalized value}
_DATASETS = {
    "spectrum": {
        "n": lambda v: _int(v, "n", 1),
        "T": lambda v: _int(v, "T", 1),
        "D": lambda v: _number(v, "D"),
    },
    "powerfn": {"dims": lambda v: _dims(v, "dims"), "h": lambda v: _number(v, "h")},
    "file": {"path": lambda v: _str(v, "path")},
}


def _check_dataset(spec) -> dict:
    if not isinstance(spec, dict):
        raise InvalidArgumentError("dataset must be an object")
    kind = spec.get("kind")
    if kind not in _DATASETS:
        raise InvalidArgumentError(f"unknown dataset kind {kind!r}")
    keys = _DATASETS[kind]
    missing = set(keys) - set(spec)
    if missing:
        raise InvalidArgumentError(f"{kind} dataset is missing keys: {sorted(missing)}")
    extra = set(spec) - set(keys) - {"kind"}
    if extra:
        raise InvalidArgumentError(f"unknown {kind} dataset keys: {sorted(extra)}")
    return {**spec, **{k: check(spec[k]) for k, check in keys.items()}}


def _check_rank_entry(entry):
    if isinstance(entry, (list, tuple)):
        return _dims(entry, "rank entry")
    return _int(entry, "rank entry", 1)


def _as_list(v) -> list:
    return list(v) if isinstance(v, (list, tuple)) else [v]


@dataclass
class BenchPlan:
    """A sweep over one dataset.  Construction validates every field and
    normalizes scalar q and snr_db to lists, so a bad plan fails before
    any cell runs."""

    dataset: dict
    methods: List[str]
    ranks: list
    p: int = 0
    q: List[int] = field(default_factory=lambda: [1])
    seeds: List[int] = field(default_factory=lambda: [0])
    snr_db: Optional[List[Optional[float]]] = None

    def __post_init__(self):
        self.dataset = _check_dataset(self.dataset)
        self.methods = _list(self.methods, "methods")
        for m in self.methods:
            if not isinstance(m, str) or m not in decompose.METHODS:
                raise InvalidArgumentError(f"unknown method {m!r}")
        self.ranks = [_check_rank_entry(r) for r in _list(self.ranks, "ranks")]
        self.p = _int(self.p, "p", 0)
        self.q = [_int(v, "q", 1) for v in _list(_as_list(self.q), "q")]
        self.seeds = [_int(v, "seed", 0) for v in _list(self.seeds, "seeds")]
        if self.snr_db is not None:
            self.snr_db = [
                None if v is None else _number(v, "snr_db")
                for v in _list(_as_list(self.snr_db), "snr_db")
            ]

    @staticmethod
    def from_dict(d: dict) -> "BenchPlan":
        if not isinstance(d, dict):
            raise InvalidArgumentError("plan must be an object")
        d = dict(d)
        if d.pop("svd_truncate", True) is not True:
            raise InvalidArgumentError(
                "svd_truncate must be true: the randomized methods always keep "
                "the top left singular vectors of their sketch"
            )
        extra = set(d) - {f.name for f in fields(BenchPlan)}
        if extra:
            raise InvalidArgumentError(f"unknown plan keys: {sorted(extra)}")
        missing = {"dataset", "methods", "ranks", "seeds"} - set(d)
        if missing:
            raise InvalidArgumentError(f"plan is missing keys: {sorted(missing)}")
        return BenchPlan(**d)


def _build_dataset(spec: dict):
    kind = spec["kind"]
    if kind == "spectrum":
        n, T, D = spec["n"], spec["T"], spec["D"]
        return spectrum_decay_tensor(n, T, D), f"spectrum(n={n},T={T},D={D:g})"
    if kind == "powerfn":
        dims, h = spec["dims"], spec["h"]
        return power_function_tensor(dims, h), f"powerfn({'x'.join(map(str, dims))},h={h:g})"
    return tensor_load(spec["path"]), spec["path"]


def _normalize_ranks(entry, n_modes: int) -> Tuple[int, ...]:
    ranks = entry if isinstance(entry, tuple) else (entry,) * (n_modes - 1)
    if len(ranks) != n_modes - 1:
        raise InvalidArgumentError(
            f"rank entry {entry!r} does not fit an order-{n_modes} tensor"
        )
    return ranks


def run_bench(plan: BenchPlan) -> List[BenchRecord]:
    """One BenchRecord per (method, rank, q, snr, seed) cell, sorted.

    tt_svd ignores q and the sketch seed, so it runs once per (ranks,
    input): once per rank entry on the clean tensor, once per (ranks,
    snr, seed) on noisy input.  The other svd rows of that input copy its
    metrics, error and measured wall_time_s.
    """
    base, dataset_id = _build_dataset(plan.dataset)
    rank_tuples = [_normalize_ranks(r, base.ndim) for r in plan.ranks]
    snr_list = plan.snr_db if plan.snr_db is not None else [None]
    noisy = {}
    svd_rows = {}  # (ranks, input key) -> the svd record measured on that input
    records = []
    for method in plan.methods:
        for ranks in rank_tuples:
            for q in plan.q:
                for snr in snr_list:
                    for seed in plan.seeds:
                        key = None if snr is None else (snr, seed)
                        if method == "svd" and (ranks, key) in svd_rows:
                            records.append(replace(svd_rows[ranks, key], q=q, seed=seed))
                            continue
                        if key is None:
                            inp = base
                        else:
                            if key not in noisy:
                                noisy[key] = add_awgn(base, snr, seed)
                            inp = noisy[key]
                        cell = BenchRecord(
                            method, dataset_id, ranks, plan.p, q, seed, snr,
                            rel_err=None, psnr=None, wall_time_s=0.0, trace_sum_sq=None,
                        )
                        records.append(_run_cell(cell, inp, base))
                        if method == "svd":
                            svd_rows[ranks, key] = records[-1]
    records.sort(
        key=lambda r: (
            r.dataset,
            r.method,
            r.ranks,
            r.q,
            (r.snr_db is not None, r.snr_db or 0.0),
            r.seed,
        )
    )
    return records


def _run_cell(cell: BenchRecord, inp, base) -> BenchRecord:
    """Fill in cell's metrics, or its error when the decomposition or the
    metrics fail."""
    t0 = time.perf_counter()
    try:
        try:
            tt, trace = decompose.run_method(
                cell.method, inp, cell.ranks, p=cell.p, q=cell.q, seed=cell.seed
            )
        finally:
            # the decomposition only, also when it or the metrics fail
            cell.wall_time_s = time.perf_counter() - t0
        rec = tt_reconstruct(tt)
        cell.rel_err, cell.psnr = error_metrics(base, rec)
        cell.trace_sum_sq = trace.residual_sq_sum
    except (InvalidArgumentError, np.linalg.LinAlgError, FloatingPointError) as exc:
        cell.rel_err = cell.psnr = cell.trace_sum_sq = None
        cell.error = str(exc)
    return cell


def _csv_text(v) -> str:
    """CSV text of an encoded value: empty for None, floats with 17
    significant digits."""
    if v is None:
        return ""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _encode(r: BenchRecord) -> dict:
    return {name: encode(getattr(r, name)) for name, encode, _ in _SCHEMA}


def emit(records: List[BenchRecord], format: str, path):
    """Write records as CSV or JSON, one column per _SCHEMA entry.

    CSV floats use 17 significant digits; JSON floats use Python's
    lossless shortest repr (json emits Infinity for an infinite PSNR).
    A failed row leaves its metrics empty and says why in error.
    """
    if format == "csv":
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(name for name, _, _ in _SCHEMA)
            for r in records:
                w.writerow(_csv_text(v) for v in _encode(r).values())
    elif format == "json":
        with open(path, "w") as f:
            json.dump([_encode(r) for r in records], f, indent=2)
            f.write("\n")
    else:
        raise InvalidArgumentError(f"unknown format {format!r}")


def load_records(path, format: str = "csv") -> List[BenchRecord]:
    """Read back what emit wrote."""
    if format == "csv":
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        objs = [dict(zip(rows[0], row)) for row in rows[1:]]
    elif format == "json":
        with open(path) as f:
            objs = json.load(f)
    else:
        raise InvalidArgumentError(f"unknown format {format!r}")
    return [BenchRecord(**{name: decode(o[name]) for name, _, decode in _SCHEMA}) for o in objs]
