"""Benchmark harness: sweep methods x ranks x q x noise x seeds over one
dataset, time the decompositions and emit machine-readable records.

The clean tensor is summed once per plan (metrics._sum_sq).  That sum
sets the signal power of every noise level and is the reference of
every cell's metrics pass, which then reads only the error and the
reconstruction's peak.  Noise takes one Gaussian draw per seed, scaled
to each SNR level (datagen._awgn_levels), and each noisy input is
shared by every method in its cells so comparisons are paired; metrics
are always computed against the clean tensor.  Every noisy input is
made before the first cell runs, so a noise level that add_awgn would
refuse, or a clean tensor with a NaN or Inf entry, fails a noisy plan
before any cell has.  Wall time covers the decomposition call only, also in
rows whose decomposition or metrics fail.  The deterministic
svd sweep runs once per (ranks, input), and every svd row of that input
reports its one measured wall time (see run_bench).

A plan names a dataset, methods, ranks and seeds, and may set p, q and
snr_db.  Its values go through the package's one integer and one number
check (errors._int, errors._number): every number must be finite, D and
h must be > 0, and a bool is no number.  Plans written for earlier
versions may also say "svd_truncate": true, which names the only
truncation the randomized sweeps have; any other value is an error.
"""

from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

import numpy as np

from . import decompose
from .datagen import _awgn_levels, power_function_tensor, spectrum_decay_tensor, tensor_load
from .decompose import SketchConfig
from .errors import InvalidArgumentError, ParseError, _int, _number
from .metrics import _error_metrics, _sum_sq
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
    # filled in by the cell; a failed row keeps its metrics None and says
    # why in error
    rel_err: Optional[float] = None
    psnr: Optional[float] = None
    wall_time_s: float = 0.0
    trace_sum_sq: Optional[float] = None
    error: Optional[str] = None


def _ranks_str(ranks) -> str:
    return "x".join(str(r) for r in ranks)


def _parse_ranks(s: str) -> Tuple[int, ...]:
    return tuple(int(v) for v in s.split("x"))


def _opt(cast):
    return lambda v: None if v is None or v == "" else cast(v)


# field type -> (encode to a JSON scalar, decode from that scalar or from
# its CSV text); a str field is written and read as it is.  CSV writes
# each encoded value as text (see _csv_text); JSON writes it as is.
_CODECS = {
    "Tuple[int, ...]": (_ranks_str, _parse_ranks),
    "int": (int, int),
    "float": (float, float),
    "Optional[float]": (_opt(float), _opt(float)),
    "Optional[str]": (_opt(str), _opt(str)),
}

# the record schema, in column order: (field, encode, decode)
_SCHEMA = tuple((f.name, *_CODECS.get(f.type, (str, str))) for f in fields(BenchRecord))


def _str(v, what: str) -> str:
    if not isinstance(v, str):
        raise InvalidArgumentError(f"{what} must be a string, got {v!r}")
    return v


def _list(v, what: str, item, scalar: bool = False) -> list:
    """v, a non-empty list or tuple, as a list of item(entry); with
    scalar, a value that is neither stands for a list of itself."""
    if scalar and not isinstance(v, (list, tuple)):
        v = [v]
    if not isinstance(v, (list, tuple)) or not v:
        raise InvalidArgumentError(f"{what} must be a non-empty list, got {v!r}")
    return [item(x) for x in v]


def _dims(v, what: str) -> Tuple[int, ...]:
    return tuple(_list(v, what, lambda d: _int(d, what, 1)))


# dataset kind -> ({key: (check, *args)}, build): check(value, key, *args)
# returns the key's normalized value, build(**keys) the tensor and the
# dataset id
_DATASETS = {
    "spectrum": (
        {"n": (_int, 1), "T": (_int, 1), "D": (_number, 0, True)},
        lambda n, T, D: (spectrum_decay_tensor(n, T, D), f"spectrum(n={n},T={T},D={D:g})"),
    ),
    "powerfn": (
        {"dims": (_dims,), "h": (_number, 0, True)},
        lambda dims, h: (power_function_tensor(dims, h), f"powerfn({'x'.join(map(str, dims))},h={h:g})"),
    ),
    "file": ({"path": (_str,)}, lambda path: (tensor_load(path), path)),
}


def _check_dataset(spec) -> dict:
    if not isinstance(spec, dict):
        raise InvalidArgumentError("dataset must be an object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _DATASETS:
        raise InvalidArgumentError(f"unknown dataset kind {kind!r}")
    keys = _DATASETS[kind][0]
    missing = set(keys) - set(spec)
    if missing:
        raise InvalidArgumentError(f"{kind} dataset is missing keys: {sorted(missing)}")
    extra = set(spec) - set(keys) - {"kind"}
    if extra:
        raise InvalidArgumentError(f"unknown {kind} dataset keys: {sorted(extra)}")
    return {"kind": kind, **{k: check(spec[k], k, *args) for k, (check, *args) in keys.items()}}


def _check_method(m) -> str:
    if not isinstance(m, str) or m not in decompose.METHODS:
        raise InvalidArgumentError(f"unknown method {m!r}")
    return m


def _check_rank_entry(entry):
    if isinstance(entry, (list, tuple)):
        return _dims(entry, "rank entry")
    return _int(entry, "rank entry", 1)


@dataclass
class BenchPlan:
    """A sweep over one dataset.  Construction validates every field and
    normalizes scalar q and snr_db to lists, so a bad plan fails before
    any cell runs."""

    dataset: dict
    methods: List[str]
    ranks: list
    p: int = SketchConfig.p
    q: List[int] = field(default_factory=lambda: [SketchConfig.q])
    seeds: List[int] = field(default_factory=lambda: [SketchConfig.seed])
    snr_db: Optional[List[Optional[float]]] = None

    def __post_init__(self):
        self.dataset = _check_dataset(self.dataset)
        self.methods = _list(self.methods, "methods", _check_method)
        self.ranks = _list(self.ranks, "ranks", _check_rank_entry)
        self.p = _int(self.p, "p", 0)
        self.q = _list(self.q, "q", lambda v: _int(v, "q", 1), scalar=True)
        self.seeds = _list(self.seeds, "seeds", lambda v: _int(v, "seed", 0))
        if self.snr_db is not None:
            self.snr_db = _list(
                self.snr_db, "snr_db", lambda v: None if v is None else _number(v, "snr_db"), scalar=True
            )

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


def _normalize_ranks(entry, n_modes: int) -> Tuple[int, ...]:
    ranks = entry if isinstance(entry, tuple) else (entry,) * (n_modes - 1)
    if len(ranks) != n_modes - 1:
        raise InvalidArgumentError(f"rank entry {entry!r} does not fit an order-{n_modes} tensor")
    return ranks


def run_bench(plan: BenchPlan) -> List[BenchRecord]:
    """One BenchRecord per (method, rank, q, snr, seed) cell, sorted.

    tt_svd ignores q and the sketch seed, so it runs once per (ranks,
    input): once per rank entry on the clean tensor, once per (ranks,
    snr, seed) on noisy input.  The other svd rows of that input copy its
    metrics, error and measured wall_time_s.
    """
    spec = dict(plan.dataset)
    base, dataset_id = _DATASETS[spec.pop("kind")][1](**spec)
    # every kind is built column-major, so this copies nothing; it makes
    # each metrics pass walk base in the blocks that _sum_sq summed
    base = np.asfortranarray(base)
    _, sum_sq, e = _sum_sq(base)
    rank_tuples = [_normalize_ranks(r, base.ndim) for r in plan.ranks]
    snr_list = plan.snr_db if plan.snr_db is not None else [None]
    levels = [snr for snr in snr_list if snr is not None]
    # every noisy input before the first cell, so a refused SNR fails the
    # plan before any cell has run; one draw per seed, alive for its levels
    noisy = {}
    if levels:
        for seed in plan.seeds:
            for snr, t in zip(levels, _awgn_levels(base, levels, seed, sum_sq, e)):
                noisy[snr, seed] = t
    svd_rows = {}  # (ranks, input key) -> the svd record measured on that input
    records = []
    cells = itertools.product(plan.methods, rank_tuples, plan.q, snr_list, plan.seeds)
    for method, ranks, q, snr, seed in cells:
        key = None if snr is None else (snr, seed)
        if method == "svd" and (ranks, key) in svd_rows:
            records.append(replace(svd_rows[ranks, key], q=q, seed=seed))
            continue
        cell = BenchRecord(method, dataset_id, ranks, plan.p, q, seed, snr)
        records.append(_run_cell(cell, noisy.get(key, base), base, (sum_sq, e)))
        if method == "svd":
            svd_rows[ranks, key] = records[-1]
    records.sort(
        key=lambda r: (r.dataset, r.method, r.ranks, r.q, (r.snr_db is not None, r.snr_db or 0.0), r.seed)
    )
    return records


def _run_cell(cell: BenchRecord, inp, base, ref) -> BenchRecord:
    """Fill in cell's metrics against base, whose _sum_sq is ref, or its
    error when the decomposition or the metrics fail."""
    t0 = time.perf_counter()
    try:
        try:
            tt, trace = decompose.run_method(
                cell.method, inp, cell.ranks, p=cell.p, q=cell.q, seed=cell.seed
            )
        finally:
            # the decomposition only, also when it or the metrics fail
            cell.wall_time_s = time.perf_counter() - t0
        cell.rel_err, cell.psnr = _error_metrics(base, tt_reconstruct(tt), ref)
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
    """Read back what emit wrote.  A value that is missing or does not
    decode raises ParseError naming its row (1 for the first record) and
    its column."""
    if format == "csv":
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            objs = [dict(zip(header, row)) for row in reader]
    elif format == "json":
        with open(path) as f:
            objs = json.load(f)
        if not isinstance(objs, list):
            raise ParseError(f"expected a list of records, got {type(objs).__name__}")
    else:
        raise InvalidArgumentError(f"unknown format {format!r}")
    return [_decode(o, row) for row, o in enumerate(objs, 1)]


def _decode(obj, row: int) -> BenchRecord:
    values = {}
    for name, _, decode in _SCHEMA:
        try:
            values[name] = decode(obj[name])
        except KeyError:
            raise ParseError(f"row {row} has no {name} column") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"row {row}, column {name}: {exc}") from None
    return BenchRecord(**values)
