"""Benchmark harness: sweep methods x ranks x q x noise x seeds over one
dataset, time the decompositions and emit machine-readable records.

The clean tensor is summed once per plan (metrics._sum_sq).  That sum
sets the signal power of every noise level and is the ||a||^2 of every
cell's metrics, the sum error_metrics takes from _sum_sq too.  A cell
scores its TT itself, with no dense reconstruction: the metrics pass
reads it chunk by chunk from the product tt_reconstruct writes, so its
row equals error_metrics(clean, tt_reconstruct(tt)) bit for bit.  Noise
takes one Gaussian draw per seed, scaled to each SNR level
(datagen._awgn_levels), and each noisy input is shared by every method
in its cells so comparisons are paired; metrics are always computed
against the clean tensor.  A plan runs one input at a time, and holds
the clean tensor, one seed's noisy inputs and one scoring chunk of at
most 4 MiB.  A plan that lists a method, rank entry, q, seed or SNR
level twice, or two rank entries that mean the same ranks, is refused
before any draw or cell.  The first seed's levels are made before the
first cell runs, so a noise level that add_awgn would refuse, or a clean
tensor with a NaN or Inf entry, fails a noisy plan before any cell has;
a refusal that depends on a later seed's draw fails the plan after the
earlier seeds' cells.  Wall time covers the decomposition call only,
also in rows whose decomposition or metrics fail.  The deterministic svd
sweep runs once per (ranks, input), and every svd row of that input
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
import io
import itertools
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Tuple

import numpy as np

from . import decompose
from ._container import _open_output
from .datagen import _awgn_levels, power_function_tensor, spectrum_decay_tensor, tensor_load
from .decompose import SketchConfig
from .errors import InvalidArgumentError, ParseError, _int, _number
from .metrics import _error_metrics, _sum_sq


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


def _distinct(v: list, what: str) -> list:
    """v, after the check that no entry of it repeats: a repeated entry
    would run its cells again and emit their rows twice."""
    for i, x in enumerate(v):
        if x in v[:i]:
            raise InvalidArgumentError(f"{what} lists {x!r} twice")
    return v


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
        for name in ("methods", "ranks", "q", "seeds", "snr_db"):
            _distinct(getattr(self, name) or [], name)

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

    The cells run one input at a time: first each seed's noisy inputs,
    one per SNR level from that seed's one draw, made when the seed's
    first cell is due, so the first seed's levels are made before any
    cell runs; then the clean tensor, which serves every seed.  tt_svd
    ignores q and the sketch seed, so within an input it runs for the
    first (q, seed) of each rank entry, and the other svd rows of that
    input copy its metrics, error and measured wall_time_s.  Two rank
    entries that normalize to the same ranks are refused before any draw.
    """
    spec = dict(plan.dataset)
    base, dataset_id = _DATASETS[spec.pop("kind")][1](**spec)
    sum_sq, e = _sum_sq(base)
    rank_tuples = _distinct([_normalize_ranks(r, base.ndim) for r in plan.ranks], "ranks")
    snr_list = plan.snr_db if plan.snr_db is not None else [None]
    levels = [snr for snr in snr_list if snr is not None]
    # (snr, the seeds it serves, the input): each seed's one draw is made
    # when its first cell is due, and nothing holds its levels once its
    # last cell has run (del t), so they are freed before the next draw
    noisy = itertools.chain.from_iterable(
        zip(levels, itertools.repeat([seed]), _awgn_levels(base, levels, seed, sum_sq, e))
        for seed in (plan.seeds if levels else [])
    )
    clean = [(None, plan.seeds, base)] * snr_list.count(None)
    records = []
    for snr, seeds, t in itertools.chain(noisy, clean):
        for method, ranks in itertools.product(plan.methods, rank_tuples):
            for i, (q, seed) in enumerate(itertools.product(plan.q, seeds)):
                if method == "svd" and i:  # records[-1]: this input's svd row
                    records.append(replace(records[-1], q=q, seed=seed))
                    continue
                cell = BenchRecord(method, dataset_id, ranks, plan.p, q, seed, snr)
                records.append(_run_cell(cell, t, base, (sum_sq, e)))
        del t
    records.sort(
        key=lambda r: (r.dataset, r.method, r.ranks, r.q, (r.snr_db is not None, r.snr_db or 0.0), r.seed)
    )
    return records


def _run_cell(cell: BenchRecord, inp, base, ref) -> BenchRecord:
    """Fill in cell's metrics, its TT scored against base, whose _sum_sq
    is ref, with no dense reconstruction, or its error when the
    decomposition or the metrics fail."""
    t0 = time.perf_counter()
    try:
        try:
            tt, trace = decompose.run_method(
                cell.method, inp, cell.ranks, p=cell.p, q=cell.q, seed=cell.seed
            )
        finally:
            # the decomposition only, also when it or the metrics fail
            cell.wall_time_s = time.perf_counter() - t0
        cell.rel_err, cell.psnr = _error_metrics(base, tt, ref)
        cell.trace_sum_sq = trace.residual_sq_sum
    except (InvalidArgumentError, np.linalg.LinAlgError, FloatingPointError) as exc:
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
        with _open_output(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(name for name, _, _ in _SCHEMA)
            for r in records:
                w.writerow(_csv_text(v) for v in _encode(r).values())
    elif format == "json":
        with _open_output(path, "w") as f:
            json.dump([_encode(r) for r in records], f, indent=2)
            f.write("\n")
    else:
        raise InvalidArgumentError(f"unknown format {format!r}")


def load_records(path, format: str = "csv") -> List[BenchRecord]:
    """Read back what emit wrote.  A value that is missing or does not
    decode raises ParseError naming its row (1 for the first record) and
    its column; so does a file that does not decode as text or, in
    format json, does not parse or nests too deeply to parse, with the
    decoder's message.  A CSV that does not end in a line terminator, as
    every row emit writes does, was cut short: ParseError at its byte
    length."""
    try:
        if format == "csv":
            with open(path, newline="") as f:
                text = f.read()
                size = os.fstat(f.fileno()).st_size
            if not text:  # emit writes the header even for no records
                raise ParseError("empty file, not even a header row", offset=0)
            if not text.endswith("\n"):
                raise ParseError("file ends inside a row: the save was cut short", offset=size)
            # strict: a save cut inside a quoted field is an error
            reader = csv.reader(io.StringIO(text, newline=""), strict=True)
            header = next(reader)
            objs = [dict(zip(header, row)) for row in reader]
        elif format == "json":
            with open(path) as f:
                objs = json.load(f)
            if not isinstance(objs, list):
                raise ParseError(f"expected a list of records, got {type(objs).__name__}")
        else:
            raise InvalidArgumentError(f"unknown format {format!r}")
    # a RecursionError is json nested deeper than the interpreter's stack
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, csv.Error) as exc:
        # no byte offset: JSONDecodeError.pos counts characters, not bytes
        raise ParseError(f"{format} file does not parse: {exc}") from None
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
