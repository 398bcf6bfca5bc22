"""The benchmark's workloads and the checks on their outputs.

Every workload is driven through ``ttapprox.cli.main``, looked up on the
module at call time so the traced run's wrappers see the call.  The seed
sets only the plan seeds, noise seeds and sketch seeds; shapes, ranks,
methods, p, q and svd_truncate are fixed, so cost does not depend on it.
Pass k of a run draws its own seeds, so accuracy is averaged over every
cell of every pass while each pass's inputs stay fixed by (seed, k).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import ttapprox.cli as cli
from ttapprox.bench import load_records
from ttapprox.datagen import power_function_tensor, spectrum_decay_tensor
from spans import METHODS
from ttapprox.tt import tt_load, validate

EPS = float(np.finfo(np.float64).eps)

# |‖A−Â‖² − Σρ²| ≤ IDENTITY_TOL · eps · ‖A‖².  Both sides are sums of
# squares of roughly ‖A‖² size computed in float64, and Σρ² is built by
# subtraction, so the absolute rounding scales with eps·‖A‖², never with
# ‖A−Â‖².  On 20^5 the measured gap stays below 8 eps·‖A‖², while a
# lost step residual would shift it by ~1e10 eps·‖A‖²; the factor leaves
# headroom for other BLAS builds and thread counts.
IDENTITY_TOL = 1e3

SNR_CLI_DB = 20.0


def derive_seed(seed, pass_id, slot):
    """Seed of one plan/noise/sketch slot of one pass."""
    return int(np.random.SeedSequence([seed % 2**64, pass_id, slot]).generate_state(1)[0])


@dataclass
class PassResult:
    wall_s: float
    decomp_s: dict  # method -> decomposition seconds summed over the pass
    op_s: dict = field(default_factory=lambda: {m: [] for m in METHODS})
    rel_err: dict = field(default_factory=lambda: {m: [] for m in METHODS})
    attempted: int = 0
    failures: list = field(default_factory=list)  # one reason per failed operation


def invoke(argv):
    """Run one CLI command in-process; returns (exit code, stdout, stderr).

    An exception escaping main is a program failure: it is recorded with
    its traceback and counted like a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = 1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def check_bench_rows(rows, expected, clean_norm_sq):
    """Check the rows a bench pass emitted against the cells it planned.

    expected: set of (method, ranks, snr_db, seed).  Returns (rel_err per
    method, decomposition seconds per method, failure reasons).  A row
    with an empty rel_err is a failed cell: emit drops the error column,
    so the reason is not in the file.  On clean rows the residual
    identity ‖A−Â‖² = Σρ² must hold to IDENTITY_TOL · eps · ‖A‖².
    """
    rel = {m: [] for m in METHODS}
    op_s = {m: [] for m in METHODS}
    failures = []
    seen = set()
    for r in rows:
        key = (r.method, tuple(r.ranks), r.snr_db, r.seed)
        cell = f"{r.method} ranks={r.ranks} snr={r.snr_db} seed={r.seed}"
        if key not in expected or key in seen:
            failures.append(f"unexpected row {cell}")
            continue
        seen.add(key)
        if r.rel_err is None:
            failures.append(f"empty rel_err: {cell}")
            continue
        if not (math.isfinite(r.rel_err) and 0.0 < r.rel_err < 1.0):
            failures.append(f"rel_err {r.rel_err!r} outside (0, 1): {cell}")
            continue
        if not (math.isfinite(r.wall_time_s) and r.wall_time_s > 0.0):
            failures.append(f"wall_time_s {r.wall_time_s!r}: {cell}")
            continue
        if r.trace_sum_sq is None or not math.isfinite(r.trace_sum_sq):
            failures.append(f"trace_sum_sq {r.trace_sum_sq!r}: {cell}")
            continue
        if r.snr_db is None:
            gap = abs(r.rel_err**2 * clean_norm_sq - r.trace_sum_sq)
            if gap > IDENTITY_TOL * EPS * clean_norm_sq:
                failures.append(
                    f"residual identity off by {gap / (EPS * clean_norm_sq):.3g} eps*|A|^2: {cell}"
                )
                continue
        rel[r.method].append(r.rel_err)
        op_s[r.method].append(r.wall_time_s)
    failures += [f"missing row {k}" for k in sorted(expected - seen, key=str)]
    return rel, op_s, failures


def check_ttc(path):
    """None if the .ttc at path loads and validates, else the reason."""
    try:
        rep = validate(tt_load(path))
    except Exception as exc:  # any load failure is a failed output
        return f"{path}: {type(exc).__name__}: {exc}"
    if not rep.ok:
        worst = max(rep.orth_residuals, default=0.0)
        return f"{path}: invalid TT (boundary {rep.boundary_ok}, adjacency {rep.adjacency_ok}, orth {worst:.3g})"
    return None


class _Workload:
    def __init__(self, name, workdir, seed):
        self.name, self.why = name, WHY[name]
        self.workdir, self.seed = workdir, seed

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def cleanup(self):
        shutil.rmtree(self.workdir)


class BenchWorkload(_Workload):
    """A ``ttapprox bench`` plan run through ``ttapprox bench --plan``."""

    def __init__(self, name, workdir, seed, dataset, ranks, snr_db):
        super().__init__(name, workdir, seed)
        self.dataset, self.ranks, self.snr_db = dataset, ranks, snr_db
        self.order = len(dataset["dims"]) if "dims" in dataset else 3
        self._clean_norm_sq = None

    def definition(self):
        return {
            "name": self.name,
            "why": self.why,
            "kind": "ttapprox bench",
            "plan": self.plan(0) | {"seeds": "2 per pass, derived from (seed, pass)"},
        }

    def plan(self, pass_id):
        plan = {
            "dataset": self.dataset,
            "methods": list(METHODS),
            "ranks": self.ranks,
            "p": 2,
            "q": 2,
            "seeds": [derive_seed(self.seed, pass_id, j) for j in range(2)],
            "svd_truncate": True,
        }
        if self.snr_db is not None:
            plan["snr_db"] = self.snr_db
        return plan

    def run_pass(self, pass_id):
        """Time one pass; returns (wall seconds, what check needs)."""
        plan = self.plan(pass_id)
        plan_path = self.workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        rows_path = self.workdir / "rows.csv"
        argv = ["bench", "--plan", str(plan_path), "-o", str(rows_path), "--format", "csv"]
        t0 = time.perf_counter()
        rc, _, err = invoke(argv)
        return time.perf_counter() - t0, (plan, rc, err, rows_path)

    def check(self, wall, pending):
        plan, rc, err, rows_path = pending
        snrs = plan.get("snr_db", [None])
        expected = {
            (m, (r,) * (self.order - 1), s, seed)
            for m in plan["methods"]
            for r in plan["ranks"]
            for s in snrs
            for seed in plan["seeds"]
        }
        res = PassResult(wall, {m: 0.0 for m in METHODS}, attempted=len(expected))
        if rc != 0:
            res.failures = [f"bench exited {rc}: {err.strip()[-300:]}"] * len(expected)
            return res
        try:
            rows = load_records(rows_path)
        except Exception as exc:  # an unreadable output fails every cell
            res.failures = [f"rows unreadable: {type(exc).__name__}: {exc}"] * len(expected)
            return res
        res.rel_err, res.op_s, res.failures = check_bench_rows(rows, expected, self.clean_norm_sq())
        res.decomp_s = {m: sum(v) for m, v in res.op_s.items()}
        return res

    def clean_norm_sq(self):
        """‖A‖² of the clean dataset, for the identity check on clean rows."""
        if self._clean_norm_sq is None:
            d = self.dataset
            if d["kind"] == "powerfn":
                t = power_function_tensor(d["dims"], d["h"])
            else:
                t = spectrum_decay_tensor(d["n"], d["T"], d["D"])
            self._clean_norm_sq = float(np.sum(t * t))
        return self._clean_norm_sq


# order 3 to 6, 10^3 to ~10^6 entries
CLI_SHAPES = (
    (10, 10, 10),
    (20, 25, 20),
    (40, 50, 50),
    (10, 10, 10, 10),
    (18, 18, 18, 18),
    (4, 5, 5, 5, 8),
    (10, 10, 10, 10, 10),
    (5, 5, 5, 5, 5, 5),
    (10, 10, 10, 10, 10, 10),
)


class CliWorkload(_Workload):
    """The file pipeline: synth, noise, decompose (4 methods, --trace),
    reconstruct and metrics on each of CLI_SHAPES, 126 commands a pass."""

    def definition(self):
        return {
            "name": self.name,
            "why": self.why,
            "kind": "ttapprox CLI file pipeline",
            "shapes": [list(s) for s in CLI_SHAPES],
            "h": 5,
            "snr_db": SNR_CLI_DB,
            "ranks": 3,
            "p": 2,
            "q": 2,
            "svd_truncate": True,
            "seeds": "noise seed per shape and one sketch seed per pass, derived from (seed, pass)",
        }

    def commands(self, pass_id):
        """[(kind, method, argv, output path)] of one pass, in run order."""
        sketch_seed = derive_seed(self.seed, pass_id, 0)
        cmds = []
        for i, shape in enumerate(CLI_SHAPES):
            f = lambda stem: str(self.workdir / f"s{i}_{stem}")  # noqa: E731
            dims = ",".join(map(str, shape))
            ranks = ",".join(["3"] * (len(shape) - 1))
            cmds.append(("synth", None, ["synth", "powerfn", "--dims", dims, "--h", "5", "-o", f("clean.dten")], None))
            noise_seed = str(derive_seed(self.seed, pass_id, 10 + i))
            cmds.append(("noise", None, ["noise", "--snr", str(SNR_CLI_DB), "--seed", noise_seed,
                                         "-i", f("clean.dten"), "-o", f("noisy.dten")], None))
            for m in METHODS:
                argv = ["decompose", "--method", m, "--ranks", ranks, "-i", f("noisy.dten"),
                        "-o", f(f"{m}.ttc"), "--trace", f(f"{m}.trace.json")]
                if m != "svd":
                    argv += ["--p", "2", "--q", "2", "--seed", str(sketch_seed), "--svd-truncate"]
                cmds.append(("decompose", m, argv, f(f"{m}.ttc")))
                cmds.append(("reconstruct", m, ["reconstruct", "-i", f(f"{m}.ttc"), "-o", f(f"{m}.rec.dten")], None))
                cmds.append(("metrics", m, ["metrics", "--ref", f("clean.dten"), "--approx", f(f"{m}.rec.dten")], None))
        return cmds

    def run_pass(self, pass_id):
        """Time one pass; returns (wall seconds, what check needs)."""
        cmds = self.commands(pass_id)
        outcomes = []
        t0 = time.perf_counter()
        for _, _, argv, _ in cmds:
            t = time.perf_counter()
            rc, out, err = invoke(argv)
            outcomes.append((rc, out, err, time.perf_counter() - t))
        return time.perf_counter() - t0, (cmds, outcomes)

    def check(self, wall, pending):
        """Every command exits 0, every .ttc validates, every metrics
        command prints a finite rel_err in (0, 1)."""
        cmds, outcomes = pending
        res = PassResult(wall, {m: 0.0 for m in METHODS}, attempted=len(cmds))
        for (kind, method, argv, ttc), (rc, out, err, dt) in zip(cmds, outcomes):
            if rc != 0:
                res.failures.append(f"{' '.join(argv[:3])} exited {rc}: {err.strip()[-300:]}")
                continue
            if kind == "decompose":
                res.decomp_s[method] += dt
                res.op_s[method].append(dt)
                bad = check_ttc(ttc)
                if bad:
                    res.failures.append(bad)
            elif kind == "metrics":
                rel = _parse_rel_err(out)
                if rel is None or not 0.0 < rel < 1.0:
                    res.failures.append(f"metrics printed no rel_err in (0, 1): {out!r}")
                else:
                    res.rel_err[method].append(rel)
        return res


def _parse_rel_err(out):
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "rel_err":
            try:
                v = float(parts[1])
            except ValueError:
                return None
            return v if math.isfinite(v) else None
    return None


WHY = {
    "powerfn5-clean": (
        "power-function 20^5, 4 methods, ranks 4/8, no noise: wide unfoldings, "
        "so Krylov, tall QRs, Gaussian draws and the unfold copy dominate; svd repeats per seed"
    ),
    "spectrum3-noisy": (
        "spectrum 100^3, ranks 10/20, SNR 5/20 dB: the 100x10000 SVD and AWGN dominate, "
        "randomized sweeps are cheap and every svd input is distinct"
    ),
    "cli-files": (
        "126 CLI commands on 9 small powerfn shapes: file save/load and per-command "
        "overhead dominate while the kernels do little"
    ),
}


def make(name, workdir, seed):
    if name == "powerfn5-clean":
        return BenchWorkload(name, workdir, seed, {"kind": "powerfn", "dims": [20] * 5, "h": 5}, [4, 8], None)
    if name == "spectrum3-noisy":
        return BenchWorkload(name, workdir, seed, {"kind": "spectrum", "n": 100, "T": 20, "D": 1}, [10, 20], [5, 20])
    if name == "cli-files":
        return CliWorkload(name, workdir, seed)
    raise ValueError(f"unknown workload {name!r}")
