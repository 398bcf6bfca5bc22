"""ttapprox benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload powerfn5-clean --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Everything runs in this one process with BLAS at its default
thread count, in a closed loop: passes over the workload run back to
back until their summed wall time reaches --seconds.  Outputs are checked
after each pass, outside the timed section.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a run that alternates
untraced and traced passes (see spans.py) and then repeats pass 0 in a
child process with OPENBLAS_NUM_THREADS=1.  Every run also writes its
metrics, the timing distributions and the provenance to
``perfbench/out/<workload>-seed<n>-trace<t>.json``; a traced run writes
its spans beside it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
from spans import METHODS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("powerfn5-clean", "spectrum3-noisy", "cli-files")
SETUP_PROBES = 9
REL_ERR_MATCH_TOL = 1e-9  # thread count may change rounding, not accuracy
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh processes that time set-up and the 1-thread pass
    ap.add_argument("--probe", choices=("setup", "single-thread"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    """Import ttapprox from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "ttapprox"
    if not (pkg / "__init__.py").is_file():
        raise RuntimeError(f"no program source at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import ttapprox

    if Path(ttapprox.__file__).resolve().parent != pkg.resolve():
        raise RuntimeError(f"ttapprox imported from {ttapprox.__file__}, not {pkg}")


def blas_threads():
    """OpenBLAS's runtime thread count, or None if it cannot be read."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def git_commit():
    """HEAD of the checkout read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, definitions):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "workloads": definitions,
    }


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    i = len(values) - 11
    return 100.0 * (i + 1) / len(values), sorted(values)[i]


def metric(value, unit, **detail):
    return {"value": value, "unit": unit, **detail}


def timing(values):
    """Median with the tail percentile and the sample count; 0 with no
    samples, which only happens when every operation failed."""
    t = tail(values)
    return metric(statistics.median(values) if values else 0.0, "s", n=len(values),
                  tail_pct=t and t[0], tail=t and t[1])


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 1.0


def _child(args, probe, env=None):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--probe", probe],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


def probe_setup(args):
    """Wall time of a fresh process that imports the program and prepares
    the workload's inputs, and its exit code."""
    t0 = time.perf_counter()
    rc = _child(args, "setup").returncode
    return time.perf_counter() - t0, rc


def single_thread_pass(args):
    """Pass 0 in a child process with one BLAS thread: its summary, or
    {"error": reason}."""
    try:
        proc = _child(args, "single-thread", dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seconds, tracer=None):
    """Back-to-back passes until their summed wall time reaches seconds.
    With a tracer, odd passes are traced and even ones are not."""
    untraced, traced, total, k = [], [], 0.0, 0
    while total < seconds or (tracer is not None and k < 2):
        on = tracer is not None and k % 2 == 1
        if on:
            tracer.install(k)
        try:
            wall, pending = workload.run_pass(k)
        finally:
            if on:
                tracer.uninstall()
        (traced if on else untraced).append(workload.check(wall, pending))
        total += wall
        k += 1
    return untraced, traced


def end_to_end(passes, setup_s, attempted, failed):
    m = {"setup_s": timing(setup_s), "run_s": timing([p.wall_s for p in passes])}
    for meth in METHODS:
        ops = [t for p in passes for t in p.op_s[meth]]
        m[f"decomp_s.{meth}"] = timing([p.decomp_s[meth] for p in passes]) | {"per_op": timing(ops)}
    for meth in METHODS:
        errs = [e for p in passes for e in p.rel_err[meth]]
        m[f"rel_err.{meth}"] = metric(geomean(errs), "ratio", n=len(errs))
    m["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    m["ok_frac"] = metric((attempted - failed) / attempted, "ratio")
    return m


def per_layer(tracer, untraced, traced, single, threads, failed_frac):
    """Median over the traced passes of each per-layer metric, plus the
    trace overhead and the single-thread comparison."""
    samples = [tracer.pass_metrics(k, p.wall_s) for k, p in zip(sorted(tracer.counters), traced)]
    out = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    out["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                               - statistics.median(p.wall_s for p in untraced))
    out["blas.threads"] = float(threads or 0)
    if "error" in single:
        dev, out["blas.single_thread_run_s"] = 1.0, 0.0
    else:
        base = {m: geomean(untraced[0].rel_err[m]) for m in METHODS}
        dev = max(abs(single["rel_err"][m] - base[m]) / base[m] for m in METHODS)
        out["blas.single_thread_run_s"] = single["run_s"]
    out["blas.single_thread_rel_err_maxdev"] = dev
    out["blas.single_thread_rel_err_match"] = float(dev <= REL_ERR_MATCH_TOL)
    out["failed_frac"] = failed_frac
    return {name: metric(out[name], unit) for name, unit in spans.per_layer_spec()}


def main(argv=None):
    args = parse_args(argv)
    try:
        load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports the program, so only after load_program found it

    wl = workloads.make(args.workload, OUT / f"work-{args.workload}-{os.getpid()}", args.seed)
    if args.probe == "setup":
        wl.prepare()
        wl.cleanup()
        return 0
    if args.probe == "single-thread":
        wl.prepare()
        try:
            p = wl.check(*wl.run_pass(0))
        finally:
            wl.cleanup()
        print(json.dumps({"run_s": p.wall_s, "attempted": p.attempted, "failures": p.failures,
                          "blas_threads": blas_threads(),
                          "rel_err": {m: geomean(p.rel_err[m]) for m in METHODS}}))
        return 0

    setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    tracer = spans.Tracer() if args.trace else None
    wl.prepare()
    try:
        untraced, traced = run_passes(wl, args.seconds, tracer)
    finally:
        wl.cleanup()
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes) + len(setup)
    failures = [f for p in passes for f in p.failures]
    failures += [f"setup probe exited {rc}" for _, rc in setup if rc != 0]

    prov = provenance(args, {n: workloads.make(n, wl.workdir, args.seed).definition() for n in WORKLOADS})
    record = {"provenance": prov}
    if args.trace:
        # pass 0 was untraced, so the 1-thread child repeats it exactly
        single = single_thread_pass(args)
        if "error" in single:
            attempted += 1
            failures.append(f"single-thread pass: {single['error']}")
        else:
            attempted += single["attempted"]
            failures += single["failures"]
        record["single_thread"] = single
        record["trace"] = {"untraced_passes": len(untraced), "traced_passes": len(traced),
                           "zero_call_sites": tracer.zero_call_sites(),
                           "missing_sites": tracer.missing_sites}
        metrics = per_layer(tracer, untraced, traced, single, prov["blas_threads"],
                            len(failures) / attempted)
        record["per_layer"] = metrics
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.json", "w") as f:
            json.dump({"provenance": prov, **tracer.dump()}, f)
    record["end_to_end"] = end_to_end(untraced, [t for t, _ in setup], attempted, len(failures))
    if not args.trace:
        metrics = record["end_to_end"]
    record["passes"] = [{"wall_s": p.wall_s, "decomp_s": p.decomp_s, "op_s": p.op_s} for p in untraced]
    record["failures"] = failures
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    for reason in failures[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)
    for name, m in metrics.items():
        extra = f"  n={m['n']}" if "n" in m else ""
        if m.get("tail") is not None:
            extra += f"  p{m['tail_pct']:.0f}={m['tail']:.6g}"
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}{extra}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
