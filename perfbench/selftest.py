"""Self-test of the benchmark's output checks and its report.

    python3 perfbench/selftest.py

Corrupted outputs must be counted as failed operations: a bench row with
an empty rel_err (emit drops the error column), a clean row that breaks
the residual identity, a missing row, a .ttc with a non-orthogonal core
and a command that exits non-zero.  A short cli-files run must print
every metric BENCHMARK.json names, with its unit, for --trace 0 and
--trace 1, and the benchmark must exit non-zero without a result where
the program source is missing.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import run
import spans

run.load_program()
import workloads  # noqa: E402
from ttapprox.tt import TTTensor, tt_load, tt_save  # noqa: E402

PROBLEMS = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        PROBLEMS.append(what)


def bench_checks(workdir):
    # the powerfn5-clean plan on a 6^4 tensor
    wl = workloads.BenchWorkload("powerfn5-clean", workdir, 0, {"kind": "powerfn", "dims": [6] * 4, "h": 5},
                                 [2, 3], None)
    wl.prepare()
    try:
        wall, pending = wl.run_pass(0)
        good = wl.check(wall, pending)
        expect(not good.failures and good.attempted == 16, f"clean bench pass: {good.failures}")

        rows_path = pending[3]
        with open(rows_path, newline="") as f:
            rows = list(csv.reader(f))
        header = rows[0]

        def corrupted(edit):
            bad = [list(r) for r in rows]
            edit(bad)
            with open(rows_path, "w", newline="") as f:
                csv.writer(f).writerows(bad)
            return wl.check(wall, pending).failures

        def blank_rel_err(bad):
            bad[1][header.index("rel_err")] = ""

        def break_identity(bad):
            i = header.index("trace_sum_sq")
            bad[2][i] = repr(float(bad[2][i]) * (1 + 1e-6) + 1e-9)

        def drop_row(bad):
            del bad[3]

        f = corrupted(blank_rel_err)
        expect(len(f) == 1 and "empty rel_err" in f[0], f"empty rel_err counted: {f}")
        f = corrupted(break_identity)
        expect(len(f) == 1 and "residual identity" in f[0], f"broken identity counted: {f}")
        f = corrupted(drop_row)
        expect(len(f) == 1 and "missing row" in f[0], f"missing row counted: {f}")
        expect(len(wl.check(wall, (pending[0], 4, "boom", rows_path)).failures) == 16,
               "non-zero bench exit fails every cell")
    finally:
        wl.cleanup()


def cli_checks(workdir):
    wl = workloads.make("cli-files", workdir, 0)
    wl.prepare()
    try:
        wall, pending = wl.run_pass(0)
        good = wl.check(wall, pending)
        expect(not good.failures and good.attempted == 126, f"clean cli pass: {good.failures}")

        cmds, outcomes = pending
        i = next(k for k, c in enumerate(cmds) if c[0] == "decompose" and c[1] == "rsvd")
        ttc = cmds[i][3]
        tt = tt_load(ttc)
        tt_save(TTTensor([tt.cores[0] * 1.5] + list(tt.cores[1:])), ttc)
        f = wl.check(wall, pending).failures
        expect(len(f) == 1 and "invalid TT" in f[0], f"non-orthogonal core counted: {f}")

        outcomes = list(outcomes)
        rc, out, err, dt = outcomes[-1]
        outcomes[-1] = (rc, "rel_err nan\n", err, dt)
        outcomes[-2] = (3, "", "error: boom", outcomes[-2][3])
        f = wl.check(wall, (cmds, outcomes)).failures
        expect(len(f) == 3, f"bad metrics output and non-zero exit counted: {f}")
    finally:
        wl.cleanup()


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def report_checks():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "cli-files", "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        res = last_json(proc.stdout)
        expect(proc.returncode == 0 and res is not None, f"--trace {trace} run printed a result")
        if res is None:
            continue
        expect(set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, "clean run is correct")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == want, f"--trace {trace} prints every {key} metric with its unit")
        expect(all(isinstance(v["value"], (int, float)) and np.isfinite(v["value"])
                   for v in res["metrics"].values()), f"--trace {trace} values are finite numbers")
        if key == "per_layer":
            expect(sorted(want) == sorted(n for n, _ in spans.per_layer_spec()), "per_layer list matches spans.py")


def bare_checkout_check():
    bare = run.OUT / f"selftest-bare-{os.getpid()}"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-files", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        expect(proc.returncode != 0 and last_json(proc.stdout) is None,
               "no program source: non-zero exit, no result")
    finally:
        shutil.rmtree(bare)


def main():
    bench_checks(run.OUT / f"selftest-bench-{os.getpid()}")
    cli_checks(run.OUT / f"selftest-cli-{os.getpid()}")
    report_checks()
    bare_checkout_check()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
