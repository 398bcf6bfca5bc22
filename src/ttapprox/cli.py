"""Command line front end.

Exit codes: 0 success, 2 invalid arguments (a tensor too big to index
among them) or out of memory, 3 I/O or parse failure, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from ._container import _open_output
from .bench import BenchPlan, emit, run_bench
from .datagen import add_awgn, power_function_tensor, spectrum_decay_tensor, tensor_load, tensor_save
from .decompose import METHODS, SketchConfig, run_method
from .errors import InvalidArgumentError, ParseError
from .metrics import error_metrics
from .tt import tt_load, tt_reconstruct, tt_save


def _int_csv(s: str):
    return tuple(int(v) for v in s.split(","))


def _cmd_synth_spectrum(args) -> int:
    tensor_save(spectrum_decay_tensor(args.n, args.T, args.D), args.output)
    return 0


def _cmd_synth_powerfn(args) -> int:
    tensor_save(power_function_tensor(args.dims, args.h), args.output)
    return 0


def _cmd_noise(args) -> int:
    t = tensor_load(args.input)
    tensor_save(add_awgn(t, args.snr, args.seed), args.output)
    return 0


def _cmd_decompose(args) -> int:
    t = tensor_load(args.input)
    tt, trace = run_method(
        args.method, t, args.ranks, args.epsilon, p=args.p, q=args.q, seed=args.seed
    )
    tt_save(tt, args.output)
    if args.trace:
        payload = {**dataclasses.asdict(trace), "residual_sq_sum": trace.residual_sq_sum}
        with _open_output(args.trace, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    return 0


def _cmd_reconstruct(args) -> int:
    tensor_save(tt_reconstruct(tt_load(args.input)), args.output)
    return 0


def _cmd_metrics(args) -> int:
    ref = tensor_load(args.ref)
    approx = tensor_load(args.approx)
    rel_err, psnr_db = error_metrics(ref, approx)
    print(f"rel_err {rel_err:.17g}")
    print(f"psnr {psnr_db:.17g}")
    return 0


def _cmd_bench(args) -> int:
    with open(args.plan, encoding="utf-8") as f:
        try:
            spec = json.load(f)
        except RecursionError as exc:  # nested deeper than the interpreter's stack
            raise ParseError(f"invalid JSON: {exc}") from None
    plan = BenchPlan.from_dict(spec)
    emit(run_bench(plan), args.format, args.output)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared by
    every later one: parsing leaves it unchanged, and building it takes
    about a millisecond, a visible share of a small command."""
    parser = argparse.ArgumentParser(
        prog="ttapprox",
        description="Tensor-train low-rank approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic tensor")
    synth_sub = synth.add_subparsers(dest="generator", required=True)
    sp = synth_sub.add_parser("spectrum", help="diagonal-slice tensor with rank plateau")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--D", type=float, required=True)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_synth_spectrum)
    pf = synth_sub.add_parser("powerfn", help="inverse power-sum tensor")
    pf.add_argument("--dims", type=_int_csv, required=True, metavar="I1,I2,...")
    pf.add_argument("--h", type=float, required=True)
    pf.add_argument("-o", "--output", required=True)
    pf.set_defaults(func=_cmd_synth_powerfn)

    noise = sub.add_parser("noise", help="add white Gaussian noise at a target SNR")
    noise.add_argument("--snr", type=float, required=True)
    noise.add_argument("--seed", type=int, required=True)
    noise.add_argument("-i", "--input", required=True)
    noise.add_argument("-o", "--output", required=True)
    noise.set_defaults(func=_cmd_noise)

    dec = sub.add_parser("decompose", help="TT-decompose a .dten tensor")
    dec.add_argument("--method", choices=list(METHODS), required=True)
    dec.add_argument("--epsilon", type=float)
    dec.add_argument("--ranks", type=_int_csv, metavar="r1,r2,...")
    dec.add_argument("--p", type=int, default=SketchConfig.p)
    dec.add_argument("--q", type=int, default=SketchConfig.q)
    dec.add_argument("--seed", type=int, default=SketchConfig.seed)
    dec.add_argument(
        "--svd-truncate",
        action="store_true",
        help="no effect, accepted for older scripts: the randomized methods "
        "always keep the top left singular vectors of their sketch",
    )
    dec.add_argument("-i", "--input", required=True)
    dec.add_argument("-o", "--output", required=True)
    dec.add_argument("--trace", help="write per-step trace JSON here")
    dec.set_defaults(func=_cmd_decompose)

    rec = sub.add_parser("reconstruct", help="expand a .ttc back to dense")
    rec.add_argument("-i", "--input", required=True)
    rec.add_argument("-o", "--output", required=True)
    rec.set_defaults(func=_cmd_reconstruct)

    met = sub.add_parser("metrics", help="print rel_err and psnr of two tensors")
    met.add_argument("--ref", required=True)
    met.add_argument("--approx", required=True)
    met.set_defaults(func=_cmd_metrics)

    ben = sub.add_parser("bench", help="run a sweep plan and emit records")
    ben.add_argument("--plan", required=True)
    ben.add_argument("-o", "--output", required=True)
    ben.add_argument("--format", choices=["csv", "json"], default="csv")
    ben.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 3
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
