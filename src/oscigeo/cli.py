"""Command-line surface: classify, trace and verify.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 output I/O error.  All numeric inputs use the exact scalar text form
(e.g. "1/2", "2*pi", "1/(4*pi)"); CSV output uses dot decimals, LF line
endings and 17 significant digits.  Randomized suites take their seed
from --seed, defaulting to the OSCIGEO_SEED environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .groups import IDENTITY, LatticeSpec, parse_group_element
from .metric import TangentVector
from .quotients import classify_geodesic, verdict_to_json
from .scalar import DivisionByZero, Scalar, parse_scalar

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def parse_vector(text: str) -> TangentVector:
    """Parse "a0=...,a1=...,a2=...,a3=..." or four comma-separated scalars."""
    chunks = [c.strip() for c in text.split(",")]
    if len(chunks) != 4:
        raise ValueError(f"vector needs 4 components, got {len(chunks)} in {text!r}")
    values: list[Scalar | None] = [None] * 4
    # four chunks, each setting a different component, set all four
    for i, chunk in enumerate(chunks):
        key, named, body = chunk.partition("=")
        if named:
            key = key.strip().lower()
            if key not in ("a0", "a1", "a2", "a3"):
                raise ValueError(f"unknown vector component {key!r}")
            i = int(key[1])
        if values[i] is not None:
            raise ValueError(f"vector component 'a{i}' is given twice in {text!r}")
        values[i] = parse_scalar(body if named else chunk)
    return TangentVector(*values)  # type: ignore[arg-type]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parse_args leaves
    it unchanged, and help text is laid out (COLUMNS included) when printed."""
    parser = argparse.ArgumentParser(
        prog="oscigeo",
        description="Geometry engine for the oscillator group and its compact Lorentzian quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = argparse.ArgumentDefaultsHelpFormatter

    p_classify = sub.add_parser(
        "classify",
        help="exact causal type and periodicity of a geodesic direction",
        formatter_class=defaults,
    )
    p_classify.add_argument("--lattice", required=True, help="k=<int>,twist=<full|half|quarter>")
    p_classify.add_argument(
        "--vector", required=True, help='"a0=..,a1=..,a2=..,a3=.." in exact scalar syntax'
    )
    p_classify.add_argument("--format", choices=("text", "json"), default="text", help="output format")

    p_trace = sub.add_parser(
        "trace", help="sample a geodesic to CSV or JSON", formatter_class=defaults
    )
    p_trace.add_argument("--vector", required=True, help="direction in exact scalar syntax")
    p_trace.add_argument("--base", default=None, help='start point "(t; x, y; z)"')
    p_trace.add_argument("--s-end", type=float, default=10.0, help="final parameter value")
    p_trace.add_argument("--step", type=float, default=0.01, help="sampling step")
    p_trace.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p_trace.add_argument("--output", default="-", help="output path, - for stdout")
    p_trace.add_argument(
        "--quotient", action="store_true", help="reduce samples to lattice coset normal forms"
    )
    p_trace.add_argument("--lattice", default=None, help="with --quotient only, which requires it")
    p_trace.add_argument(
        "--rk4", action="store_true", help="sample the RK4 integrator instead of the closed form"
    )
    p_trace.add_argument(
        "--rk4-check",
        action="store_true",
        help="append a diff column: sup distance between closed form and RK4 per sample",
    )

    p_verify = sub.add_parser(
        "verify", help="run the verification suites", formatter_class=defaults
    )
    p_verify.add_argument(
        "--suite",
        action="append",
        default=None,
        help="suite to run (repeatable); default: every suite",
    )
    p_verify.add_argument(
        "--seed", type=int, default=None, help="suite seed; default OSCIGEO_SEED or 0"
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    return parser


def _default_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("OSCIGEO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"OSCIGEO_SEED must be an integer, got {env!r}") from None
    return 0


@contextlib.contextmanager
def _ints_print_in_full():
    """Lift Python's cap on int-to-text digits (3.10.7 on) for the block, then restore it.

    str(int) and json's int.__repr__ refuse more than sys.get_int_max_str_digits()
    digits, and a witness m can be longer."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def cmd_classify(args) -> int:
    lattice = LatticeSpec.parse(args.lattice)
    vector = parse_vector(args.vector)
    causal, verdict = classify_geodesic(lattice, vector)
    with _ints_print_in_full():
        if args.format == "json":
            print(json.dumps(verdict_to_json(causal, verdict)))
            return EXIT_OK
        parts = [causal.value, verdict.kind.value]
        if verdict.minimal_T is not None:
            parts.append(f"T = {verdict.minimal_T} (float {float(verdict.minimal_T):.15g})")
        if verdict.witness_m is not None:
            parts.append(f"m = {verdict.witness_m}")
        print(", ".join(parts))
    return EXIT_OK


def cmd_trace(args) -> int:
    import numpy as np

    from . import floats

    vector = parse_vector(args.vector)
    base = IDENTITY if args.base is None else parse_group_element(args.base)
    # converted once: the finiteness check and the float layer read the same arrays
    a, h = np.array(vector.to_float()), np.array(base.to_float())
    if not (np.isfinite(a).all() and np.isfinite(h).all()):
        raise ValueError("the direction and the base point must lie within the float range")
    if args.quotient != (args.lattice is not None):
        raise ValueError("--quotient and --lattice must be given together")
    lattice = LatticeSpec.parse(args.lattice) if args.quotient else None
    # the first chunk is computed here, so a request refused within it writes nothing
    chunks = floats.trace_chunks(
        h, a, args.s_end, args.step, lattice, rk4=args.rk4, diff=args.rk4_check)

    def write(stream) -> None:
        if args.format == "json":
            floats.path_to_json(chunks, stream)
        else:
            floats.path_to_csv(chunks, stream, "s,t,x,y,z,diff" if args.rk4_check else "s,t,x,y,z")

    try:
        if args.output == "-":
            write(sys.stdout)
        else:
            with open(args.output, "w", newline="") as stream:
                write(stream)
    except OSError as exc:
        print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suites

    seed = _default_seed(args.seed)
    names = args.suite if args.suite else None
    results = run_suites(names, seed=seed)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "suite": r.name,
                        "passed": r.passed,
                        "checks": r.checks,
                        "failures": r.failures[:20],
                    }
                    for r in results
                ]
            )
        )
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.name:<{width}}  {status}  ({r.checks} checks)")
            for failure in r.failures[:10]:
                print(f"    {failure}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


_COMMANDS = {"classify": cmd_classify, "trace": cmd_trace, "verify": cmd_verify}


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join "--opt -value" into "--opt=-value".

    argparse reads a value led by "-", such as the vector "-1,0,0,1/2", as
    an option; "-h", the one single-dash option, stays apart."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if arg[:1] == "-" and arg[:2] != "--" and arg != "-h" and prev[:2] == "--" and "=" not in prev:
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, DivisionByZero) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
