"""The benchmark's four workloads: seeded inputs, the timed request, its check.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Inputs are generated in rounds from
the run's seed, and each round holds the workload's full mix, so that a
run of whole rounds always sees the same proportions.  The program under
test receives only the generated inputs, as text where its users give
text.  Each request carries reference answers computed here, with
`fractions` and `reference`, never with oscigeo.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from oscigeo import cli, geodesics, groups, quotients

CLASSES = ("null", "nonnull", "pi", "line")
FAMILIES = tuple((k, twist) for k in (1, 2, 3) for twist in ("full", "half", "quarter"))
QUARTERS = {"full": 4, "half": 2, "quarter": 1}


@dataclass
class Request:
    tag: str
    args: dict
    expect: dict = field(default_factory=dict)
    # the request's position in the round mix; each slot occurs once per round
    slot: str = ""


def round_rng(workload: str, seed: int, index) -> random.Random:
    """The generator of one round; string seeding is stable across processes."""
    return random.Random(f"{workload}/{seed}/{index}")


def _rational(rng: random.Random, top: int = 9, den: int = 6) -> Fraction:
    return Fraction(rng.randint(1, top) * rng.choice((1, -1)), rng.randint(1, den))


def _maybe_zero(rng: random.Random, top: int = 9, den: int = 6) -> Fraction:
    return Fraction(0) if rng.random() < 0.2 else _rational(rng, top, den)


def _plus_over_pi(c: Fraction, r: Fraction) -> str:
    """Text of c + r/pi: degree at most 1 in pi and short numerals."""
    sign = "+" if r > 0 else "-"
    return f"{c} {sign} {abs(r.numerator)}/({r.denominator}*pi)"


def _vector(a0, a1, a2, a3) -> str:
    return f"a0={a0},a1={a1},a2={a2},a3={a3}"


def _causal(sign) -> str:
    return "null" if sign == 0 else ("spacelike" if sign > 0 else "timelike")


def _line_components(rng: random.Random, top: int = 4) -> tuple[Fraction, Fraction, Fraction]:
    while True:
        comps = tuple(_maybe_zero(rng, top, top) for _ in range(3))
        if any(comps):
            return comps


class ClassifyMix:
    name = "classify-mix"
    why = (
        "The engine's main use: a text request in, a verdict out. Nearly all time is Q(pi) "
        "arithmetic, sign refinement, parsing and printing; no numpy and no scans."
    )
    tail_cap = 99.0
    traced_rounds = 40

    def make_round(self, rng: random.Random) -> list[Request]:
        # 36 requests: each of the four classes on each of the nine families once
        return [self._request(rng, CLASSES[j % 4], *FAMILIES[j // 4]) for j in range(36)]

    def _request(self, rng, cls, k, twist) -> Request:
        lattice = f"k={k},twist={twist}"
        if cls == "line":
            a1, a2, a3 = _line_components(rng)
            expect = {
                "causal": "spacelike" if a1 or a2 else "null",
                "kind": "periodic",
                "T": reference_line_period((a1, a2, a3), k),
            }
            args = {"lattice": lattice, "vector": _vector(0, a1, a2, a3)}
            return Request(cls, args, expect, f"{cls} {lattice}")
        a0 = _rational(rng, 5, 4)
        a1, a2 = _maybe_zero(rng), _maybe_zero(rng)
        sq = a1 * a1 + a2 * a2
        expect = {"a0": float(a0), "t_step": QUARTERS[twist] * math.pi / 2}
        if cls == "null":
            a3 = -sq / (2 * a0)
            # residue 0 always closes, so the minimal witness is at most one cycle
            expect.update(causal="null", kind="periodic", max_m=4 // QUARTERS[twist])
        elif cls == "nonnull":
            a3 = _rational(rng)
            while sq + 2 * a0 * a3 == 0:
                a3 = _rational(rng)
            expect.update(causal=_causal(sq + 2 * a0 * a3), kind="non-closed")
        else:
            r = _rational(rng)
            a3 = _plus_over_pi(-sq / (2 * a0), r)
            # |X|^2 = 2 a0 r / pi
            expect.update(causal=_causal(a0 * r), kind="periodic")
        args = {"lattice": lattice, "vector": _vector(a0, a1, a2, a3)}
        return Request(cls, args, expect, f"{cls} {lattice}")

    def run(self, req: Request):
        L = groups.LatticeSpec.parse(req.args["lattice"])
        X = cli.parse_vector(req.args["vector"])
        causal, verdict = quotients.classify_geodesic(L, X)
        T = verdict.minimal_T
        shown = None if T is None else (str(T), float(T))
        return L, X, causal, verdict, shown

    def check(self, req: Request, out) -> str | None:
        L, X, causal, verdict, shown = out
        e = req.expect
        if causal.value != e["causal"]:
            return f"causal type {causal.value}, expected {e['causal']}"
        if verdict.kind.value != e["kind"]:
            return f"verdict {verdict.kind.value}, expected {e['kind']}"
        if e["kind"] != "periodic":
            return None
        text, value = shown
        if "T" in e:
            if Fraction(text) != e["T"]:
                return f"minimal T {text}, expected {e['T']}"
        else:
            m = verdict.witness_m
            if not isinstance(m, int) or m < 1 or m > e.get("max_m", m):
                return f"witness m = {m} out of range"
            if abs(value * abs(e["a0"]) / e["t_step"] - m) > 1e-9 * m:
                return f"T = {text} is not t_step * {m} / |a0|"
        if not groups.lattice_contains(L, geodesics.exp_map(X.scale(verdict.minimal_T))):
            return f"exp(T X) with T = {text} is not in the lattice"
        return None

    def summary(self, per_slot: Counter) -> str:
        classes = Counter()
        for slot, n in per_slot.items():
            classes[slot.split()[0]] += n
        counts = " ".join(f"{c}={classes[c]}" for c in CLASSES)
        return f"classes {counts}, each round-robin over the 9 families"

    def throughput(self, requests_per_s: float):
        return "verdicts_per_s", requests_per_s, "1/s"


class Certify:
    name = "certify"
    why = (
        "Proving a period minimal: minimal_period(verify=True) scans every smaller admissible "
        "period with exact exp_map and lattice_contains, then an exact first-return normal form."
    )
    tail_cap = 90.0
    traced_rounds = 4

    # a log-uniform grid of witnesses from 2 to 300, the same in every round, so
    # that every round carries the same scan work; the seed draws the rest
    WITNESSES = tuple(round(300 ** ((i + 1) / 12)) for i in range(12))

    def make_round(self, rng: random.Random) -> list[Request]:
        body = [self._full(rng, m) for m in self.WITNESSES]
        rng.shuffle(body)
        # a line direction opens each round: it is the set-up probe.  Thirteen
        # requests put the median latency on the m = 17 request, not between two.
        return [self._line(rng)] + body

    def _full(self, rng, m) -> Request:
        k = rng.choice((1, 2, 3))
        a0 = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
        a1, a2 = _rational(rng), _rational(rng)
        n = rng.randint(1, 9)
        while math.gcd(n, m) != 1:
            n = rng.randint(1, 9)
        # the z-condition is A m in Z with A = 4 k r / |a0| = n / m in lowest terms
        r = rng.choice((1, -1)) * abs(a0) * n / (4 * k * m)
        c = -(a1 * a1 + a2 * a2) / (2 * a0)
        args = {
            "lattice": f"k={k},twist=full",
            "vector": _vector(a0, a1, a2, _plus_over_pi(c, r)),
            # t_step / |a0|, the first return of the t coordinate
            "s1": f"{2 / abs(a0)}*pi",
        }
        expect = {
            "m": m,
            "T": 2 * math.pi * m / float(abs(a0)),
            "a": (float(a0), float(a1), float(a2), float(c) + float(r) / math.pi),
            "s1": 2 * math.pi / float(abs(a0)),
            "k": k,
            "twist": "full",
        }
        return Request("full", args, expect, f"m={m}")

    def _line(self, rng) -> Request:
        k, twist = rng.choice(FAMILIES)
        comps = _line_components(rng, 3)
        steps = (1, 1, Fraction(1, 2 * k))
        s1 = min(Fraction(step) / abs(a) for a, step in zip(comps, steps) if a)
        args = {"lattice": f"k={k},twist={twist}", "vector": _vector(0, *comps), "s1": str(s1)}
        expect = {
            "T": reference_line_period(comps, k),
            "a": (0.0,) + tuple(float(a) for a in comps),
            "s1": float(s1),
            "k": k,
            "twist": twist,
        }
        return Request("line", args, expect, "line")

    def run(self, req: Request):
        L = groups.LatticeSpec.parse(req.args["lattice"])
        X = cli.parse_vector(req.args["vector"])
        T = quotients.minimal_period(L, X, verify=True)
        first_return = groups.coset_normal_form(L, geodesics.exp_map(X.scale(req.args["s1"])))
        return L, X, T, None if T is None else (str(T), float(T)), first_return

    def traced_extra(self, req: Request, out, tracer) -> None:
        """quotients.verify_ms: the same request's minimal_period without verification."""
        L, X = out[0], out[1]
        t0 = perf_counter()
        quotients.minimal_period(L, X, verify=False)
        unverified = perf_counter() - t0
        tracer.sample("quotients.verify_ms", (tracer.last_minimal_period_s - unverified) * 1e3)

    def check(self, req: Request, out) -> str | None:
        from reference import LATTICE_TOL, closed_form, coset_error

        _, _, T, shown, nf = out
        e = req.expect
        if T is None:
            return "no period found"
        text, value = shown
        if req.tag == "line":
            if Fraction(text) != e["T"]:
                return f"minimal T {text}, expected {e['T']}"
        elif abs(value - e["T"]) > 1e-9 * e["T"]:
            return f"minimal T {text}, expected witness m = {e['m']}"
        point = [float(c) for c in (nf.t, nf.x, nf.y, nf.z)]
        err = coset_error(e["twist"], e["k"], closed_form(e["a"], e["s1"]), point)
        if err > LATTICE_TOL:
            return f"first-return normal form {nf} leaves the coset (error {err:.3g})"
        return None

    def summary(self, per_slot: Counter) -> str:
        witnesses = " ".join(f"{m}:{per_slot[f'm={m}']}" for m in self.WITNESSES)
        return f"witness histogram {witnesses}; line directions {per_slot['line']}"

    def throughput(self, requests_per_s: float):
        return "verdicts_per_s", requests_per_s, "1/s"


class Trace:
    name = "trace"
    why = (
        "Float sampling through the CLI: closed form per sample, coset reduction, RK4 and CSV "
        "writing; the exact layer only parses the inputs."
    )
    tail_cap = 75.0
    traced_rounds = 6
    SAMPLES = 2000
    STEPS = (0.001, 0.002, 0.0025, 0.004, 0.005)
    # the RK4 oracle at these steps and |a_i| <= 3 stays far below this sup distance
    DIFF_BOUND = 1e-6

    def __init__(self, scratch: Path):
        self.output = scratch / "trace.csv"

    def make_round(self, rng: random.Random) -> list[Request]:
        return [self._request(rng, "quotient"), self._request(rng, "rk4-check")]

    def _request(self, rng, tag) -> Request:
        step = rng.choice(self.STEPS)
        s_end = self.SAMPLES * step
        a = (_rational(rng, 3, 3),) + tuple(_maybe_zero(rng, 3, 4) for _ in range(3))
        base = tuple(_maybe_zero(rng, 3, 4) for _ in range(4))
        argv = [
            "trace",
            "--vector", _vector(*a),
            "--base", f"({base[0]}; {base[1]}, {base[2]}; {base[3]})",
            "--s-end", repr(s_end),
            "--step", repr(step),
            "--output", str(self.output),
        ]
        expect = {"a": [float(c) for c in a], "base": [float(c) for c in base], "step": step}
        if tag == "quotient":
            k, twist = rng.choice(FAMILIES)
            argv += ["--quotient", "--lattice", f"k={k},twist={twist}"]
            expect.update(k=k, twist=twist)
        else:
            argv.append("--rk4-check")
        return Request(tag, {"argv": argv}, expect, tag)

    def run(self, req: Request):
        return cli.main(req.args["argv"])

    def check(self, req: Request, out) -> str | None:
        import numpy as np

        from reference import LATTICE_TOL, closed_form, coset_error, group_mul

        if out != 0:
            return f"exit code {out}"
        e = req.expect
        with open(self.output) as stream:
            header = stream.readline().strip()
            rows = np.loadtxt(stream, delimiter=",", ndmin=2)
        quotient = req.tag == "quotient"
        want = "s,t,x,y,z" if quotient else "s,t,x,y,z,diff"
        if header != want or rows.shape != (self.SAMPLES + 1, len(want.split(","))):
            return f"header {header!r} and shape {rows.shape}"
        s = np.arange(self.SAMPLES + 1) * e["step"]
        if np.max(np.abs(rows[:, 0] - s)) > 1e-9:
            return "sample parameters are not i * step"
        ref = group_mul(np.array(e["base"]), closed_form(e["a"], s))
        if quotient:
            err = coset_error(e["twist"], e["k"], ref, rows[:, 1:5])
            if err > LATTICE_TOL:
                return f"a reduced sample leaves its coset (error {err:.3g})"
            return None
        err = np.max(np.abs(rows[:, 1:5] - ref) / np.maximum(1.0, np.abs(ref)))
        if err > 1e-9:
            return f"closed-form samples differ from the reference by {err:.3g}"
        if not np.all((rows[:, 5] >= 0) & (rows[:, 5] <= self.DIFF_BOUND)):
            return f"RK4 diff column reaches {rows[:, 5].max():.3g} > {self.DIFF_BOUND}"
        return None

    def summary(self, per_slot: Counter) -> str:
        samples = per_slot.total() * (self.SAMPLES + 1)
        return (f"requests quotient={per_slot['quotient']} rk4-check={per_slot['rk4-check']}; "
                f"samples {samples}")

    def throughput(self, requests_per_s: float):
        return "samples_per_s", requests_per_s * (self.SAMPLES + 1), "1/s"


class Verify:
    name = "verify"
    why = (
        "The only traffic through isometries and the exact inner_aut/normalizer grid: many small "
        "exact values. The geodesics suite is left out; its RK4 work is in the trace workload."
    )
    tail_cap = 75.0
    traced_rounds = 1
    # cheapest first: the first request of a round is the set-up probe
    SUITES = ("metric", "curvature", "scalar", "groups", "isometries", "quotients", "normalizer")

    def make_round(self, rng: random.Random) -> list[Request]:
        seed = str(rng.randrange(10**6))
        return [
            Request(
                suite,
                {"argv": ["verify", "--seed", seed, "--suite", suite, "--format", "json"]},
                slot=suite,
            )
            for suite in self.SUITES
        ]

    def run(self, req: Request):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(req.args["argv"])
        return code, captured.getvalue()

    def check(self, req: Request, out) -> str | None:
        code, text = out
        if code != 0:
            return f"suite {req.tag} exit code {code}: {text[:200]}"
        report = json.loads(text)
        if len(report) != 1 or report[0]["suite"] != req.tag:
            return f"suite {req.tag} report names {[r.get('suite') for r in report]}"
        if report[0]["passed"] is not True or report[0]["checks"] < 1:
            return f"suite {req.tag} did not pass: {report[0]['failures'][:3]}"
        return None

    def summary(self, per_slot: Counter) -> str:
        return "suites run " + " ".join(f"{suite}={per_slot[suite]}" for suite in self.SUITES)

    def throughput(self, requests_per_s: float):
        return "verify_run_s", len(self.SUITES) / requests_per_s, "s"


def reference_line_period(components, k: int) -> Fraction:
    """Minimal T > 0 with a_i T in step_i Z for the nonzero a_i of a line direction.

    Each component allows T in (step_i / |a_i|) Z with steps (1, 1, 1/2k); the
    minimal period is the lcm of these rationals, lcm(numerators) / gcd(denominators).
    """
    steps = (Fraction(1), Fraction(1), Fraction(1, 2 * k))
    units = [step / abs(a) for a, step in zip(components, steps) if a != 0]
    num, den = units[0].numerator, units[0].denominator
    for u in units[1:]:
        num = num * u.numerator // math.gcd(num, u.numerator)
        den = math.gcd(den, u.denominator)
    return Fraction(num, den)


def make_workloads(scratch: Path) -> dict:
    workloads = (ClassifyMix(), Certify(), Trace(scratch), Verify())
    return {w.name: w for w in workloads}
