"""Pins of the answers and of the work on one seeded list of requests.

The requests are generated here, from a fixed seed, so that no change to
the benchmark can move them: the four direction classes of perfbench's
classify-mix (null, non-null, closing through a3 = null value + r/pi,
and lines, some of which carry a multiple of pi and never close) on all
nine families, directions of degree <= 2 in pi whose parsing and
deciding need polynomial gcds and sign refinement, and certify-style
closing directions on full twists with witnesses up to 300.

* The answer pin is the sha256 of ``oscigeo classify`` text and JSON on
  every request, run in process through ``cli.main``.
* The work pin is the total of ``Scalar``s built, ``scalar._pgcd`` calls
  and ``scalar._enclosures`` steps, counted by wrapping those three names
  through monkeypatch, once for ``classify`` on every request and once for
  the proof, ``minimal_period(verify=True)``, on every rotating direction.
  The counts are exact and repeatable, so a diff of the pin states what a
  change does to the work.

A change that moves an answer or the work on purpose updates the pin and
says in CHANGES.md what changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from fractions import Fraction

from oscigeo import cli, scalar
from oscigeo.groups import LatticeSpec
from oscigeo.quotients import minimal_period

FAMILIES = [f"k={k},twist={twist}" for k in (1, 2, 3) for twist in ("full", "half", "quarter")]
WITNESSES = (2, 3, 7, 17, 60, 300)

ANSWER_PINS = {
    "text": "787be07418a1806842cd84d20241de25c6ae271b60e4cd6a85bf876f07c6edb3",
    "json": "c62d35bc88f46aa54515e31dec390ff7570afae717700b5a04a515df7b2cfdad",
}
WORK_PINS = {
    # (Scalars built, _pgcd calls, _enclosures steps)
    "classify": (1876, 57, 19),
    "prove": (1322, 47, 19),
}


def _rational(rng: random.Random, top: int = 9, den: int = 6) -> Fraction:
    return Fraction(rng.randint(1, top) * rng.choice((1, -1)), rng.randint(1, den))


def _maybe_zero(rng: random.Random) -> Fraction:
    return Fraction(0) if rng.random() < 0.2 else _rational(rng)


def _poly(rng: random.Random) -> str:
    """Text of a nonzero polynomial in pi of degree <= 2 with coefficients in -3..3."""
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        if any(coeffs):
            return "(" + " + ".join(f"({c})*pi^{i}" for i, c in enumerate(coeffs)) + ")"


def _vector(a0, a1, a2, a3) -> str:
    return f"a0={a0},a1={a1},a2={a2},a3={a3}"


def _direction(rng: random.Random, cls: str) -> str:
    if cls == "line":
        while True:
            comps = [_maybe_zero(rng) for _ in range(3)]
            if any(comps):
                # a multiple of pi in one component makes some ratios irrational
                return _vector(0, *(f"{c}*pi" if c and rng.random() < 0.2 else c for c in comps))
    if cls == "wide":
        a0 = f"{_poly(rng)}/{_poly(rng)}"
        if rng.random() < 0.6:  # slopes in (1/2)Z, so that odd quarter turns can close
            a1, a2 = (f"({a0})*({rng.randint(-4, 4)}/2)" for _ in range(2))
        else:
            a1, a2 = (f"{_poly(rng)}/{_poly(rng)}" for _ in range(2))
        if rng.random() < 0.5:
            return _vector(a0, a1, a2, f"{_poly(rng)}/{_poly(rng)}")
        # |X|^2 = 2 c a0^2 / pi, so that A = |X|^2 pi / a0^2 is rational and X closes
        c = _rational(rng, 4, 4)
        return _vector(a0, a1, a2, f"-(({a1})^2 + ({a2})^2)/(2*({a0})) + ({c})*({a0})/pi")
    a0 = _rational(rng, 5, 4)
    a1, a2 = _maybe_zero(rng), _maybe_zero(rng)
    null = -(a1 * a1 + a2 * a2) / (2 * a0)
    if cls == "null":
        return _vector(a0, a1, a2, null)
    if cls == "nonnull":
        a3 = _rational(rng)
        while a3 == null:
            a3 = _rational(rng)
        return _vector(a0, a1, a2, a3)
    r = _rational(rng)
    return _vector(a0, a1, a2, f"{null} + ({r})/pi")


def _certify(rng: random.Random, m: int) -> tuple[str, str]:
    """A full-twist direction that closes at the witness m, as perfbench's certify draws them."""
    k = rng.choice((1, 2, 3))
    a0 = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
    a1, a2 = _rational(rng), _rational(rng)
    n = rng.randint(1, 9)
    while math.gcd(n, m) != 1:
        n = rng.randint(1, 9)
    # A = 4 k r / |a0| = n / m in lowest terms
    r = rng.choice((1, -1)) * abs(a0) * n / (4 * k * m)
    return f"k={k},twist=full", _vector(a0, a1, a2, f"{-(a1 * a1 + a2 * a2) / (2 * a0)} + ({r})/pi")


def requests() -> list[tuple[str, str]]:
    """(lattice, vector) texts: two rounds of five classes on nine families, then the certify ones."""
    rng = random.Random("oscigeo pins")
    out = [
        (lattice, _direction(rng, cls))
        for _ in range(2)
        for lattice in FAMILIES
        for cls in ("null", "nonnull", "pi", "line", "wide")
    ]
    return out + [_certify(rng, m) for m in WITNESSES for _ in range(2)]


def _classify(lattice: str, vector: str, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["classify", "--lattice", lattice, "--vector", vector, "--format", fmt])
    assert code == 0, (lattice, vector)
    return out.getvalue()


class _Work:
    """Counts Scalars built, _pgcd calls and _enclosures steps while installed."""

    def __init__(self, monkeypatch):
        self.scalars = self.gcds = self.steps = 0
        alloc, pgcd, enclosures = scalar._alloc, scalar._pgcd, scalar._enclosures

        def counted_alloc(cls):
            self.scalars += 1
            return alloc(cls)

        def counted_pgcd(a, b):
            self.gcds += 1
            return pgcd(a, b)

        def counted_enclosures(n, d):
            for step in enclosures(n, d):
                self.steps += 1
                yield step

        monkeypatch.setattr(scalar, "_alloc", counted_alloc)
        monkeypatch.setattr(scalar, "_pgcd", counted_pgcd)
        monkeypatch.setattr(scalar, "_enclosures", counted_enclosures)

    def totals(self) -> tuple[int, int, int]:
        return self.scalars, self.gcds, self.steps


def test_classify_answers_match_the_pins():
    reqs = requests()
    assert len(reqs) == 102
    for fmt, pin in ANSWER_PINS.items():
        digest = hashlib.sha256()
        for lattice, vector in reqs:
            digest.update(f"{lattice}\t{vector}\t{_classify(lattice, vector, fmt)}".encode())
        assert digest.hexdigest() == pin, fmt


def test_work_matches_the_pins(monkeypatch):
    reqs = requests()
    parsed = [(LatticeSpec.parse(lattice), cli.parse_vector(vector)) for lattice, vector in reqs]
    work = _Work(monkeypatch)
    for lattice, vector in reqs:
        _classify(lattice, vector, "text")
    classify = work.totals()
    work.scalars = work.gcds = work.steps = 0
    for L, X in parsed:
        if not X.a0.is_zero():
            minimal_period(L, X, verify=True)
    assert {"classify": classify, "prove": work.totals()} == WORK_PINS
