import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from oscigeo.scalar import ONE, PI, PI_HALF, ZERO, Scalar, pair, pmul
from oscigeo.groups import (
    GroupElement,
    IDENTITY,
    LatticeSpec,
    Twist,
    coset_equal,
    g_mul,
    lattice_contains,
)
from oscigeo.metric import CausalType, TangentVector
from oscigeo.geodesics import exp_map, exp_scaled
from oscigeo.floats import InvalidStep, trace_chunks
from oscigeo.cli import parse_vector
from oscigeo import geodesics, groups, isometries, quotients, scalar
from oscigeo.isometries import IsotropyElement, isotropy_matrix
from oscigeo.quotients import (
    PeriodicityVerdict,
    VerdictKind,
    classify_geodesic,
    minimal_period,
    verdict_to_json,
)

from .builders import from_coeffs

L10 = LatticeSpec(1, Twist.FULL)
L1H = LatticeSpec(1, Twist.HALF)
L1Q = LatticeSpec(1, Twist.QUARTER)
L20 = LatticeSpec(2, Twist.FULL)
ALL_FAMILIES = [LatticeSpec(k, tw) for k in (1, 2, 3) for tw in Twist]


def random_null(rng, allow_line=True):
    if allow_line and rng.random() < 0.1:
        a3 = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
        return TangentVector.of(0, 0, 0, a3)
    a0 = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
    a1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    a2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    a3 = -(a1 * a1 + a2 * a2) / (2 * a0)
    return TangentVector.of(a0, a1, a2, a3)


def test_null_with_rotation_closes_at_full_turn():
    X = TangentVector.of(2, 1, 1, Fraction(-1, 2))
    causal, verdict = classify_geodesic(L10, X)
    assert causal is CausalType.NULL
    assert verdict.kind is VerdictKind.PERIODIC
    assert verdict.minimal_T == PI  # 2*pi / |a0|
    assert lattice_contains(L10, exp_map(X.scale(verdict.minimal_T)))


def test_central_null_line():
    causal, verdict = classify_geodesic(L10, TangentVector.of(0, 0, 0, 1))
    assert causal is CausalType.NULL
    assert verdict.minimal_T == Scalar(Fraction(1, 2))
    _, verdict2 = classify_geodesic(L20, TangentVector.of(0, 0, 0, 1))
    assert verdict2.minimal_T == Scalar(Fraction(1, 4))
    _, verdict3 = classify_geodesic(L20, TangentVector.of(0, 0, 0, Fraction(1, 2)))
    assert verdict3.minimal_T == Scalar(Fraction(1, 2))


def test_witness_vectors():
    # closed spacelike, non-closed spacelike, closed timelike, non-closed timelike
    w_closed_space = TangentVector.of(1, 0, 0, Scalar(1) / (4 * PI))
    w_open_space = TangentVector.of(1, 0, 0, 1)
    w_closed_time = TangentVector.of(1, 0, 0, Scalar(-1) / (4 * PI))
    w_open_time = TangentVector.of(1, 0, 0, -1)

    causal, verdict = classify_geodesic(L10, w_closed_space)
    assert causal is CausalType.SPACELIKE and verdict.kind is VerdictKind.PERIODIC
    assert verdict.minimal_T == 2 * PI
    assert w_closed_space.norm_sq() == Scalar(1) / (2 * PI)

    causal, verdict = classify_geodesic(L10, w_open_space)
    assert causal is CausalType.SPACELIKE and verdict.kind is VerdictKind.NON_CLOSED

    causal, verdict = classify_geodesic(L10, w_closed_time)
    assert causal is CausalType.TIMELIKE and verdict.kind is VerdictKind.PERIODIC
    assert verdict.minimal_T == 2 * PI
    assert w_closed_time.norm_sq() == Scalar(-1) / (2 * PI)

    causal, verdict = classify_geodesic(L10, w_open_time)
    assert causal is CausalType.TIMELIKE and verdict.kind is VerdictKind.NON_CLOSED


def test_quarter_family_extra_closures():
    # a null direction closing at a quarter of the full turn on the finest family
    X = TangentVector.of(1, 1, 0, Fraction(-1, 2))
    periods = {}
    for L in (L10, L1H, L1Q):
        _, verdict = classify_geodesic(L, X)
        assert verdict.kind is VerdictKind.PERIODIC
        periods[L.twist] = verdict.minimal_T
    assert periods[Twist.FULL] == 2 * PI
    assert periods[Twist.HALF] == PI
    assert periods[Twist.QUARTER] == PI_HALF
    assert lattice_contains(L1Q, exp_map(X.scale(PI_HALF)))


def test_rational_direction_exclusion():
    rng = random.Random(0)
    for _ in range(60):
        a0 = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
        a = TangentVector.of(
            a0,
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        if a.norm_sq().is_zero():
            continue
        for L in ALL_FAMILIES:
            _, verdict = classify_geodesic(L, a)
            assert verdict.kind is VerdictKind.NON_CLOSED


def test_null_directions_always_periodic():
    rng = random.Random(1)
    for L in ALL_FAMILIES:
        for _ in range(25):
            X = random_null(rng)
            causal, verdict = classify_geodesic(L, X)
            assert causal is CausalType.NULL
            assert verdict.kind is VerdictKind.PERIODIC
            assert lattice_contains(L, exp_map(X.scale(verdict.minimal_T)))


def test_line_branch_intersections():
    _, verdict = classify_geodesic(L10, TangentVector.of(0, 1, 0, 1))
    assert verdict.minimal_T == Scalar(1)
    _, verdict = classify_geodesic(L10, TangentVector.of(0, 3, 2, 0))
    assert verdict.minimal_T == Scalar(1)
    _, verdict = classify_geodesic(L10, TangentVector.of(0, Fraction(1, 3), Fraction(1, 2), 0))
    assert verdict.minimal_T == Scalar(6)
    _, verdict = classify_geodesic(L10, TangentVector.of(0, 1, PI, 0))
    assert verdict.kind is VerdictKind.NON_CLOSED
    _, verdict = classify_geodesic(L10, TangentVector.of(0, PI, 0, 0))
    assert verdict.minimal_T == Scalar(1) / PI


def test_irrational_a3_line():
    # a3 = 1/(2 pi): T must make a3 T a half-integer: T = pi * k; x-condition
    # needs a1 T integer, impossible for a1 = 1
    _, verdict = classify_geodesic(L10, TangentVector.of(0, 1, 0, Scalar(1) / (2 * PI)))
    assert verdict.kind is VerdictKind.NON_CLOSED
    # alone it closes
    _, verdict = classify_geodesic(L10, TangentVector.of(0, 0, 0, Scalar(1) / (2 * PI)))
    assert verdict.minimal_T == PI


def test_irrational_rotating_singleton():
    # a0 != 0 closes iff |X|^2 pi / a0^2 is rational.  X = (1, 0, 0, 1/(2 pi))
    # has |X|^2 pi = 1 and closes; a3 = 1/(4 pi) + 1/4 instead gives
    # |X|^2 pi = 1/2 + pi/2, irrational, so the geodesic never closes
    a3 = Scalar(1) / (4 * PI) + Fraction(1, 4)
    X = TangentVector.of(1, 0, 0, a3)
    _, verdict = classify_geodesic(L10, X)
    # z(T) = a3 T = (1/(4 pi) + 1/4) 2 pi m = m/2 + (pi/2) m in (1/2) Z
    # requires (pi/2) m rational: only m = 0; never positive -> non-closed
    assert verdict.kind is VerdictKind.NON_CLOSED


def test_irrational_a0_directions():
    # null with a0 = pi: closes after two full turns of parameter length 2
    X = TangentVector.of(PI, 0, 0, 0)
    causal, verdict = classify_geodesic(L10, X)
    assert causal is CausalType.NULL and verdict.minimal_T == Scalar(2)
    assert lattice_contains(L10, exp_map(X.scale(Scalar(2))))
    X2 = TangentVector.of(PI, 1, 0, Scalar(-1) / (2 * PI))
    causal, verdict = classify_geodesic(L10, X2)
    assert causal is CausalType.NULL and verdict.kind is VerdictKind.PERIODIC
    assert lattice_contains(L10, exp_map(X2.scale(verdict.minimal_T)))
    # spacelike with a0 = pi and rational z-slope never closes
    X3 = TangentVector.of(PI, 0, 0, Scalar(1) / (2 * PI))
    causal, verdict = classify_geodesic(L10, X3)
    assert causal is CausalType.SPACELIKE and verdict.kind is VerdictKind.NON_CLOSED


def test_stationary_point():
    causal, verdict = classify_geodesic(L10, TangentVector.of(0, 0, 0, 0))
    assert verdict.kind is VerdictKind.STATIONARY_POINT
    assert verdict.minimal_T is None
    assert minimal_period(L10, TangentVector.of(0, 0, 0, 0)) is None


def test_minimal_period_verification_scan():
    # v-condition kills residue 1 on the half family: witness lands at m = 2
    X = TangentVector.of(1, Fraction(1, 3), 0, Fraction(-1, 18))
    causal, verdict = classify_geodesic(L1H, X)
    assert causal is CausalType.NULL
    assert verdict.witness_m == 2
    assert minimal_period(L1H, X) == 2 * PI
    assert not lattice_contains(L1H, exp_map(X.scale(PI)))


def test_minimal_period_line_scan():
    assert minimal_period(L10, TangentVector.of(0, Fraction(1, 2), 0, Fraction(1, 3))) == Scalar(6)
    assert minimal_period(L10, TangentVector.of(0, 1, 0, 1)) == Scalar(1)
    assert minimal_period(L10, TangentVector.of(0, 1, PI, 0)) is None


def test_minimal_period_divides_returns():
    rng = random.Random(2)
    for _ in range(20):
        X = random_null(rng, allow_line=False)
        _, verdict = classify_geodesic(L10, X)
        T = verdict.minimal_T
        for mult in (2, 3):
            assert lattice_contains(L10, exp_map(X.scale(T * mult)))


# the brute-force scan is an oracle for witnesses up to this many period units
_SCAN_LIMIT = 300


def _scan_unit(L, X):
    """A length every admissible period is an integer multiple of."""
    if X.a0.is_zero():
        a, step = next(
            (a, step) for a, step in zip((X.a1, X.a2, X.a3), (1, 1, L.z_step)) if not a.is_zero()
        )
        return Scalar(step) / abs(a)
    return L.t_step / abs(X.a0)


def _scan_minimal_period(L, X):
    """The least admissible period of at most _SCAN_LIMIT units, or None."""
    unit = _scan_unit(L, X)
    for j in range(1, _SCAN_LIMIT + 1):
        if lattice_contains(L, exp_map(X.scale(unit * j))):
            return unit * j
    return None


def _random_line(rng):
    comps = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3)]
    if not any(comps):
        comps[2] = Fraction(1)
    if rng.random() < 0.2:
        comps[rng.randrange(3)] *= PI
    return TangentVector.of(0, *comps)


def _random_closing_rotation(rng):
    # a3 off the null value by r/pi keeps A = (z-slope)/h rational, so the
    # witness grows with the denominator of r instead of staying at 1, 2 or 4
    X = random_null(rng, allow_line=False)
    r = Fraction(rng.randint(-9, 9), rng.randint(1, 40))
    return TangentVector.of(X.a0, X.a1, X.a2, X.a3 + r / PI)


def test_minimal_period_agrees_with_the_scan_oracle():
    rng = random.Random(6)
    compared = 0
    for L in ALL_FAMILIES:
        directions = [random_null(rng, allow_line=False) for _ in range(2)]
        directions += [_random_closing_rotation(rng) for _ in range(4)]
        directions += [_random_line(rng) for _ in range(3)]
        for X in directions:
            T = minimal_period(L, X)
            scanned = _scan_minimal_period(L, X)
            if scanned is None:
                assert T is None or Fraction(*(T / _scan_unit(L, X)).as_integer_ratio()) > _SCAN_LIMIT
            else:
                assert T == scanned, (L, X)
                compared += 1
    assert compared >= 60


def test_minimal_period_rejects_a_doubled_verdict(monkeypatch):
    classify = quotients.classify_geodesic
    tamper = {}

    def tampered(L, X):
        causal, v = classify(L, X)
        return causal, tamper["verdict"](L, X, v)

    def doubled(L, X, v):
        m = None if v.witness_m is None else 2 * v.witness_m
        return PeriodicityVerdict(v.kind, v.minimal_T * 2, m)

    def halved(L, X, v):
        return PeriodicityVerdict(v.kind, v.minimal_T / 2, v.witness_m)

    def witness(shift):
        # m + shift stays in the residue class of m; T follows the claimed m
        def claim(L, X, v):
            m = v.witness_m + shift
            return PeriodicityVerdict(v.kind, L.t_step * m / abs(X.a0), m)
        return claim

    def non_closed(L, X, v):
        return PeriodicityVerdict(VerdictKind.NON_CLOSED)

    def periodic(L, X, v):
        # one period unit: the first return of t, or T = 1 for a line
        if X.a0.is_zero():
            return PeriodicityVerdict(VerdictKind.PERIODIC, Scalar(1))
        return PeriodicityVerdict(VerdictKind.PERIODIC, L.t_step / abs(X.a0), 1)

    def stationary(L, X, v):
        return PeriodicityVerdict(VerdictKind.STATIONARY_POINT)

    # the quarter-twist witness m = 5 sits in the class 1 mod 4
    quarter = parse_vector("a0=1,a1=1,a2=0,a3=-1/2 + 1/(5*pi)")
    assert classify(L1Q, quarter)[1].witness_m == 5
    m300 = parse_vector("a0=2,a1=-6/5,a2=9/5,a3=-117/100 + 1/(1200*pi)")
    cases = [
        (L1H, TangentVector.of(1, Fraction(1, 3), 0, Fraction(-1, 18)), doubled),
        (L10, TangentVector.of(0, 0, 0, 1), doubled),
        (L10, TangentVector.of(0, Fraction(1, 2), 0, Fraction(1, 3)), doubled),
        (L10, TangentVector.of(0, Fraction(1, 2), 0, Fraction(1, 3)), halved),
        (L1Q, quarter, witness(-4)),
        (L1Q, quarter, witness(4)),
        (L20, m300, witness(-1)),
        (L20, m300, witness(1)),
        (L1H, TangentVector.of(1, Fraction(1, 3), 0, Fraction(-1, 18)), non_closed),
        (L10, TangentVector.of(0, 0, 0, 1), non_closed),
        (L10, TangentVector.of(1, 0, 0, 1), periodic),
        (L1Q, TangentVector.of(PI, 0, 0, Scalar(1) / (2 * PI)), periodic),
        (L10, TangentVector.of(0, 1, PI, 0), periodic),
        (L10, TangentVector.of(0, 0, 0, 0), periodic),
        (L10, TangentVector.of(0, 0, 0, 1), stationary),
        (L1Q, quarter, stationary),
    ]
    monkeypatch.setattr(quotients, "classify_geodesic", tampered)
    for L, X, claim in cases:
        tamper["verdict"] = lambda L, X, v: v
        minimal_period(L, X)  # the true verdict is proved
        tamper["verdict"] = claim
        with pytest.raises(AssertionError):
            minimal_period(L, X)


def test_minimal_period_rejects_a_negative_line_period(monkeypatch):
    # exp(-T X) is in the lattice as well, so only the sign of T / unit refuses it
    X = TangentVector.of(0, Fraction(1, 2), 0, Fraction(1, 3))
    classify_line = quotients._classify_line
    monkeypatch.setattr(
        quotients, "_classify_line",
        lambda L, X: PeriodicityVerdict(VerdictKind.PERIODIC, -classify_line(L, X).minimal_T),
    )
    with pytest.raises(AssertionError, match="is not a positive multiple of the unit"):
        minimal_period(L10, X)


def test_minimal_period_on_tampered_evaluations(monkeypatch):
    # the proof rests on c being central and, for an irrational z_c, on a rational
    # intercept z_r - (r/cycle) z_c; an evaluator that breaks either is refused
    evaluate = quotients.exp_turns
    X = TangentVector.of(1, 0, 0, 1)  # non-closed: z_c = 2 pi, u = pi/2 on L1Q

    def shifted(at, dx, dz):
        def tampered(L, X, m):
            g = evaluate(L, X, m)
            return GroupElement(g.t, g.x + dx, g.y, g.z + dz) if m == at else g
        return tampered

    assert minimal_period(L1Q, X) is None
    # m = 1 is the class 1 mod 4 and m = 4 the full turn c
    for at, dx, dz in ((1, 0, Scalar(1) / PI), (4, 1, 0)):
        monkeypatch.setattr(quotients, "exp_turns", shifted(at, dx, dz))
        with pytest.raises(AssertionError):
            minimal_period(L1Q, X)
    # with a rational z_c, an irrational z_r closes nothing in its class: the
    # witness m = 3 still comes from the class 3 mod 4
    X = parse_vector("a0=1,a1=1,a2=0,a3=-1/2 + 1/(3*pi)")
    monkeypatch.setattr(quotients, "exp_turns", shifted(1, 0, Scalar(1) / PI))
    assert minimal_period(L1Q, X) == 3 * PI_HALF


def test_minimal_period_evaluates_exp_without_scaling_the_direction(monkeypatch):
    # one evaluation of exp(m u X) per residue class, m = r for r = 1..cycle with
    # u = t_step/|a0|, whatever the witness; each constant of the direction is
    # computed at most once, and only where a turn count reads it: the whole turn
    # reads zq and no slope; a half turn adds the slopes, which only the evaluator
    # computes, since the classifier reads them as integer ratios; only an odd
    # quarter turn reads rho
    calls = []
    computed = []
    evaluate = quotients.exp_turns

    def counted(L, X, m):
        calls.append(m)
        return evaluate(L, X, m)

    def counted_constant(name, func):
        def constant(X):
            computed.append((name, X))
            return func(X)
        return constant

    def refused(self, factor):
        raise RuntimeError("minimal_period scaled the direction")

    def constants_of(X):
        assert all(Y is X for _, Y in computed)
        names = sorted(name for name, _ in computed)
        computed.clear()
        calls.clear()
        return names

    monkeypatch.setattr(quotients, "exp_turns", counted)
    names = ("slopes", "quarter_turn", "zq", "rho")
    for name in names:
        descriptor = TangentVector.__dict__[name]
        monkeypatch.setattr(descriptor, "func", counted_constant(name, descriptor.func))
    monkeypatch.setattr(TangentVector, "scale", refused)
    X = parse_vector("a0=2,a1=-6/5,a2=9/5,a3=-117/100 + 1/(1200*pi)")
    T = minimal_period(L20, X)
    # a full twist has one class: u = 2 pi/2, and m = 300
    assert T == 300 * PI and calls == [1]
    assert constants_of(X) == ["quarter_turn", "zq"]
    # a half twist has two: the full turn first, then the half turn r = 1; m = 3
    X = parse_vector("a0=1,a1=1,a2=0,a3=-1/2 + 1/(3*pi)")
    T = minimal_period(L1H, X)
    assert T == 3 * PI and calls == [2, 1]
    assert constants_of(X) == ["quarter_turn", "slopes", "zq"]
    # a quarter twist has four: the full turn first, then r = 1, 2, 3; m = 3
    X = parse_vector("a0=1,a1=1,a2=0,a3=-1/2 + 1/(3*pi)")
    T = minimal_period(L1Q, X)
    assert T == 3 * PI_HALF and calls == [4, 1, 2, 3]
    assert constants_of(X) == sorted(names)


# a null, a closing non-null, a closing one with an irrational slope and a non-closed direction
_SLOPE_PROBES = (
    "a0=2,a1=1,a2=1,a3=-1/2",
    "a0=2,a1=1,a2=1,a3=-1/2 + 1/(3*pi)",
    "a0=1,a1=pi,a2=0,a3=(1/pi - pi^2)/2",
    "a0=2,a1=1,a2=1,a3=1",
)


def test_the_classifier_reads_the_slopes_off_whole_turns_only(monkeypatch):
    # a full twist has the one residue of whole turns, where u = 0 and B = 0, so its
    # verdict needs no slope; a half or quarter twist tests both slopes for rationality
    # once for all its residues, and a non-closed direction is decided before any
    # residue.  The classifier reads the slopes as integer ratios, n1 d0 against d1 n0,
    # and never builds the Scalar pair TangentVector.slopes
    families = [(L, tuple(classify_geodesic(L, parse_vector(v)) for v in _SLOPE_PROBES)) for L in ALL_FAMILIES]
    assert [verdict.kind for _, verdict in families[0][1]] == [VerdictKind.PERIODIC] * 3 + [VerdictKind.NON_CLOSED]
    descriptor = TangentVector.__dict__["slopes"]
    test = quotients.proportion
    reads = []

    def slopes(X):
        raise RuntimeError("the classifier built the slopes")

    def proportion(a, b):
        reads.append((a, b))
        return test(a, b)

    monkeypatch.setattr(descriptor, "func", slopes)
    monkeypatch.setattr(quotients, "proportion", proportion)
    for L, expected in families:
        for text, answer in zip(_SLOPE_PROBES, expected):
            X = parse_vector(text)
            (n0, d0), (n1, d1), (n2, d2) = (pair(a) for a in X.components[:3])
            slope_tests = [(pmul(n1, d0), pmul(d1, n0)), (pmul(n2, d0), pmul(d2, n0))]
            reads.clear()
            assert classify_geodesic(L, X) == answer, (L, text)
            closes = answer[1].kind is VerdictKind.PERIODIC
            # the tests of A, for a non-null direction, then of p and q where they are read
            read_slopes = [args for args in reads if args in slope_tests]
            assert read_slopes == (slope_tests if closes and L.twist is not Twist.FULL else []), (L, text)
            assert len(reads) == len(read_slopes) + (not X.norm_sq().is_zero()), (L, text)


def test_minimal_period_reads_no_angle_on_rotating_directions(monkeypatch):
    # the proof evaluates at integer turn counts only: no exp_scaled, and no
    # quarter_turns(a0 s) to recover a count it already holds
    def refused(*args):
        raise RuntimeError("minimal_period evaluated at a Scalar angle")

    for module in (scalar, groups, geodesics):
        monkeypatch.setattr(module, "quarter_turns", refused)
    monkeypatch.setattr(geodesics, "exp_scaled", refused)
    monkeypatch.setattr(quotients, "exp_scaled", refused)
    rng = random.Random(5)
    verdicts = set()
    for L in ALL_FAMILIES:
        for X in (random_null(rng, allow_line=False), _random_closing_rotation(rng),
                  TangentVector.of(1, 0, 0, 1), parse_vector("a0=pi,a1=1,a2=2,a3=1/pi")):
            minimal_period(L, X)
            verdicts.add(classify_geodesic(L, X)[1].kind)
    assert verdicts == {VerdictKind.PERIODIC, VerdictKind.NON_CLOSED}


def test_exp_turns_matches_exp_scaled_at_every_turn_count():
    # exp(m u X) from the integer m against exp_scaled at the Scalar s = m u, on a
    # fresh vector, for rational and irrational a0 and on the a1 = a2 = 0 branch
    rng = random.Random(23)
    kinds = set()
    for L in ALL_FAMILIES:
        for i in range(6):
            if i % 2:
                a0 = _random_q_pi(rng, nonzero=True)
            else:
                a0 = Scalar(Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1)))
            a1, a2 = (Scalar(0), Scalar(0)) if i % 3 == 0 else (_random_q_pi(rng), _random_q_pi(rng))
            X = TangentVector(a0, a1, a2, _random_q_pi(rng))
            kinds.add((a0.is_rational(), a1.is_zero() and a2.is_zero()))
            u = L.t_step / abs(a0)
            for m in (*range(-8, 9), 10**9, 2**521 - 1):
                expected = exp_scaled(TangentVector(*X.components), u * m)
                assert quotients.exp_turns(L, X, m) == expected, (L, X, m)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_minimal_period_large_witnesses():
    def central(m):
        return parse_vector(f"a0=1,a1=0,a2=0,a3=1/(4*{m}*pi)")

    # no factoring: 1000003 * 1000033, the Mersenne prime 2^521 - 1 and their product
    mersenne = 2**521 - 1
    for m in (10**9, 999999937, 1000003 * 1000033, mersenne, 1000003 * 1000033 * mersenne):
        X = central(m)
        assert classify_geodesic(L10, X)[1].witness_m == m
        assert minimal_period(L10, X) == 2 * m * PI


def _random_q_pi(rng, nonzero=False):
    """A random element of Q(pi) with numerator and denominator of degree <= 2."""
    while True:
        num, den = (tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))) for _ in range(2))
        if any(den) and (any(num) or not nonzero):
            return from_coeffs(num, den)


def _pinned_corpus():
    """(L, X) for the pinned answers: five kinds of direction on each of the nine families."""
    rng = random.Random(20130)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def non_null():
        return TangentVector.of(rational() or 1, rational(), rational(), rational())

    def irrational_a0():
        a0 = _random_q_pi(rng, nonzero=True)
        n1, n2 = (Fraction(rng.randint(-4, 4), 2) for _ in range(2))
        a1, a2 = (a0 * n1, a0 * n2) if rng.random() < 0.7 else (_random_q_pi(rng), _random_q_pi(rng))
        if rng.random() < 0.5:
            return TangentVector(a0, a1, a2, _random_q_pi(rng))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        return TangentVector(a0, a1, a2, -(a1 * a1 + a2 * a2) / (2 * a0) + Scalar(c) / PI)

    kinds = (
        lambda: random_null(rng, allow_line=False),
        non_null,
        lambda: _random_closing_rotation(rng),
        lambda: _random_line(rng),
        irrational_a0,
    )
    return [(L, kind()) for _ in range(44) for L in ALL_FAMILIES for kind in kinds]


# sha256 of the corpus answers: a rewrite of the gcd, the evaluator or the proof
# must leave every verdict, witness and str(T) as it is
_PINNED_ANSWERS = "e0ee663699236353ed475e33062dbcaaec35b161f11c97bcb406d07fd5ec76e8"


def test_answers_match_the_pinned_corpus():
    digest = hashlib.sha256()
    kinds = set()
    for L, X in _pinned_corpus():
        causal, verdict = classify_geodesic(L, X)
        T = minimal_period(L, X)
        kinds.add((L, verdict.kind))
        line = json.dumps(verdict_to_json(causal, verdict), sort_keys=True) + f"\t{T}\n"
        digest.update(line.encode())
    assert {(L, kind) for L in ALL_FAMILIES for kind in (VerdictKind.PERIODIC, VerdictKind.NON_CLOSED)} <= kinds
    assert digest.hexdigest() == _PINNED_ANSWERS


# ROADMAP item 2's degree-64 input and the first two inputs of its finding 1, each
# 1 KB or less: a classifier that reduced |X|^2 and A ran for seconds to minutes in
# the polynomial gcd on each, and answered spacelike and non-closed
_NINES = "9" * 999
_ADVERSARIAL = (
    (
        "k=3,twist=quarter",
        "a0=(pi^64+1)/(pi^63+2),a1=(pi^60+1)/(pi^61+3),a2=(pi^62+5)/(pi^59+7),a3=(pi^64+11)/(pi^64+13)",
    ),
    ("k=1,twist=full", f"(pi^64+1)*1/pi,2,pi^2-(1+pi)-1/{_NINES},2*pi+1"),
    ("k=1,twist=full", f"(1+pi)--1*{_NINES},1/pi,0,{_NINES}/(pi^64+1)/{_NINES}"),
)


def test_the_classifier_takes_a_polynomial_gcd_only_for_a_period(monkeypatch):
    # the decision reads unreduced products of the canonical pairs: a non-closed verdict
    # takes no polynomial gcd, and a periodic one at most one, to reduce its T
    cases = _pinned_corpus() + [(LatticeSpec.parse(L), parse_vector(v)) for L, v in _ADVERSARIAL]
    calls = []
    pgcd = scalar._pgcd
    monkeypatch.setattr(scalar, "_pgcd", lambda a, b: calls.append((a, b)) or pgcd(a, b))
    reduced = 0
    for L, X in cases:
        calls.clear()
        _, verdict = classify_geodesic(L, X)
        assert len(calls) <= (verdict.kind is VerdictKind.PERIODIC), (L, X, verdict)
        reduced += bool(calls)
    assert reduced  # the T of a direction with a0 of degree >= 1 takes its gcd
    assert [classify_geodesic(L, X) for L, X in cases[-3:]] == [
        (CausalType.SPACELIKE, PeriodicityVerdict(VerdictKind.NON_CLOSED))
    ] * 3


def test_f1_image_gets_the_same_verdict():
    # f1 maps the direction (a0, a1, a2, a3) to (-a0, -a1, a2, -a3) and descends to every
    # quotient, so the image closes with X, with the same period and witness: the classifier
    # reads no sign of a0, which this relation checks from outside
    for L, X in _pinned_corpus():
        image = TangentVector(-X.a0, -X.a1, X.a2, -X.a3)
        assert classify_geodesic(L, image) == classify_geodesic(L, X), (L, X)


# the negative factors flip the sign of a0, so they check the sign-free classifier a second way
_SCALINGS = (Scalar(2), Scalar(Fraction(-3, 2)), PI, -1 / PI, PI * PI / 3)


def test_scaled_directions_close_with_the_period_divided():
    # exp(T c X) = exp((c T) X): c X gets the verdict of X with T/|c|; the vector is built
    # fresh, since X.scale(c) hands on the slopes X has cached
    corpus = [(L, X, classify_geodesic(L, X)) for L, X in _pinned_corpus()]
    for c in _SCALINGS:
        size = abs(c)
        for L, X, (causal, verdict) in corpus:
            scaled = TangentVector(*(c * a for a in X.components))
            T = verdict.minimal_T
            expected = dataclasses.replace(verdict, minimal_T=None if T is None else T / size)
            assert classify_geodesic(L, scaled) == (causal, expected), (L, X, c)


def test_null_directions_close_within_one_full_turn():
    # the abstract's first claim, sharpened: a null direction has A = 0, so the residue of
    # whole turns closes with j = 0, and the residues r and cycle - r share their conditions;
    # the witness m divides cycle, and the geodesic closes within one full turn of t
    families = ALL_FAMILIES + [LatticeSpec(k, twist) for k in (4, 6) for twist in Twist]
    nulls = [X for _, X in _pinned_corpus() if not X.a0.is_zero() and X.norm_sq().is_zero()]
    witnesses = set()
    for L in families:
        cycle = 4 // L.t_step_quarters
        for X in nulls:
            _, verdict = classify_geodesic(L, X)
            m = verdict.witness_m
            assert verdict.kind is VerdictKind.PERIODIC and cycle % m == 0, (L, X, verdict)
            witnesses.add((cycle, m))
    assert len(nulls) * len(families) > 6000
    # every divisor of every cycle is some direction's witness
    assert witnesses == {(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)}


def _adjoint(h: GroupElement):
    """Ad_h, the differential of chi_h at the identity, for h at a quarter-turn t.

    A~ = R(h.t) and w = J v = (h.y, -h.x).
    """
    (a, c), (b, d) = groups.rotate(h.t, ONE, ZERO), groups.rotate(h.t, ZERO, ONE)
    return isotropy_matrix(IsotropyElement(1, ((a, b), (c, d)), (h.y, -h.x)))


def test_normalizer_conjugation_keeps_the_verdict():
    # chi_h(exp(sX)) = exp(s Ad_h X) fixes the identity, and for h in the normalizer it maps
    # the lattice onto itself: Ad_h X closes with X, with the same causal type, period and
    # witness.  Ad_h rotates the slopes by R(h.t) and shifts them by J v, a half-integer on
    # the half and quarter twists.  Off the normalizer some verdicts move, so the relation bites
    rng = random.Random(12)
    moved = 0
    for L, X in _pinned_corpus():
        # v on the grid (1/4k)Z^2, which holds points inside and outside every normalizer
        n = 4 * L.k
        inside = outside = None
        while inside is None or outside is None:
            v = (Fraction(rng.randint(-n, n), n), Fraction(rng.randint(-n, n), n))
            h = GroupElement.of(PI_HALF * rng.randrange(4), v, 0)
            if groups.normalizer_contains(L, h):
                inside = inside or h
            else:
                outside = outside or h
        answer = classify_geodesic(L, X)
        assert classify_geodesic(L, isometries._apply(_adjoint(inside), X)) == answer, (L, X, inside)
        moved += classify_geodesic(L, isometries._apply(_adjoint(outside), X)) != answer
    assert moved > 0


def test_decisions_build_no_fraction(monkeypatch):
    # Fraction belongs to the input boundary: classifying and proving run on Scalars and ints
    corpus = _pinned_corpus()
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    for L, X in corpus:
        classify_geodesic(L, X)
        minimal_period(L, X)
    monkeypatch.undo()
    assert built == []


def test_residue_solver_verdicts_hold_exactly(monkeypatch):
    # degree <= 2 directions over all nine families; a3 is either free or the
    # null value shifted by c/pi, which makes A rational for rational a0 and c
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.integers(-3, 3)
    poly = st.lists(coeff, min_size=1, max_size=3)
    nonzero_poly = poly.filter(any)

    @st.composite
    def q_pi(draw, nonzero=False):
        num = tuple(draw(nonzero_poly if nonzero else poly))
        return from_coeffs(num, tuple(draw(nonzero_poly)))

    @st.composite
    def directions(draw):
        a0 = draw(st.fractions(-4, 4, max_denominator=4).filter(bool).map(Scalar) | q_pi(nonzero=True))
        # a1, a2 = a0 n with n in (1/2)Z make u integral in every residue, mostly
        n1, n2 = (Fraction(draw(st.integers(-4, 4)), 2) for _ in range(2))
        a1, a2 = (a0 * n1, a0 * n2) if draw(st.integers(0, 3)) else (draw(q_pi()), draw(q_pi()))
        if draw(st.booleans()):
            a3 = draw(q_pi())
        else:
            c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
            a3 = -(a1 * a1 + a2 * a2) / (2 * a0) + Scalar(c) / PI
        L = LatticeSpec(draw(st.integers(1, 3)), draw(st.sampled_from(list(Twist))))
        return L, TangentVector(a0, a1, a2, a3)

    # (cycle, residue, solved) for every call of the residue solver
    calls = []
    solve = quotients._solve_rational

    def recording_solve(an, ad, bn, bd, r, cycle):
        m = solve(an, ad, bn, bd, r, cycle)
        assert m is None or (m >= 1 and m % cycle == r % cycle), (an, ad, bn, bd, r, cycle, m)
        calls.append((cycle, r, m is not None))
        return m

    monkeypatch.setattr(quotients, "_solve_rational", recording_solve)
    solved = set()
    irrational_cases = []

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(directions())
    def check(case):
        L, X = case
        calls.clear()
        _, verdict = classify_geodesic(L, X)
        solved.update(calls)
        # A = |X|^2 t_step / (2 a0 |a0| h) is rational iff |X|^2 pi / a0^2 is.  A
        # rational A closes in the residue m = 0 (mod cycle), where u = 0 and B = 0;
        # an irrational one never does, as an integral u makes a1/a0, a2/a0 and B rational
        rational_A = (X.norm_sq() * PI / (X.a0 * X.a0)).is_rational()
        assert (verdict.kind is VerdictKind.PERIODIC) == rational_A, (L, X)
        # an irrational A is decided before any residue is solved
        assert rational_A or not calls, (L, X, calls)
        # the residue classes prove every verdict, the non-closed ones included
        assert minimal_period(L, X) == verdict.minimal_T
        if rational_A:
            return
        irrational_cases.append((L, X))
        unit = L.t_step / abs(X.a0)
        for m in range(1, 41):
            assert not lattice_contains(L, exp_map(X.scale(unit * m))), (L, X, m)

    check()
    # every quarter-twist residue was solved, and some direction had an irrational A
    assert {(4, r, True) for r in range(1, 5)} <= solved, solved
    assert irrational_cases


def test_irrational_p_direction_closes_at_two_pi_on_every_twist():
    # p = a1/a0 = pi is irrational and so is p^2 + q^2, while |X|^2 = 1/pi makes A
    # rational: only the residue with u = 0 and sin = 0 closes, at m = 4/quarters
    X = parse_vector("a0=1,a1=pi,a2=0,a3=(1/pi - pi^2)/2")
    assert X.norm_sq() == Scalar(1) / PI
    for k in (1, 2, 3):
        for twist, m in ((Twist.FULL, 1), (Twist.HALF, 2), (Twist.QUARTER, 4)):
            L = LatticeSpec(k, twist)
            _, verdict = classify_geodesic(L, X)
            assert verdict.kind is VerdictKind.PERIODIC, L
            assert (verdict.minimal_T, verdict.witness_m) == (2 * PI, m), L
            assert minimal_period(L, X) == 2 * PI


def test_solve_rational_matches_a_brute_scan():
    rng = random.Random(11)
    cases = [(0, 1, 0, 1), (0, 3, 0, 1), (0, 5, 1, 2), (3, 4, 0, 1)]
    cases += [
        (rng.randint(-30, 30), rng.randint(1, 12), rng.randint(-30, 30) * rng.randint(0, 1), rng.randint(1, 12))
        for _ in range(400)
    ]
    for an, ad, bn, bd in cases:
        A, B = Fraction(an, ad), Fraction(bn, bd)
        for cycle in (1, 2, 4):
            for r in range(1, cycle + 1):
                # A m - B is periodic in j with a period dividing ad bd
                brute = next(
                    (r + cycle * j for j in range(ad * bd) if (A * (r + cycle * j) - B).denominator == 1),
                    None,
                )
                assert quotients._solve_rational(an, ad, bn, bd, r, cycle) == brute, (A, B, r, cycle)


def test_lattice_chain_divisibility():
    rng = random.Random(3)
    for k in (1, 2):
        for _ in range(30):
            X = random_null(rng)
            periods = []
            for twist in (Twist.FULL, Twist.HALF, Twist.QUARTER):
                _, verdict = classify_geodesic(LatticeSpec(k, twist), X)
                assert verdict.kind is VerdictKind.PERIODIC
                periods.append(verdict.minimal_T)
            for coarse, fine in zip(periods, periods[1:]):
                ratio = coarse / fine
                assert ratio.is_integer()


def test_closed_implies_periodic_property():
    rng = random.Random(4)
    for _ in range(15):
        X = random_null(rng, allow_line=False)
        _, verdict = classify_geodesic(L10, X)
        abs_a0 = abs(X.a0)
        times = [L10.t_step * m / abs_a0 for m in range(4)]
        found_return = False
        for i, s0 in enumerate(times):
            for s1 in times[i + 1:]:
                p0, p1 = exp_map(X.scale(s0)), exp_map(X.scale(s1))
                if coset_equal(L10, p0, p1):
                    found_return = True
                    gap = s1 - s0
                    assert lattice_contains(L10, exp_map(X.scale(gap)))
                    ratio = gap / verdict.minimal_T
                    assert ratio.is_integer()
        assert found_return


def test_base_point_independent_closedness():
    rng = random.Random(5)
    X = TangentVector.of(2, 1, 1, Fraction(-1, 2))
    _, verdict = classify_geodesic(L10, X)
    T = verdict.minimal_T
    gamma = exp_map(X.scale(T))
    for _ in range(10):
        h = GroupElement.of(
            PI_HALF * rng.randint(-3, 3),
            (Fraction(rng.randint(-5, 5), 3), rng.randint(-3, 3)),
            Fraction(rng.randint(-5, 5), 4),
        )
        # h exp(TX) and h lie in the same right coset iff exp(TX) is in the lattice
        assert coset_equal(L10, g_mul(h, gamma), h)


def test_project_geodesic_wraps_and_returns():
    samples = np.concatenate(list(trace_chunks(IDENTITY, TangentVector.of(1, 0, 0, 0), 13.0, 0.01, lattice=L10)))
    assert samples[:, 1].max() < float(2 * PI)
    assert samples[0, 0] == 0.0

    X = TangentVector.of(2, 1, 1, Fraction(-1, 2))
    T = float(classify_geodesic(L10, X)[1].minimal_T)
    samples = np.concatenate(list(trace_chunks(IDENTITY, X, T, T / 64, lattice=L10)))
    assert np.max(np.abs(samples[0, 1:] - samples[-1, 1:])) < 1e-9
    with pytest.raises(InvalidStep):
        trace_chunks(IDENTITY, X, 1.0, 0.0, lattice=L10)


def test_verdict_json():
    causal, verdict = classify_geodesic(L10, TangentVector.of(1, 0, 0, Scalar(1) / (4 * PI)))
    payload = verdict_to_json(causal, verdict)
    assert payload == {
        "causal": "spacelike",
        "kind": "periodic",
        "minimal_T": "2*pi",
        "witness_m": 1,
    }
    text = json.dumps(payload)
    assert json.loads(text) == payload
    _, open_verdict = classify_geodesic(L10, TangentVector.of(1, 0, 0, 1))
    open_payload = verdict_to_json(CausalType.SPACELIKE, open_verdict)
    assert open_payload["minimal_T"] is None and open_payload["witness_m"] is None


def test_value_classes_stay_frozen_dataclasses():
    X = TangentVector.of(1, 2, 3, 4)
    X.slopes  # a cached constant in the dict is not a field
    values = (
        (GroupElement.of(PI, (1, 2), Fraction(1, 3)), "z", Scalar(5)),
        (X, "a3", Scalar(7)),
        (LatticeSpec(2, Twist.QUARTER), "k", 3),
        (PeriodicityVerdict(VerdictKind.PERIODIC, minimal_T=PI, witness_m=2), "witness_m", 3),
    )
    for value, name, new in values:
        cls = type(value)
        fields = [f.name for f in dataclasses.fields(cls)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, new)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
        twin = cls(**{f: getattr(value, f) for f in fields})
        assert twin == value and hash(twin) == hash(value) and twin is not value
        shown = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
        assert repr(twin) == repr(value) == f"{cls.__name__}({shown})"
        changed = dataclasses.replace(value, **{name: new})
        assert getattr(changed, name) == new and changed != value
        assert all(getattr(changed, f) == getattr(value, f) for f in fields if f != name)
    assert PeriodicityVerdict(VerdictKind.NON_CLOSED) == PeriodicityVerdict(VerdictKind.NON_CLOSED, None, None)
    assert repr(LatticeSpec(2, Twist.QUARTER)) == "LatticeSpec(k=2, twist=<Twist.QUARTER: 'quarter'>)"
    for build in (lambda: LatticeSpec(0, Twist.FULL), lambda: dataclasses.replace(LatticeSpec(1, Twist.HALF), k=-1)):
        with pytest.raises(ValueError, match="lattice parameter k must be >= 1"):
            build()
