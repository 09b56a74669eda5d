"""Scalar arithmetic and sign decisions checked against sympy and mpmath.

Both libraries are independent of oscigeo's integer polynomial core:
sympy cancels rational functions in a symbol, mpmath evaluates at pi
with 100 significant digits.
"""

import math
import operator
import random
from fractions import Fraction

import pytest

from oscigeo import scalar
from oscigeo.scalar import PI, ZERO, Scalar, from_pair

from .builders import from_coeffs

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def rand_scalar(rng, max_deg=3):
    while True:
        num = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, max_deg + 1))]
        den = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, max_deg + 1))]
        if any(den):
            return from_coeffs(num, den)


def _sympy_poly(sympy, x, coeffs):
    return sum(sympy.Integer(c) * x**i for i, c in enumerate(coeffs))


def _sympy_value(sympy, x, s):
    """s as a sympy expression in x, from its canonical pair of integer polynomials."""
    return _sympy_poly(sympy, x, s._n) / _sympy_poly(sympy, x, s._d)


def test_field_ops_match_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for _ in range(40):
        a, b = rand_scalar(rng), rand_scalar(rng)
        sa, sb = _sympy_value(sympy, x, a), _sympy_value(sympy, x, b)
        for op in OPS:
            if op is operator.truediv and b.is_zero():
                continue
            got = op(a, b)
            assert sympy.cancel(op(sa, sb) - _sympy_value(sympy, x, got)) == 0, (op, a, b)


def test_canonical_form_matches_sympy():
    # numerator and denominator over one integer scale: coprime, content 1
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(12)
    for _ in range(100):
        a, b, c = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
        for s in (a * b + c, a + a, a / 3 - a / 2):
            if not s.is_zero():
                _check_canonical(sympy, x, s)


def test_monomial_factors_cancel_like_sympy():
    # c pi^k against a polynomial with a power of pi as factor: the gcd fast path
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(13)
    for _ in range(20):
        a = rand_scalar(rng)
        if a.is_zero():
            continue
        for k in range(4):
            mono = from_coeffs((0,) * k + (Fraction(rng.randint(1, 9), rng.randint(1, 9)),))
            lifted = a * PI ** rng.randint(0, 3)
            for num, den in ((lifted, mono), (mono, lifted)):
                got = num / den
                expect = _sympy_value(sympy, x, num) / _sympy_value(sympy, x, den)
                assert sympy.cancel(expect - _sympy_value(sympy, x, got)) == 0
                _check_canonical(sympy, x, got)


def _check_canonical(sympy, x, s):
    # structural equality with a fresh construction sees non-canonical content
    num, den = s._n, s._d
    assert from_coeffs(num, den) == s
    assert math.gcd(*num, *den) == 1
    P = sympy.Poly(list(reversed(num)), x, domain="ZZ")
    Q = sympy.Poly(list(reversed(den)), x, domain="ZZ")
    assert sympy.gcd(P, Q).degree() == 0
    assert den[-1] > 0


def _mp_value(mp, s):
    def ev(coeffs):
        out = mp.mpf(0)
        for c in reversed(coeffs):
            out = out * mp.pi + c
        return out

    return ev(s._n) / ev(s._d)


def _mp_sign(mp, s):
    v = _mp_value(mp, s)
    # 100 digits leave this far from any rounding doubt for the values below
    assert abs(v) > mp.mpf(10) ** -90
    return 1 if v > 0 else -1


def test_sign_matches_mpmath_random():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(100):
        rng = random.Random(13)
        for _ in range(300):
            s = rand_scalar(rng)
            if s.is_zero():
                assert s.sign() == 0
                continue
            assert s.sign() == _mp_sign(mpmath.mp, s), s


def test_sign_matches_mpmath_tiny_margins():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(110):
        digits = mpmath.nstr(mpmath.mp.pi, 105, strip_zeros=False).replace(".", "")
    with mpmath.workdps(100):
        for k in (5, 20, 39, 41, 60, 79, 85):
            # truncations of pi's expansion, from below and from above
            below = Fraction(int(digits[: k + 1]), 10**k)
            above = below + Fraction(1, 10**k)
            for c in (below, above):
                for s in (
                    PI - c,
                    c - PI,
                    PI * PI - c * c,
                    (PI - c) * (PI + 7),
                    Scalar(1) / (PI - c),
                    (PI**3 - c**3) / (PI**2 + 1),
                ):
                    assert s.sign() == _mp_sign(mpmath.mp, s), (k, s)


def _spy_on_enclosures(monkeypatch):
    """A list that records each call of scalar._enclosures, the one pi-refinement loop."""
    calls = []
    real = scalar._enclosures

    def spy(n, d):
        calls.append((n, d))
        return real(n, d)

    monkeypatch.setattr(scalar, "_enclosures", spy)
    return calls


def _one_sign(coeffs):
    """True iff the nonzero entries of coeffs all have one sign."""
    return all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def test_uniform_sign_values_match_mpmath_without_enclosures(monkeypatch):
    # pi > 0, so numerator and denominator coefficients of one sign each decide the sign
    mpmath = pytest.importorskip("mpmath")
    calls = _spy_on_enclosures(monkeypatch)
    rng = random.Random(15)
    uniform = 0
    with mpmath.workdps(100):
        for _ in range(200):
            sign_n, sign_d = rng.choice((1, -1)), rng.choice((1, -1))
            num = [sign_n * rng.randint(0, 9) for _ in range(rng.randint(0, 64))] + [sign_n * rng.randint(1, 9)]
            den = [sign_d * rng.randint(0, 9) for _ in range(rng.randint(0, 64))] + [sign_d * rng.randint(1, 9)]
            s = from_coeffs(num, den)
            before = len(calls)
            assert s.sign() == _mp_sign(mpmath.mp, s), s
            # a common factor can leave mixed signs in the canonical pair; only those refine
            if _one_sign(s._n) and _one_sign(s._d):
                uniform += 1
                assert len(calls) == before, s
    assert uniform >= 190


def test_mixed_sign_near_cancellations_still_refine(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    calls = _spy_on_enclosures(monkeypatch)
    with mpmath.workdps(100):
        for c in (Fraction(314159, 10**5), Fraction(314160, 10**5), Fraction(355, 113)):
            for s in (PI - c, c - PI, 1 / (PI - c), (PI - c) / (PI**64 + 1), (PI * PI + 1) / (c - PI)):
                before = len(calls)
                assert s.sign() == _mp_sign(mpmath.mp, s), s
                assert len(calls) == before + 1, s


def _rand_int_poly(rng, degree):
    """An integer polynomial of the given degree with a nonzero constant term: no factor pi."""
    coeffs = [rng.choice((1, -1)) * rng.randint(1, 9)]
    coeffs += [rng.randint(-9, 9) for _ in range(degree - 1)]
    return tuple(coeffs) + (rng.choice((1, -1)) * rng.randint(1, 9),)


def test_shared_powers_of_pi_cancel_like_sympy():
    # P pi^j / (Q pi^k) with non-monomial P and Q, then with a shared
    # non-monomial factor F on top: F P pi^j / (F Q pi^k)
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(14)
    for _ in range(30):
        P, Q, F = (from_coeffs(_rand_int_poly(rng, rng.randint(1, 3))) for _ in range(3))
        j, k = rng.randint(0, 4), rng.randint(0, 4)
        for num, den in ((P * PI**j, Q * PI**k), (F * P * PI**j, F * Q * PI**k)):
            got = num / den
            expect = sympy.cancel(_sympy_value(sympy, x, num) / _sympy_value(sympy, x, den))
            assert sympy.cancel(expect - _sympy_value(sympy, x, got)) == 0, (num, den)
            _check_canonical(sympy, x, got)
            # the power of pi left over sits on one side only
            assert got._n[0] != 0 or got._d[0] != 0


def test_rational_constructor_matches_the_general_form():
    values = [0, 1, -1, 7, -12, 10**40, -(10**40)]
    values += [Fraction(0), Fraction(3, 4), Fraction(-5, 6), Fraction(10**30, 7), Fraction(-1, 10**30)]
    for v in values:
        # the general form: from_pair on the integer pair
        fast, general = Scalar(v), from_pair(*_pair(v))
        assert fast == general == v, v
        assert (fast._n, fast._d) == (general._n, general._d), v
        assert hash(fast) == hash(general) == hash(v), v


def _ref_add(a, b):
    """a + b for ascending coefficient sequences, stripped, in lists: no oscigeo helper."""
    out = [0] * max(len(a), len(b))
    for p in (a, b):
        for i, v in enumerate(p):
            out[i] += v
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _ref_mul(a, b):
    """a * b for ascending coefficient sequences, in lists: no oscigeo helper."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return tuple(out)


def _pair(x):
    """The canonical pair of a Scalar, int or Fraction, read without the Scalar constructor."""
    if isinstance(x, Scalar):
        return x._n, x._d
    x = Fraction(x)
    return ((x.numerator,) if x else ()), (x.denominator,)


def _general_pair(op, a, b):
    """The canonical pair of op(a, b) through from_pair, the general path, from the pairs of a and b."""
    (an, ad), (bn, bd) = _pair(a), _pair(b)
    if op is operator.sub:
        op, bn = operator.add, tuple(-v for v in bn)
    if op is operator.truediv:
        op, bn, bd = operator.mul, bd, bn
    if op is operator.add:
        s = from_pair(_ref_add(_ref_mul(an, bd), _ref_mul(bn, ad)), _ref_mul(ad, bd))
    else:
        s = from_pair(_ref_mul(an, bn), _ref_mul(ad, bd)) if an and bn else ZERO
    return s._n, s._d


def _sympy_pair(sympy, x, op, a, b):
    """op(a, b) cancelled by sympy over Z[x], as ascending coefficients in the canonical normalization."""
    P, Q, R, S = (sympy.Poly(list(reversed(c)) or [0], x, domain="ZZ") for c in (*_pair(a), *_pair(b)))
    num, den = {
        operator.add: (P * S + R * Q, Q * S),
        operator.sub: (P * S - R * Q, Q * S),
        operator.mul: (P * R, Q * S),
        operator.truediv: (P * S, Q * R),
    }[op]
    if num.is_zero:
        return (), (1,)
    num, den = num.cancel(den, include=True)
    n, d = [int(c) for c in reversed(num.all_coeffs())], [int(c) for c in reversed(den.all_coeffs())]
    c = math.gcd(*n, *d) * (1 if d[-1] > 0 else -1)
    return tuple(v // c for v in n), tuple(v // c for v in d)


def _non_rational_values():
    """Seeded non-rational Scalars; the content 2 of base's denominator divides 6 and -12."""
    base = (PI + 2) / (4 * PI + 2)
    others = [
        base,
        6 * base,
        -base / 4,
        PI,
        -(PI**3),
        PI**2 / 3,
        Scalar(1) / PI,
        (PI**2 + 1) / PI**3,
        PI**2 / (PI + 1),
        (3 * PI**3 - 6 * PI) / (9 * PI**2 + 12),
    ]
    rng = random.Random(15)
    return others + [s for s in (rand_scalar(rng) for _ in range(40)) if not s.is_rational()]


def test_rational_operand_fast_paths_match_the_general_form_and_sympy():
    # a rational operand skips the pi-strip and the polynomial gcd in _add and
    # _mul; the result must be the pair the general path and sympy give
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rationals = [Scalar(v) for v in (0, 1, -1, 6, -12, Fraction(3, 4), Fraction(-5, 6), Fraction(-2, 9))]
    others = _non_rational_values()
    checked = 0
    for r in rationals:
        for s in others:
            for a, b in ((r, s), (s, r)):
                for op in OPS:
                    if op is operator.truediv and b.is_zero():
                        continue
                    got = op(a, b)
                    pair = (got._n, got._d)
                    assert pair == _general_pair(op, a, b), (op, a, b)
                    assert pair == _sympy_pair(sympy, x, op, a, b), (op, a, b)
                    checked += 1
    assert checked > 1500


def test_squares_skip_the_gcd_and_match_the_general_form_and_sympy(monkeypatch):
    # the square of a canonical pair is canonical, so x * x runs no polynomial gcd
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    values = _non_rational_values()
    want = [(_general_pair(operator.mul, s, s), _sympy_pair(sympy, x, operator.mul, s, s)) for s in values]
    gcds, pgcd = [], scalar._pgcd
    monkeypatch.setattr(scalar, "_pgcd", lambda *args: gcds.append(args) or pgcd(*args))
    for s, (general, cancelled) in zip(values, want):
        got = s * s
        assert (got._n, got._d) == general == cancelled, s
    assert gcds == [] and len(values) > 40


def _short_values():
    """Scalars whose numerator and denominator have length 1 or 2, with every sign pattern.

    They include monomials (0, c), contents above 1 that scaling exposes,
    and denominators whose leading coefficient turns negative when scaled
    by a negative rational or divided into one.
    """
    nums = [(3,), (-3,), (2, 5), (2, -5), (-2, 5), (-2, -5), (0, 4), (0, -4), (6, 6)]
    dens = [(1,), (4,), (-6,), (1, 3), (1, -3), (-1, 3), (-1, -3), (0, 2)]
    return [from_coeffs(n, d) for n in nums for d in dens]


def test_short_operand_fast_paths_match_the_general_form_and_sympy():
    # length <= 2 operands take the tuple fast cases of padd, _pscale and the
    # content division, and ints in -256..256 the shared table; each op, plain
    # and reflected, must give the pair of the test-local general path and of sympy
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    shorts = _short_values()
    top_cancels = [PI / (PI + 1), (3 + 2 * PI) / 5, (1 - 2 * PI) / 5, (3 + 3 * PI) / 2]
    partners = [0, 1, -1, 256, -256, 257, -257, Fraction(2, 3), Fraction(-5, 6), Scalar(-1)]
    partners += top_cancels + shorts[::5]
    checked = cancelled = 0
    for a in shorts + top_cancels:
        for b in partners:
            for lhs, rhs in ((a, b), (b, a)):
                for op in OPS:
                    if op is operator.truediv and _pair(rhs)[0] == ():
                        continue
                    got = op(lhs, rhs)
                    assert type(got) is Scalar
                    pair = (got._n, got._d)
                    assert pair == _general_pair(op, lhs, rhs), (op, lhs, rhs)
                    assert pair == _sympy_pair(sympy, x, op, lhs, rhs), (op, lhs, rhs)
                    checked += 1
                    # a sum or difference with a degree-1 numerator whose result lost its pi term
                    if op in (operator.add, operator.sub) and max(len(_pair(v)[0]) for v in (lhs, rhs)) == 2:
                        cancelled += len(got._n) < 2
    assert checked > 3000 and cancelled > 50


def test_small_integer_table_edges():
    # the shared Scalars of -256..256 and the fresh ones beyond hold the integer itself
    for v in range(-300, 301):
        for s in (Scalar(v), Scalar(str(v)), Scalar(Fraction(v)), Scalar(v) + 0, 0 + Scalar(v), -Scalar(-v)):
            assert (s._n, s._d) == (((v,) if v else ()), (1,)), v
            assert s == v and hash(s) == hash(v)
    assert Scalar(256) is Scalar(256) and Scalar(0) is ZERO
