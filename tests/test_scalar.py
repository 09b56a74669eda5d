import copy
import hashlib
import math
import pickle
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from oscigeo import scalar
from oscigeo.scalar import (
    MAX_DIGITS,
    MAX_NESTING,
    DivisionByZero,
    NotRational,
    PI,
    PI_HALF,
    Scalar,
    _pi_scaled,
    parse_scalar,
    quarter_turns,
)

from .builders import from_coeffs

# 100 decimals of pi, for checking the integer-arithmetic enclosure
PI_REFERENCE = Fraction(
    31415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679,
    10**100,
)


def rand_scalar(rng, max_deg=3):
    while True:
        num = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, max_deg + 1)))
        den = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, max_deg + 1)))
        if any(den):
            return from_coeffs(num, den)


def test_arith_examples():
    assert PI + PI == 2 * PI
    assert (Scalar(1) / PI) * PI == Scalar(1)
    assert (2 * PI + 1) - 2 * PI == Scalar(1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Scalar(1) / Scalar(0)


def test_is_rational_and_value():
    s = Scalar(Fraction(3, 2))
    assert s.is_rational() and s.as_integer_ratio() == (3, 2)
    assert not PI.is_rational()
    # lowest terms with a positive denominator, as int and Fraction give them
    big = Fraction(-(10**40 + 1), 3 * 10**25)
    for value in (0, -7, Fraction(-6, 4), big):
        ratio = Scalar(value).as_integer_ratio()
        assert ratio == value.as_integer_ratio() and all(type(v) is int for v in ratio)
    for value in (PI, 1 / PI, PI / 2 + 1):
        with pytest.raises(NotRational):
            value.as_integer_ratio()


def test_one_constructor_takes_every_scalar_like():
    text = "29/3 + 2/(3*pi)"
    assert Scalar(text) == parse_scalar(text) and Scalar("-1/2") == Fraction(-1, 2)
    s = parse_scalar(text)
    assert Scalar(s) is s
    # bool and other subclasses of int and Fraction read as their plain value, with no recursion
    class Half(Fraction):
        pass

    assert Scalar(True) == 1 and Scalar(False) == 0 and Scalar(Half(1, 2)) == Fraction(1, 2)
    for value in (1.5, 0.1, None, 1j):
        with pytest.raises(TypeError):
            Scalar(value)


def test_one_rule_refuses_the_old_forms():
    # a second argument or a coefficient sequence is no ScalarLike: p(pi)/q(pi) is built with arithmetic
    for build in (lambda: Scalar(1, 2), lambda: Scalar((1, 2)), lambda: Scalar([1]), lambda: Scalar((1,), (2,))):
        with pytest.raises(TypeError):
            build()
    for value, expected in ((PI, PI), (-7, -7), (10**30, 10**30), (True, 1), (Fraction(-3, 4), Fraction(-3, 4)),
                            ("pi/2", PI / 2)):
        assert type(Scalar(value)) is Scalar and Scalar(value) == expected
    assert from_coeffs((1, 2), (3,)) == (1 + 2 * PI) / 3 == Scalar("(1 + 2*pi)/3")


def test_gcd_reduction_before_deciding():
    # (pi^2 + pi)/(pi + 1) reduces to pi: canonicalization must happen
    # before rationality is decided
    s = (PI ** 2 + PI) / (PI + 1)
    assert s == PI
    assert not s.is_rational()


def test_field_axioms_random():
    rng = random.Random(1)
    one = Scalar(1)
    for _ in range(300):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * (one / a) == one
        assert a - a == Scalar(0)


def test_canonical_form_idempotent():
    # the canonical form is unique, so equality is structural
    rng = random.Random(2)
    for _ in range(100):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert (a + b) - b == a
    # numerator and denominator coprime with content 1, positive leading denominator
    s = (2 + 2 * PI) / 4
    assert (s._n, s._d) == ((1, 1), (2,))


def test_constructor_allocates_once_and_copies_leave_shared_scalars_alone(monkeypatch):
    # Scalar(int or Fraction) is the one Scalar _coerce builds, or the shared small int
    assert Scalar(3) is Scalar(Scalar(3)) is Scalar(3)
    made = []
    monkeypatch.setattr(scalar, "_alloc", lambda cls: made.append(object.__new__(cls)) or made[-1])
    for value in (10**30, Fraction(-7, 3)):
        made.clear()
        assert Scalar(value) is made[0] and len(made) == 1, value
    monkeypatch.undo()
    for value in (Scalar(0), Scalar(1), Scalar(3), Scalar(10**30), from_coeffs((1, 2), (3, 4)), PI):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and str(twin) == str(value)
    assert Scalar(0).is_zero() and str(Scalar(1)) == "1" and str(Scalar(3)) == "3"


def test_float_view_homomorphism():
    rng = random.Random(3)
    for _ in range(200):
        a = rand_scalar(rng, 2)
        b = rand_scalar(rng, 2)
        fa, fb = float(a), float(b)
        bound = 1e-10 * max(1.0, abs(fa * fb))
        assert abs(float(a * b) - fa * fb) <= bound


def _eval_exact(s, x):
    """s at the rational x, exactly; None where the denominator vanishes."""
    def horner(coeffs):
        out = Fraction(0)
        for c in reversed(coeffs):
            out = out * x + c
        return out

    d = horner(s._d)
    return None if d == 0 else horner(s._n) / d


def test_float_view_accuracy_against_high_precision():
    # degree <= 4, coefficients up to 1e6: float view within 1e-12 relative
    rng = random.Random(4)
    lo, hi, scale = _pi_scaled(60)
    mid = Fraction(lo + hi, 2 * scale)
    for _ in range(100):
        num = tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 100)) for _ in range(5))
        den = tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 100)) for _ in range(5))
        if not any(den):
            continue
        s = from_coeffs(num, den)
        if s.is_zero():
            continue
        exact = _eval_exact(s, mid)
        if exact is None or exact == 0 or abs(exact) < Fraction(1, 10**6):
            continue  # ill-conditioned near a root; not covered by the contract
        rel = abs(Fraction(float(s)) - exact) / abs(exact)
        assert rel <= Fraction(1, 10**12)


def test_pi_enclosure_brackets_reference():
    for digits in (20, 40, 80):
        lo, hi, scale = _pi_scaled(digits)
        assert scale == 10**digits
        assert Fraction(lo, scale) < PI_REFERENCE < Fraction(hi, scale)
        assert hi - lo <= 4
    assert float(PI) == math.pi


def test_sign_and_comparisons():
    assert (PI - 3).sign() == 1
    assert (PI - Fraction(22, 7)).sign() == -1
    assert Scalar(0).sign() == 0
    assert PI > 3 and PI < Fraction(22, 7)
    assert PI >= 3 and PI >= PI and not PI >= 4 and Scalar(2) >= Fraction(3, 2)
    # == with anything but a Scalar, int or Fraction is left to the other operand: no text, no float
    assert Scalar(1).__eq__(1.0) is NotImplemented
    assert (Scalar(1) == 1.0) is False and (PI == "pi") is False and PI != "pi"
    # forces a refinement beyond the starting precision
    close = Fraction(PI_REFERENCE.numerator // 10**50, 10**50)
    assert (PI - close).sign() == 1
    assert abs(Scalar(-2)) == Scalar(2)


def test_floor():
    assert PI.floor() == 3
    assert (-PI).floor() == -4
    assert Scalar(2).floor() == 2
    assert Scalar(Fraction(7, 2)).floor() == 3
    assert (PI * PI).floor() == 9
    assert Scalar(-3).floor() == -3


def test_quarter_turns():
    assert quarter_turns(Scalar(0)) == 0
    assert quarter_turns(PI_HALF) == 1
    assert quarter_turns(-3 * PI_HALF) == -3
    assert quarter_turns(2 * PI) == 4
    assert quarter_turns(PI / 3) is None
    assert quarter_turns(Scalar(2)) is None


def test_parse_examples():
    assert parse_scalar("(1/2)*pi + 3") == PI / 2 + 3
    assert parse_scalar("1/(4*pi)") == Scalar(1) / (4 * PI)
    assert parse_scalar("pi^2 - 2/3") == PI * PI - Fraction(2, 3)
    assert parse_scalar("-pi") == -PI
    assert parse_scalar("3/2*pi") == Scalar(Fraction(3, 2)) * PI


def test_parse_errors_name_token():
    with pytest.raises(ValueError, match="'q'"):
        parse_scalar("qq")
    with pytest.raises(ValueError, match="unbalanced|unexpected"):
        parse_scalar("(1/2")
    with pytest.raises(ValueError, match="exponent must be an integer, got 'pi'"):
        parse_scalar("2^pi")
    with pytest.raises(ValueError, match=r"unbalanced parentheses in scalar text '\(1 2\)'"):
        parse_scalar("(1 2)")
    with pytest.raises(ValueError, match=r"unexpected token '\)' in scalar text '1\+\)'"):
        parse_scalar("1+)")


def test_print_parse_roundtrip_random():
    rng = random.Random(5)
    for _ in range(300):
        s = rand_scalar(rng)
        assert parse_scalar(str(s)) == s


def test_printing_is_total_beyond_the_int_text_cap():
    # str(int) refuses numbers above sys.get_int_max_str_digits() digits, 4300 by default
    big, digits = 10**4995, "1" + "0" * 4995
    assert str(Scalar(big)) == digits
    assert str(-Scalar(big) * PI / 3 + Scalar(Fraction(1, big))) == f"-{digits}/3*pi + 1/{digits}"


def test_pow():
    assert PI ** 0 == Scalar(1)
    assert PI ** 3 == PI * PI * PI
    assert PI ** -1 == Scalar(1) / PI
    assert parse_scalar("pi**2") == parse_scalar("pi^2") == PI * PI
    with pytest.raises(TypeError, match="scalar exponent must be an integer"):
        PI ** 0.5
    with pytest.raises(DivisionByZero, match="scalar division by zero"):
        parse_scalar("0^-1")
    # the inverted pair leads negative, and the power turns it positive-led
    inverse_square = parse_scalar("(1-pi)^-2")
    assert inverse_square == Scalar(1) / ((1 - PI) * (1 - PI))
    assert str(inverse_square) == "(1)/(pi^2 - 2*pi + 1)"


def test_parser_limit_on_exponent():
    assert parse_scalar("pi^64") == PI ** 64
    assert parse_scalar("pi^-64") == PI ** -64
    with pytest.raises(ValueError, match="exponent 65 .*MAX_DEGREE"):
        parse_scalar("pi^65")
    with pytest.raises(ValueError, match="exponent -400 .*MAX_DEGREE"):
        parse_scalar("1/(2+pi^-400)")


def test_parser_limit_on_degree():
    assert parse_scalar("pi^32*pi^32 + 1") == PI ** 64 + 1
    with pytest.raises(ValueError, match="degree 65 .*MAX_DEGREE"):
        parse_scalar("pi^64*pi")
    with pytest.raises(ValueError, match="degree 66 .*MAX_DEGREE"):
        parse_scalar("(pi^2+1)^33")
    with pytest.raises(ValueError, match="degree 65 .*MAX_DEGREE"):
        parse_scalar("1/(pi^64+1) + 1/(pi+2)")


def test_parser_limit_on_nesting():
    assert parse_scalar("(" * MAX_NESTING + "pi" + ")" * MAX_NESTING) == PI
    # the limit is checked as each parenthesis opens, before the rest is read
    for text in ("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1), "(" * 10**5):
        with pytest.raises(ValueError, match=f"MAX_NESTING = {MAX_NESTING}"):
            parse_scalar(text)


def test_parser_limit_on_digits():
    big = "9" * MAX_DIGITS
    assert parse_scalar(big) == Scalar(int(big))
    with pytest.raises(ValueError, match="MAX_DIGITS"):
        parse_scalar("1/" + big + "9")
    # nested powers would otherwise grow coefficients without bound
    with pytest.raises(ValueError, match="MAX_DIGITS"):
        parse_scalar("((9^64)^64)^64")


def test_verify_suite_inputs_parse():
    from oscigeo.verify import _rand_scalar, run_suites

    for seed in range(20):
        rng = random.Random(seed)
        for max_deg in (1, 2, 3):
            for _ in range(50):
                s = _rand_scalar(rng, max_deg)
                assert parse_scalar(str(s)) == s
    assert all(r.passed for r in run_suites(["scalar"], seed=0))


def test_rational_scalars_hash_like_equal_numbers():
    assert Scalar(1) in {1} and 1 in {Scalar(1)}
    assert {Scalar(Fraction(1, 2)): 0}[Fraction(1, 2)] == 0
    assert {Fraction(-3, 4): 0}[Scalar(-3) / 4] == 0
    for value in (0, 5, -7, 10**30, Fraction(2, 3), Fraction(-9, 4)):
        s = Scalar(value)
        assert s == value and hash(s) == hash(value) == hash(Fraction(value))
    # non-rational values still hash by their canonical pair
    assert len({PI, PI * 2 / 2, PI + 1, 1 + PI}) == 2


def _monic_horner(s):
    """The float view's reference: Horner on the monic form, coefficients rounded once."""
    def horner(coeffs):
        out = 0.0
        for c in reversed(coeffs):
            out = out * math.pi + c
        return out

    lead = s._d[-1]
    return horner([float(Fraction(c, lead)) for c in s._n]) / horner([float(Fraction(c, lead)) for c in s._d])


def _one_signed(s):
    """True when the numerator's coefficients share a sign and the denominator's are nonnegative."""
    return min(s._d) >= 0 and (min(s._n) >= 0 or max(s._n) <= 0)


def _correctly_rounded(s):
    """The float nearest to s, from an exact evaluation at 100 decimals of pi."""
    def at_pi(coeffs):
        return sum(c * PI_REFERENCE**i for i, c in enumerate(coeffs))

    return float(Fraction(at_pi(s._n)) / at_pi(s._d))


def _draws():
    rng = random.Random(21)
    return [s for s in (rand_scalar(rng) for _ in range(300)) if not s.is_zero()]


def test_float_view_keeps_the_monic_horner_bits():
    # where no coefficient can cancel another, the float view is Horner on the monic form
    draws = [s for s in _draws() if _one_signed(s)]
    assert len(draws) == 75
    for s in draws:
        assert float(s) == _monic_horner(s), s
    assert float(Scalar(0)) == 0.0 and float(Scalar(Fraction(-7, 3))) == -7 / 3


def test_float_view_of_mixed_signs_is_correctly_rounded():
    draws = [s for s in _draws() if not _one_signed(s)]
    assert len(draws) == 218
    for s in draws:
        assert float(s) == _correctly_rounded(s), s


def _pi_convergents(count):
    """The first count convergents (p, q) of pi, from the continued fraction of PI_REFERENCE."""
    x, (p, q), (pp, qq) = PI_REFERENCE, (1, 0), (0, 1)
    out = []
    for _ in range(count):
        a = math.floor(x)
        p, q, pp, qq = a * p + pp, a * q + qq, p, q
        out.append((p, q))
        x = 1 / (x - a)
    return out


def test_float_view_of_pi_convergent_gaps_does_not_cancel():
    # p - q*pi keeps none of the digits that p and q*pi share
    for p, q in _pi_convergents(49):
        gap = p - q * PI
        assert float(gap) == _correctly_rounded(gap), (p, q)
        assert gap.sign() == (1 if float(gap) > 0 else -1) and abs(float(gap)) * q < 1


def test_float_view_of_a_near_cancellation_refines_past_the_first_enclosure(monkeypatch):
    # 39 digits of pi minus pi: the mixed signs send it to the enclosures, and
    # 40 digits of pi leave the enclosure wider than 2^-64 relative, so 80 are read
    digits = []

    def spy(n):
        digits.append(n)
        return _pi_scaled(n)

    monkeypatch.setattr(scalar, "_pi_scaled", spy)
    value = float(parse_scalar("314159265358979323846264338327950288419/10^38 - pi"))
    assert digits == [40, 80]
    exact = float(Fraction(314159265358979323846264338327950288419, 10**38) - PI_REFERENCE)
    assert abs(value - exact) <= 2**-52 * abs(exact) and value < 0


def test_float_view_beyond_float_range_coefficients():
    big = 10**400
    # each coefficient overflows a float, the value does not
    assert float(parse_scalar(f"{big}/({big}+pi)")) == 1.0
    assert float(parse_scalar(f"({big}*pi + 1)/({big} + pi)")) == math.pi
    assert float(parse_scalar(f"({big}*pi^2 + 1)/({big}*pi + 3)")) == pytest.approx(math.pi, rel=1e-15)
    assert float(parse_scalar(f"{big}*pi/({big}*pi^2 + 7)")) == pytest.approx(1 / math.pi, rel=1e-15)
    # 10^300 / (10^300 pi^19 + pi^20): the denominator's Horner sum overflows
    s = from_coeffs((10**300,), (0,) * 19 + (10**300, 1))
    assert float(s) == pytest.approx(math.pi**-19, rel=1e-15)
    # beyond the range: signed infinities; below it: zero
    assert float(parse_scalar(f"{big}*pi")) == math.inf
    assert float(parse_scalar(f"-{big}/(pi - 3)")) == -math.inf
    assert float(parse_scalar(f"{big}")) == math.inf
    assert float(parse_scalar(f"1/({big}*pi)")) == 0.0


def test_floor_beyond_the_float_range():
    mpmath = pytest.importorskip("mpmath")
    big = "1" + "0" * 400
    with mpmath.workdps(500):
        expected = int(mpmath.floor(mpmath.mpf(10) ** 400 * mpmath.pi))
    assert parse_scalar(f"{big}*pi").floor() == expected
    assert parse_scalar(f"-{big}*pi").floor() == -expected - 1
    assert parse_scalar(f"1/({big}*pi)").floor() == 0
    assert parse_scalar(f"-1/({big}*pi)").floor() == -1


def _outcome(parse, text):
    """The canonical pair parse(text) gives, or the type and text of what it raises."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return value._n, value._d


_BLANK = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\n "])
_NUMERAL = st.one_of(
    st.integers(0, 10**8).map(str),
    st.integers(0, 999).map(lambda v: "00" + str(v)),
    st.sampled_from(
        ["0", "00", "9" * MAX_DIGITS, "1" + "0" * (MAX_DIGITS - 1), "9" * (MAX_DIGITS + 1), "\u0663", "3\u0663", "\xb2"]
    ),
)


@st.composite
def _literals(draw):
    sign = draw(st.sampled_from(["", "-", "- ", "+", "--", "-+"]))
    head = draw(_BLANK) + sign + draw(_BLANK) + draw(_NUMERAL) + draw(_BLANK)
    tail = draw(st.sampled_from(["", "/{}", "/{}{}", "/", "/{}/{}", "/-{}", "{}"]))
    return head + tail.format(*(draw(_BLANK) + draw(_NUMERAL) for _ in range(tail.count("{}"))))


_EDGE_LITERALS = [
    "-0", "0", "\t- 0/7 ", "\xa0-3/4", "007/0014", "3/0", "0/0", "-5 / 0", "3/4/5", "3/", "-", "+3/4",
    "9" * MAX_DIGITS, "-1/" + "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1), "1/" + "9" * (MAX_DIGITS + 1),
    "\u0663/4", "3/\u0664", "\xb2", "1 2", "",
]


@hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
@hypothesis.given(_literals())
def test_rational_fast_path_agrees_with_the_general_parser(text):
    # the general path is the tokenizer and the recursive descent alone
    assert _outcome(parse_scalar, text) == _outcome(scalar._parse_text, text)


def test_rational_fast_path_agrees_on_edge_literals():
    for text in _EDGE_LITERALS:
        assert _outcome(parse_scalar, text) == _outcome(scalar._parse_text, text), text


# the pi-Laurent fast path: at most two terms N/M * pi^e, and texts just outside that grammar
_LAURENT_NUMERAL = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0", "1", "007", "00", "9" * MAX_DIGITS, "1" + "0" * (MAX_DIGITS - 1), "9" * (MAX_DIGITS + 1)]),
)
_LAURENT_POWER = st.one_of(
    st.sampled_from(["pi", "pi^0", "pi^1", "pi^2", "pi^07", "pi^33", "pi^64", "pi^65", "pi^99", "pi^064"]),
    st.integers(0, 70).map("pi^{}".format),
    st.sampled_from(["pi**2", "p i", "pi ^ 2", "pi^-1", "pi^٣", "pi^", "pie"]),
)
_LAURENT_TERMS = (
    "{N}", "{N}/{N}", "{N}/{N}*{P}", "{N}/{P}", "{N}/({N}*{P})", "{N}*{P}", "{P}", "{P}/{N}",
    # near misses: juxtaposition, a third factor, a misplaced parenthesis, a blank inside
    "{N}{P}", "{N}/{N}/{N}", "({N})", "{N}*{P}/{N}", "{N}/({P})", "{N} /{N}", "{N}/ ({N}*{P})", "٣",
)


@st.composite
def _laurent_literals(draw):
    def term():
        form = draw(st.sampled_from(_LAURENT_TERMS))
        return form.replace("{P}", draw(_LAURENT_POWER)).replace("{N}", "{}").format(
            *(draw(_LAURENT_NUMERAL) for _ in range(form.count("{N}")))
        )

    sign = draw(st.sampled_from(["", "-", "- ", "-\t", "+", "--"]))
    text = draw(_BLANK) + sign + term()
    if draw(st.booleans()):
        text += draw(st.sampled_from([" + ", " - ", "+", "-", "\t-\t", " - -", " ", "*", "  "])) + term()
    return text + draw(_BLANK)


_LAURENT_EDGES = [
    "-17/54 - 1/(4*pi)", "4/3*pi", "2*pi", "1/(4*pi)", "pi/2", "-pi^2/3 + 1", "0 + 1/(2*pi)", "0 - 3/(8*pi)",
    "1/0", "1/(0*pi)", "0/(0*pi)", "pi/0", "1/0*pi", "3 - 1/0", "0/0 + pi",
    "pi^64", "pi^65", "pi^64 + 1/pi", "pi^32 - 1/pi^33", "pi^32 - 1/pi^32", "1/pi^64 + 1", "pi - 1/pi^64",
    "pi^65 - pi^65", "0*pi^65", "1/pi^65", "pi - pi", "2/pi - 4/(2*pi)", "1/pi + 1/pi", "6/4 + 3/(6*pi^3)",
    "--1", "1 - -2", "1 2", "p i", "pi**2", "٣", "- 0", "007/0014*pi^07 - 00/3", "\t5/(10*pi)\t+\t1/2\t",
    "9" * MAX_DIGITS + "*pi - 1/(" + "9" * MAX_DIGITS + "*pi)", "9" * (MAX_DIGITS + 1) + "*pi",
    "1/(" + "9" * (MAX_DIGITS + 1) + "*pi) + 1",
]


@hypothesis.settings(max_examples=600, derandomize=True, deadline=None, database=None)
@hypothesis.given(_laurent_literals())
def test_laurent_fast_path_agrees_with_the_general_parser(text):
    assert _outcome(parse_scalar, text) == _outcome(scalar._parse_text, text)


def test_laurent_fast_path_agrees_on_edge_literals():
    for text in _LAURENT_EDGES:
        assert _outcome(parse_scalar, text) == _outcome(scalar._parse_text, text), text
    assert parse_scalar("-17/54 - 1/(4*pi)") == Fraction(-17, 54) - 1 / (4 * PI)
    assert parse_scalar(" pi^2/3 ") == PI**2 / 3 and parse_scalar("-2/pi^2 + 1/2*pi") == PI / 2 - 2 / PI**2


def test_powers_of_pi_reach_the_descent(monkeypatch):
    # the shortcut reads pi alone; the descent polices and words every power of pi
    texts, parse = [], scalar._parse_text

    def record(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(scalar, "_parse_text", record)
    assert parse_scalar("pi^2") == PI**2 and parse_scalar("1/pi^2") == 1 / PI**2
    assert parse_scalar("3/(4*pi^2)") == 3 / (4 * PI**2)
    with pytest.raises(ValueError, match="parsed value of degree 65 is above the limit MAX_DEGREE = 64"):
        parse_scalar("pi^64 + 1/pi")
    assert texts == ["pi^2", "1/pi^2", "3/(4*pi^2)", "pi^64 + 1/pi"]


def test_parser_digits_are_ascii():
    for text in ("\u0663/4", "3\u0663", "\xb2", "2^\xb2", "1/\u0664"):
        bad = next(c for c in text if c not in "0123456789/^")
        with pytest.raises(ValueError, match=f"unexpected character {bad!r} in scalar text"):
            parse_scalar(text)
    assert parse_scalar(" -007 /\t 14\xa0") == Scalar(Fraction(-1, 2))
    assert parse_scalar("-0") == parse_scalar("0/5") == Scalar(0)
    with pytest.raises(DivisionByZero, match="scalar division by zero"):
        parse_scalar("3/0")


# ---------------------------------------------------------------------------
# the parser's outcomes, pinned on a seeded corpus
# ---------------------------------------------------------------------------

_SOUP = (
    "pi", "0", "1", "2", "3", "7", "12", "00", "+", "-", "*", "/", "^", "**", "^-", "(", ")", " ",
    "\t", "x", ".", "1.5", "\u0663", "pi^64", "pi^65", "2^-1", "//", "()", "e",
)


def _expression(rng, depth):
    """A text of the scalar grammar, or close to it: high powers only on atoms, so it parses fast."""
    pick = rng.random()
    if depth == 0 or pick < 0.3:
        return rng.choice(("pi", "pi", str(rng.randint(0, 12)), str(rng.randint(0, 10**6)), "0"))
    if pick < 0.42:
        return rng.choice(("-", "+", "--", "-+", "- ")) + _expression(rng, depth - 1)
    if pick < 0.52:
        return "(" + _expression(rng, depth - 1) + ")"
    if pick < 0.64:
        base = rng.choice(("pi", str(rng.randint(0, 12)), "(" + _expression(rng, 1) + ")"))
        top = 65 if base[0] != "(" else 3
        return base + rng.choice(("^", "**", "^-", "^+", " ^ ", "^--")) + str(rng.randint(0, top))
    op = rng.choice((" + ", "-", "*", "/", " - ", "+", " * ", "/ "))
    return _expression(rng, depth - 1) + op + _expression(rng, depth - 1)


def _parser_corpus():
    """20 000 seeded texts for the parser, valid and invalid, with each limit hit from both sides."""
    rng = random.Random("parser corpus")
    texts = []
    while len(texts) < 20_000:
        pick = rng.random()
        if pick < 0.3:
            text = "".join(rng.choice(_SOUP) for _ in range(rng.randint(0, 10)))
        elif pick < 0.85:
            text = _expression(rng, rng.randint(1, 4))
            if rng.random() < 0.3:  # one character dropped, doubled or swapped for an operator
                at = rng.randrange(len(text))
                text = text[:at] + rng.choice(("", text[at] * 2, "*", ")", "(", "^", "**")) + text[at + 1 :]
        elif pick < 0.9:
            depth = MAX_NESTING + rng.randint(-2, 2)
            closing = depth - rng.randint(0, 1)
            text = "(" * depth + _expression(rng, 1) + ")" * closing
        elif pick < 0.95:
            numeral = str(rng.randint(1, 9)) * (MAX_DIGITS + rng.randint(-1, 1))
            text = rng.choice(("{}", "-{}", "1/{}", "{}*pi", "pi - {}", "({})^2", "{}^1")).format(numeral)
        else:
            text = rng.choice(("pi", "2", "(pi+1)", "(1-pi)", "(pi^2+1)", "9")) + rng.choice(("^", "**")) + str(
                rng.choice((-66, -65, -64, -1, 0, 1, 32, 33, 63, 64, 65, 66))
            )
        texts.append(text)
    return texts


# sha256 of the outcomes of parse_scalar on _parser_corpus(): a rewrite of the
# tokenizer, the descent or a limit that changes any value or message changes it
_PINNED_PARSER_OUTCOMES = "180ebf0d5a1e5611c21d42e2dedeb4dcff8268a768e5a44c4617d30b760a80bb"


def test_parser_outcomes_match_the_pinned_corpus():
    digest = hashlib.sha256()
    for text in _parser_corpus():
        digest.update(repr(_outcome(parse_scalar, text)).encode() + b"\n")
    assert digest.hexdigest() == _PINNED_PARSER_OUTCOMES
