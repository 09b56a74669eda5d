"""Exact arithmetic in Q(pi).

A Scalar is a rational function p(pi)/q(pi), where pi is treated as a
transcendental symbol.  p and q are dense tuples of Python ints in
ascending degree (the zero polynomial is the empty tuple), kept in one
canonical form:

  * p and q are coprime as polynomials;
  * the gcd of all coefficients of p and q together is 1;
  * the leading coefficient of q is positive (zero is ((), (1,))).

Equality is therefore structural and zero-testing is free.  A rational
a/b is ((a,), (b,)) and costs one integer gcd per operation; no
Fraction is built on the arithmetic path.  Polynomials of length at most 2
are added, scaled and divided by their content into tuples built directly,
and the Scalars of -256..256 come from one shared table (a Scalar is never
mutated).  With one rational operand u/v and the other n/d, the results
(v n + u d)/(v d), (u n)/(v d) and (v n)/(u d) stay coprime as
polynomials, since a common factor would divide both n and d, and they
share no power of pi; so they skip the polynomial gcd and cost one
content gcd.

Sign queries evaluate the polynomials on shrinking rational enclosures
A/10^d of pi, in integers: with p+ and p- the parts of p with positive
and negative coefficients, p lies in [p+(lo) - p-(hi), p+(hi) - p-(lo)]
on the positive interval [lo, hi].  A nonzero polynomial with rational
coefficients cannot vanish at a transcendental point, so the refinement
always terminates; this is what turns comparisons, floors and lattice
membership into exact decisions.  One iterator runs the refinement, and
sign, floor and the float fallback each stop it on their own test.
A sign needs no enclosure when the coefficients of p share one sign and
those of q share one: since pi > 0, each polynomial then has the sign
of its coefficients at pi.  Rationals, and the c/pi of a closed
direction's squared norm, are decided so.  The float view runs Horner
on exactly those pairs, where no term can cancel another, and reads
every other value from the enclosures.

Decisions need no canonical form.  ``pair`` gives a Scalar's pair as
integer tuples, ``pmul`` and ``padd`` multiply and add such
polynomials, ``pair_sign`` decides the sign of any pair n/d at pi,
which Scalar.sign calls on its own pair, and ``proportion`` decides
whether n(pi)/d(pi) is rational, by comparing coefficients: pi is
transcendental.  ``from_pair`` makes a pair canonical, the one step
that takes a polynomial gcd.

The text parser bounds the work a short input can ask for: exponents
and the degree of every parsed value stay within MAX_DEGREE, numerals
and the coefficients of a power within MAX_DIGITS digits, and
parentheses nest at most MAX_NESTING deep.  Inputs beyond these limits
raise a ValueError that names the limit.  Two literal shapes take one
regex match each, whose digit counts carry MAX_DIGITS, and become
their canonical pair directly in integers.  A plain rational, an
optionally negative integer or fraction such as "-3/4", costs one
integer gcd.  A pi-Laurent literal, at most two terms joined by
+ or -, each N, N/M, N/M*pi, N/pi, N/(M*pi), N*pi, pi or pi/M (blanks
only around the terms), such as "-17/54 - 1/(4*pi)" or "4/3*pi", has
degree at most 2 and costs one content gcd: with a term in 1/pi the
numerator's constant term is nonzero, so the pair over M pi is already
coprime.  Every other text, a power of pi included, and every text
that divides by zero, goes through the tokenizer, one regex over the
text into a plain list of tokens ending in None, and a descent that
reads that list by index; these two police every limit and give every
error message.  The descent has two functions: one reads a sum of
products, the other a factor, that is its unary signs, its atom and an
optional power.  Only a parenthesis recurses, so the recursion is as
deep as the parentheses nest.  Numerals are ASCII digits on every
path.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Union

# parser limits: exponents and degrees, digits per numeral or power coefficient, and
# the depth of parentheses, which bounds the recursion of the descent
MAX_DEGREE = 64
MAX_DIGITS = 1000
MAX_NESTING = 100
_MAX_BITS = math.ceil(MAX_DIGITS * math.log2(10))


class DivisionByZero(ZeroDivisionError):
    """Division of a Scalar by the zero Scalar."""


class NotRational(ValueError):
    """A rational value was requested from a non-constant Scalar."""


Poly = tuple[int, ...]
ScalarLike = Union["Scalar", int, Fraction, str]

_gcd = math.gcd


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z
# ---------------------------------------------------------------------------

def _strip(c: list[int]) -> Poly:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    if len(a) <= 2 and b:  # the usual degree <= 1 sums, without a list
        low = a[0] + b[0]
        if len(a) == 1:
            return (low,) if low else ()
        top = a[1] + b[1] if len(b) == 2 else a[1]
        return (low, top) if top else ((low,) if low else ())
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return _strip(out)


def _pscale(a: Poly, k: int) -> Poly:
    if k == 1:
        return a
    if len(a) == 2:
        return (k * a[0], k * a[1])
    if len(a) == 1:
        return (k * a[0],)
    return tuple([k * v for v in a])


def pmul(a: Poly, b: Poly) -> Poly:
    if len(a) == 1:
        return (a[0] * b[0],) if len(b) == 1 else _pscale(b, a[0])
    if len(b) == 1:
        return _pscale(a, b[0])
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return tuple(out)


def _pdiv(a: Poly, c: int) -> Poly:
    """a divided exactly by the integer c."""
    if len(a) == 2:
        return (a[0] // c, a[1] // c)
    if len(a) == 1:
        return (a[0] // c,)
    return tuple([v // c for v in a])


def _pprimitive(a: Poly) -> Poly:
    """a divided by its content, with a positive leading coefficient."""
    c = _gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else _pdiv(a, c)


def _prem(a: Poly, b: Poly) -> Poly:
    """A pseudo-remainder of a by b: some lc(b)^k * a mod b, over Z."""
    r = list(a)
    lead = b[-1]
    nb = len(b)
    while len(r) >= nb:
        c = r.pop()
        if not c:
            continue
        shift = len(r) - nb + 1
        if lead != 1:
            r = [v * lead for v in r]
        for i in range(nb - 1):
            r[shift + i] -= c * b[i]
    return _strip(r)


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd of two non-constant polynomials not both divisible by x (primitive PRS)."""
    if not any(a[:-1]) or not any(b[:-1]):
        # a monomial c x^k is coprime to a polynomial with a nonzero constant term
        return (1,)
    if len(a) < len(b):
        a, b = b, a
    a, b = _pprimitive(a), _pprimitive(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _pprimitive(r)
    return (1,)


def _pquo(a: Poly, b: Poly) -> Poly:
    """Exact quotient a / b over Z; b divides a."""
    r = list(a)
    nb = len(b)
    lead = b[-1]
    q = [0] * (len(a) - nb + 1)
    for shift in range(len(q) - 1, -1, -1):
        c = r[shift + nb - 1] // lead
        q[shift] = c
        if c:
            for i, v in enumerate(b):
                r[shift + i] -= c * v
    return tuple(q)


def _peval_float(a, x: float) -> float:
    out = 0.0
    for v in reversed(a):
        out = out * x + v
    return out


def _pbounds(a: Poly, lo: int, hi: int, scale: int) -> tuple[int, int]:
    """Integer bounds of scale^deg * a on [lo/scale, hi/scale] (0 < lo).

    Evaluates the positive-coefficient part p+ and the negated
    negative-coefficient part p- at both ends, homogenized by
    scale^deg so that everything stays in integers; both parts increase
    on the positive interval.
    """
    pos_lo = pos_hi = neg_lo = neg_hi = 0
    power = 1
    for c in reversed(a):
        pos_lo *= lo
        pos_hi *= hi
        neg_lo *= lo
        neg_hi *= hi
        if c > 0:
            t = c * power
            pos_lo += t
            pos_hi += t
        elif c < 0:
            t = c * power
            neg_lo -= t
            neg_hi -= t
        power *= scale
    return pos_lo - neg_hi, pos_hi - neg_lo


# ---------------------------------------------------------------------------
# rational enclosures of pi (Machin's formula, integer arithmetic)
# ---------------------------------------------------------------------------

def _arccot(x: int, one: int) -> int:
    total = 0
    power = one // x
    n = 1
    sign = 1
    xx = x * x
    while power:
        total += sign * (power // n)
        power //= xx
        n += 2
        sign = -sign
    return total


# digits start at 40 and double, so a handful of entries covers every refinement
@lru_cache(maxsize=16)
def _pi_scaled(digits: int) -> tuple[int, int, int]:
    """(lo, hi, 10**digits) with lo/10**digits < pi < hi/10**digits."""
    guard = 10 ** 12
    one = 10 ** digits * guard
    approx = 4 * (4 * _arccot(5, one) - _arccot(239, one))
    scaled = approx // guard
    # series truncation plus flooring stays far below the guard scale
    return scaled - 2, scaled + 2, 10 ** digits


def _enclosures(n: Poly, d: Poly):
    """The one refinement loop: _pbounds of n and d on ever tighter enclosures of pi.

    Yields ((nl, nh), (dl, dh), scale) on _pi_scaled(40), _pi_scaled(80)
    and so on, without end: each caller stops it on its own test, which a
    nonzero n and d at the transcendental pi always pass at some depth.
    """
    digits = 40
    while True:
        lo, hi, scale = _pi_scaled(digits)
        yield _pbounds(n, lo, hi, scale), _pbounds(d, lo, hi, scale), scale
        digits *= 2


def _float_by_enclosure(n: Poly, d: Poly) -> float:
    """n(pi) / d(pi) from enclosures of relative width below 2^-64; +-inf beyond the float range."""
    for (nl, nh), (dl, dh), scale in _enclosures(n, d):
        if (nh - nl) << 64 < abs(nl) and (dh - dl) << 64 < abs(dl):
            try:  # int / int rounds once; the homogenizing powers of scale cancel
                return nl * scale ** len(d) / (dl * scale ** len(n))
            except OverflowError:
                return math.inf if (nl > 0) == (dl > 0) else -math.inf


# ---------------------------------------------------------------------------
# decisions on integer polynomials: no canonical form, no polynomial gcd
# ---------------------------------------------------------------------------

# the canonical pair (n, d) of a Scalar, n(pi)/d(pi), as two integer tuples
pair = attrgetter("_n", "_d")


def pair_sign(n: Poly, d: Poly) -> int:
    """Exact sign of n(pi)/d(pi) for integer polynomials n and d != 0: -1, 0 or +1.

    The pair need not be reduced: a nonzero polynomial does not vanish at
    the transcendental pi, so the enclosures decide every sign.
    """
    if not n:
        return 0
    # pi > 0, so a polynomial whose coefficients share a sign has that sign at pi
    if min(d) >= 0:
        if min(n) >= 0:
            return 1
        if max(n) <= 0:
            return -1
    for (nl, nh), (dl, dh), _ in _enclosures(n, d):
        if (nl > 0 or nh < 0) and (dl > 0 or dh < 0):
            return 1 if (nl > 0) == (dl > 0) else -1


def proportion(a: Poly, b: Poly) -> tuple[int, int] | None:
    """(c, e) with e > 0 and e a = c b, or None when a is no rational multiple of b != 0.

    As pi is transcendental, a(pi)/b(pi) is rational iff a = (c/e) b as
    polynomials.  c/e is the ratio of the leading coefficients, not
    reduced, and one scan of the coefficients checks the rest.
    """
    if not a:
        return 0, 1
    if len(a) != len(b):
        return None
    c, e = a[-1], b[-1]
    if e < 0:
        c, e = -c, -e
    for u, v in zip(a, b):
        if u * e != v * c:
            return None
    return c, e


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------

_alloc = object.__new__  # one global lookup on the per-operation allocations


def _new(n: Poly, d: Poly) -> "Scalar":
    out = _alloc(Scalar)
    out._n = n
    out._d = d
    return out


def _from_coprime(n: Poly, d: Poly) -> "Scalar":
    """The canonical Scalar n / d for a coprime pair n, d sharing no power of pi.

    Only the common content and the sign of the leading denominator
    coefficient remain to be normalized: no polynomial gcd.
    """
    c = _gcd(*(n + d))  # one tuple to unpack costs less than two
    if d[-1] < 0:
        c = -c
    if c != 1:
        n, d = _pdiv(n, c), _pdiv(d, c)
    out = _alloc(Scalar)
    out._n, out._d = n, d
    return out


def from_pair(n: Poly, d: Poly) -> "Scalar":
    """The canonical Scalar n / d for integer polynomials n and nonzero d."""
    if not n:
        return ZERO
    k = 0  # the power of pi shared by n and d, sliced off before any gcd
    while not (n[k] or d[k]):
        k += 1
    n, d = n[k:], d[k:]
    if len(n) > 1 and len(d) > 1:
        g = _pgcd(n, d)
        if len(g) > 1:
            n = _pquo(n, g)
            d = _pquo(d, g)
    return _from_coprime(n, d)


def _coerce(value) -> "Scalar":
    kind = type(value)
    if kind is Scalar:
        return value
    if kind is int:
        return _SMALL_INTS[value + 256] if -256 <= value <= 256 else _new((value,), (1,))
    if kind is Fraction:
        return _new((value.numerator,), (value.denominator,)) if value else ZERO
    if isinstance(value, (int, Fraction)):  # bool and other subclasses, read as a plain Fraction
        return _coerce(Fraction(value))
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a Scalar")


class Scalar:
    """An exact element of Q(pi), a reduced fraction of polynomials in pi.

    Scalar(x) takes one ScalarLike: a Scalar comes back unchanged, and an
    int, a Fraction or a text in the syntax of parse_scalar becomes its
    canonical Scalar.  Anything else, a coefficient sequence included,
    raises TypeError; p(pi)/q(pi) is built with arithmetic, as in
    (1 + 2 * PI) / 3.
    """

    __slots__ = ("_n", "_d")

    def __new__(cls, value):
        return _coerce(value)

    def __reduce__(self):  # copies rebuild the pair, as the constructor may return a shared Scalar
        return _new, (self._n, self._d)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._n

    def is_rational(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def as_integer_ratio(self) -> tuple[int, int]:
        """(n, d) with d > 0 in lowest terms, as int, float and Fraction give it.

        The canonical pair of a rational is already that pair, so no gcd is taken.
        """
        n, d = self._n, self._d
        if len(n) > 1 or len(d) > 1:
            raise NotRational(f"{self} is not a rational constant")
        return (n[0], d[0]) if n else (0, 1)

    def is_integer(self) -> bool:
        return len(self._n) <= 1 and self._d == (1,)

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is Scalar else _coerce(other)
        return _add(self._n, self._d, o._n, o._d)

    __radd__ = __add__

    def __neg__(self):
        return _new(_pscale(self._n, -1), self._d)

    def __sub__(self, other):
        o = other if type(other) is Scalar else _coerce(other)
        return _add(self._n, self._d, _pscale(o._n, -1), o._d)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        o = other if type(other) is Scalar else _coerce(other)
        return _mul(self._n, self._d, o._n, o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is Scalar else _coerce(other)
        if not o._n:
            raise DivisionByZero("scalar division by zero")
        return _mul(self._n, self._d, o._d, o._n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("scalar exponent must be an integer")
        n, d = self._n, self._d
        if exponent < 0:
            if not n:
                raise DivisionByZero("scalar division by zero")
            n, d, exponent = d, n, -exponent
            if d[-1] < 0:
                n, d = _pscale(n, -1), _pscale(d, -1)
        # powers of a canonical pair stay coprime, primitive and positive-led
        pn, pd = (1,), (1,)
        while exponent:
            if exponent & 1:
                pn, pd = pmul(pn, n), pmul(pd, d)
            exponent >>= 1
            if exponent:
                n, d = pmul(n, n), pmul(d, d)
        return _new(pn, pd) if pn else ZERO

    # -- comparisons (exact) -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            o = _coerce(other)
            return self._n == o._n and self._d == o._d
        return NotImplemented

    def __hash__(self):
        # a rational value hashes like the equal int or Fraction
        return hash(Fraction(*self.as_integer_ratio()) if self.is_rational() else (self._n, self._d))

    def sign(self) -> int:
        """Exact sign of the value at pi: -1, 0 or +1."""
        return pair_sign(self._n, self._d)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def floor(self) -> int:
        """Exact floor of the value at pi, from integer enclosures at any magnitude."""
        n, d = self._n, self._d
        if len(n) <= 1 and len(d) == 1:
            return n[0] // d[0] if n else 0
        # n(pi)/d(pi) = N scale^len(d) / (D scale^len(n)) with N, D in the _pbounds
        # intervals; a non-rational value is irrational, so the floors of the
        # interval's corners meet once the enclosure is narrow enough
        for (nl, nh), (dl, dh), scale in _enclosures(n, d):
            if dl > 0 or dh < 0:
                sn, sd = scale ** len(n), scale ** len(d)
                corners = [N * sd // (D * sn) for N in (nl, nh) for D in (dl, dh)]
                if min(corners) == max(corners):
                    return corners[0]

    # -- conversions ---------------------------------------------------------

    def __float__(self) -> float:
        n, d = self._n, self._d
        if not n:
            return 0.0
        # as in sign: with the coefficients of n of one sign and those of d nonnegative,
        # no term cancels another at pi > 0; every other pair goes to the enclosures
        if min(d) >= 0 and (min(n) >= 0 or max(n) <= 0):
            lead = d[-1]
            try:
                # Horner on the monic form, each coefficient rounded once
                num, den = (_peval_float([v / lead for v in p], math.pi) for p in (n, d))
                value = num / den
                # n(pi) != 0, so a 0.0 or a non-finite value left the float range on the way
                if value and math.isfinite(value):
                    return value
            except (OverflowError, ZeroDivisionError):
                pass
        return _float_by_enclosure(n, d)

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        n, d = self._n, self._d
        lead = d[-1]
        if len(d) == 1:
            return _format_poly(n, lead)
        return f"({_format_poly(n, lead)})/({_format_poly(d, lead)})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _add(an: Poly, ad: Poly, bn: Poly, bd: Poly) -> Scalar:
    """(an / ad) + (bn / bd) for canonical pairs."""
    if len(an) <= 1 and len(ad) == 1:
        # a rational operand goes to b
        an, ad, bn, bd = bn, bd, an, ad
    if len(bn) <= 1 and len(bd) == 1:
        if not bn:
            return _new(an, ad)
        u, v = bn[0], bd[0]
        if len(an) <= 1 and len(ad) == 1:
            x = (an[0] * v if an else 0) + u * ad[0]
            if not x:
                return ZERO
            y = ad[0] * v
            g = _gcd(x, y)
            out = _alloc(Scalar)
            out._n, out._d = (x // g,), (y // g,)
            return out
        # n/d + u/v = (v n + u d) / (v d): a factor of d that divides the
        # numerator divides v n, hence n, so the pair stays coprime
        return _from_coprime(padd(_pscale(an, v), _pscale(ad, u)), _pscale(ad, v))
    if ad == bd:
        return from_pair(padd(an, bn), ad)
    return from_pair(padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd))


def _mul(an: Poly, ad: Poly, bn: Poly, bd: Poly) -> Scalar:
    """(an / ad) * (bn / bd) for canonical pairs; bd may be a numerator of either sign."""
    if not an or not bn:
        return ZERO
    if len(an) == 1 and len(ad) == 1:
        if len(bn) == 1 and len(bd) == 1:
            x, y = an[0] * bn[0], ad[0] * bd[0]
            if y < 0:
                x, y = -x, -y
            g = _gcd(x, y)
            out = _alloc(Scalar)
            out._n, out._d = (x // g,), (y // g,)
            return out
        # a rational operand goes to b
        an, ad, bn, bd = bn, bd, an, ad
    if len(bn) == 1 and len(bd) == 1:
        # (u n) / (v d): constant factors keep the pair coprime
        return _from_coprime(_pscale(an, bn[0]), _pscale(ad, bd[0]))
    if an is bn and ad is bd:  # a square of a canonical pair is canonical, as in __pow__
        return _new(pmul(an, an), pmul(ad, ad))
    return from_pair(pmul(an, bn), pmul(ad, bd))


ZERO = _new((), (1,))
# the Scalars of -256..256, shared: a Scalar is never mutated
_SMALL_INTS = tuple(_new((v,), (1,)) if v else ZERO for v in range(-256, 257))
ONE = _SMALL_INTS[257]
PI = _new((0, 1), (1,))
PI_HALF = PI / 2


# ---------------------------------------------------------------------------
# lattice membership helpers
# ---------------------------------------------------------------------------

def quarter_turns(s: ScalarLike) -> int | None:
    """The integer j with s = j*pi/2, or None if s is not such a multiple."""
    s = _coerce(s)
    n, d = s._n, s._d
    if not n:
        return 0
    # j*pi/2 in canonical form is ((0, c), (e,)) with 2c/e an integer
    if len(n) != 2 or n[0] or len(d) != 1:
        return None
    j, r = divmod(2 * n[1], d[0])
    return None if r else j


def in_quarter_lattice(s: ScalarLike, quarters: int) -> bool:
    """True iff s lies in (quarters * pi/2) Z, decided on quarter_turns(s) in integers."""
    j = quarter_turns(s)
    return j is not None and j % quarters == 0


# ---------------------------------------------------------------------------
# textual form: "p(pi)/q(pi)" with integer-fraction coefficients
# ---------------------------------------------------------------------------

def _numeral(n: int) -> str:
    """Decimal text of the integer n; above sys.get_int_max_str_digits() digits, through Decimal."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _format_coeff(c: int, lead: int) -> str:
    """Text of the nonnegative rational c/lead, lead > 0."""
    g = _gcd(c, lead)
    if g == lead:
        return _numeral(c // g)
    return f"{_numeral(c // g)}/{_numeral(lead // g)}"


def _format_poly(coeffs: Poly, lead: int) -> str:
    """Text of the polynomial coeffs / lead, lead > 0."""
    if not coeffs:
        return "0"
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if power == 0:
            body = _format_coeff(mag, lead)
        else:
            sym = "pi" if power == 1 else f"pi^{power}"
            body = sym if mag == lead else f"{_format_coeff(mag, lead)}*{sym}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# a numeral of ASCII digits, pi, ** or an operator; \S catches any other character
_TOKEN = re.compile(r"[0-9]+|pi|\*\*|[-+*/^()]|\S")
_SYMBOLS = frozenset(("pi", "+", "-", "*", "/", "^", "(", ")"))


def _tokens(text: str) -> list[str | None]:
    """The tokens of a scalar text, "**" read as "^", followed by the sentinel None."""
    tokens: list[str | None] = _TOKEN.findall(text)
    for i, tok in enumerate(tokens):
        if tok in _SYMBOLS:
            continue
        if tok == "**":
            tokens[i] = "^"
        elif "0" <= tok[0] <= "9":
            if len(tok) > MAX_DIGITS:
                raise ValueError(f"numeral of {len(tok)} digits is above the limit MAX_DIGITS = {MAX_DIGITS}")
        else:
            raise ValueError(f"unexpected character {tok!r} in scalar text {text!r}")
    tokens.append(None)
    return tokens


def _bounded(value: Scalar) -> Scalar:
    deg = max(len(value._n), len(value._d)) - 1
    if deg > MAX_DEGREE:
        raise ValueError(f"parsed value of degree {deg} is above the limit MAX_DEGREE = {MAX_DEGREE}")
    return value


def _bounded_power(value: Scalar, exponent: int) -> Scalar:
    """value ** exponent, refused before any work when it would leave the limits."""
    e = abs(exponent)
    if e > MAX_DEGREE:
        raise ValueError(f"exponent {exponent} is above the limit MAX_DEGREE = {MAX_DEGREE}")
    deg = (max(len(value._n), len(value._d)) - 1) * e
    if deg > MAX_DEGREE:
        raise ValueError(f"power of degree {deg} is above the limit MAX_DEGREE = {MAX_DEGREE}")
    # coefficients of p^e are at most (len(p) * max|c|)^e
    coeffs = value._n + value._d
    bits = max(abs(c).bit_length() for c in coeffs) + len(coeffs).bit_length()
    if bits * e > _MAX_BITS:
        raise ValueError(
            f"power {exponent} would give coefficients above the limit MAX_DIGITS = {MAX_DIGITS} digits"
        )
    return value ** exponent


# an optionally negative integer or fraction, ASCII only, within the digit limit
_RATIONAL = re.compile(
    rf"\s*(-\s*)?([0-9]{{1,{MAX_DIGITS}}})\s*(?:/\s*([0-9]{{1,{MAX_DIGITS}}})\s*)?", re.ASCII
)

# a pi-Laurent literal: at most two terms, an optional minus on the first and + or -
# between them, blanks only around the terms; a term is N, N/M, N/M*pi, N/pi, N/(M*pi),
# N*pi, pi or pi/M, in nine groups (N, M, pi after N/M, pi after N/, M and pi in
# N/(M*pi), pi after N*, the leading pi and the M after it)
_N = rf"([0-9]{{1,{MAX_DIGITS}}})"
_TERM = rf"(?:{_N}(?:/(?:{_N}(?:\*(pi))?|(pi)|\({_N}\*(pi)\))|\*(pi))?|(pi)(?:/{_N})?)"
_LAURENT = re.compile(rf"\s*(-\s*)?{_TERM}(?:\s*([-+])\s*{_TERM})?\s*", re.ASCII)


def _laurent(g: tuple) -> Scalar | None:
    """The canonical Scalar of a _LAURENT match's groups, or None for a zero M, which the descent words.

    Each term is read as N/M * pi^e with e in {-1, 0, 1}, so the value has
    degree at most 2 and meets no other limit.
    """
    (minus, n, m, up, down, m_down, down_m, up_n, up_lead, m_lead,
     op, n2, m2, up2, down2, m_down2, down_m2, up_n2, up_lead2, m_lead2) = g
    a, b = int(n) if n else 1, int(m or m_down or m_lead or 1)
    if not b:
        return None
    e = 1 if up or up_n or up_lead else -1 if down or down_m else 0
    if minus:
        a = -a
    if op:
        a2, b2 = int(n2) if n2 else 1, int(m2 or m_down2 or m_lead2 or 1)
        if not b2:
            return None
        e2 = 1 if up2 or up_n2 or up_lead2 else -1 if down2 or down_m2 else 0
        if op == "-":
            a2 = -a2
        if e2 == e:
            a, b = a * b2 + a2 * b, b * b2
        elif not a:
            a, b, e = a2, b2, e2
        elif a2:
            if e2 < e:
                a, b, e, a2, b2, e2 = a2, b2, e2, a, b, e
            # (lo + hi pi^(e2-e)) / (den pi^-e): lo is nonzero, so the pair is coprime
            lo, hi, den = a * b2, a2 * b, b * b2
            return _from_coprime((lo, hi) if e2 - e == 1 else (lo, 0, hi), (den,) if e == 0 else (0, den))
    if not a:
        return ZERO
    return _from_coprime((0, a) if e > 0 else (a,), (0, b) if e < 0 else (b,))


def parse_scalar(text: str) -> Scalar:
    """Parse the textual form; the printer and parser round-trip exactly.

    A plain rational such as "-3/4" is read by one regex match and one
    gcd, and a sum of at most two terms N/M * pi^e with e in {-1, 0, 1},
    such as "-17/54 - 1/(4*pi)" or "4/3*pi", by one more match and one
    content gcd; every other text, a power of pi such as "pi^2"
    included, and every text the parser refuses, goes through the
    tokenizer and the recursive descent.
    """
    match = _RATIONAL.fullmatch(text)
    if match:
        minus, num, den = match.groups()
        n, d = int(num), int(den) if den else 1
        if d:
            if not n:
                return ZERO
            g = _gcd(n, d)
            return _new((-n // g if minus else n // g,), (d // g,))
    match = _LAURENT.fullmatch(text)
    if match:
        value = _laurent(match.groups())
        if value is not None:
            return value
    return _parse_text(text)


def _parse_text(text: str) -> Scalar:
    tokens = _tokens(text)
    value, i = _parse_sum(tokens, 0, 0, text)
    if tokens[i] is not None:
        raise ValueError(f"trailing token {tokens[i]!r} in scalar text {text!r}")
    return value


def _parse_sum(tokens: list[str | None], i: int, depth: int, text: str) -> tuple[Scalar, int]:
    """The sum of products of factors from tokens[i], inside depth parentheses; the value and the next index.

    Each operation is applied as soon as its right operand is read, left to
    right, with products before sums.
    """
    sum_op = None
    while True:
        value, i = _parse_factor(tokens, i, depth, text)
        op = tokens[i]
        while op == "*" or op == "/":
            rhs, i = _parse_factor(tokens, i + 1, depth, text)
            value = _bounded(value * rhs if op == "*" else value / rhs)
            op = tokens[i]
        if sum_op is not None:
            value = _bounded(total + value if sum_op == "+" else total - value)
        if op != "+" and op != "-":
            return value, i
        total, sum_op = value, op
        i += 1


def _parse_factor(tokens: list[str | None], i: int, depth: int, text: str) -> tuple[Scalar, int]:
    """Unary signs, an atom and an optional power "^ signs numeral"; only parentheses recurse."""
    negate = False
    tok = tokens[i]
    while tok == "+" or tok == "-":
        negate ^= tok == "-"
        i += 1
        tok = tokens[i]
    if tok is None:
        raise ValueError(f"unexpected end of scalar text {text!r}")
    i += 1
    if tok == "pi":
        value = PI
    elif tok == "(":
        if depth == MAX_NESTING:
            raise ValueError(f"parentheses nested deeper than the limit MAX_NESTING = {MAX_NESTING}")
        value, i = _parse_sum(tokens, i, depth + 1, text)
        tok = tokens[i]
        if tok is None:
            raise ValueError(f"unexpected end of scalar text {text!r}")
        if tok != ")":
            raise ValueError(f"unbalanced parentheses in scalar text {text!r}")
        i += 1
    elif tok.isdigit():
        value = _coerce(int(tok))
    else:
        raise ValueError(f"unexpected token {tok!r} in scalar text {text!r}")
    if tokens[i] == "^":
        i += 1
        exp_negate = False
        tok = tokens[i]
        while tok == "+" or tok == "-":
            exp_negate ^= tok == "-"
            i += 1
            tok = tokens[i]
        if tok is None:
            raise ValueError(f"unexpected end of scalar text {text!r}")
        if not tok.isdigit():
            raise ValueError(f"exponent must be an integer, got {tok!r}")
        i += 1
        value = _bounded_power(value, -int(tok) if exp_negate else int(tok))
    return (-value if negate else value), i
