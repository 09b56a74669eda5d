"""Exact classification of geodesic periodicity on the compact quotients.

A geodesic from the identity with direction X closes on the quotient by
a lattice Lam iff exp(T X) lands in Lam for some T > 0, and on these
homogeneous spaces closed geodesics are automatically periodic.  The
classifier decides existence of such a T exactly, over Q(pi).

For a0 = 0 the exponential is a straight line and each nonzero
component confines T to a one-dimensional lattice c_i Z; the solution
set is their intersection, which is nonempty iff all ratios c_i/c_j are
rational, and the minimal period is the generator of the intersection.

For a0 != 0 the t-coordinate forces T = t_step m / |a0| with m a
positive integer and t_step = quarters pi/2.  The rotation R(a0 T) and
sin(a0 T) then depend only on m modulo the residue cycle 4/quarters (1,
2 or 4 residues for the full, half and quarter families).  The residues
are walked in integer quarter turns: residue r turns by sign(a0)
quarters r quarter turns, and ``groups.QUARTER_TURNS`` at that count mod
4 gives sin and the rotation exactly, with no angle built in Q(pi).
With p = a1/a0 and q = a2/a0, per residue the middle-coordinate
condition is the integrality of the constant u = R(a0 T)(q, -p) -
(q, -p), and the z-condition has the form A m - B in Z with
B = (p^2 + q^2) k sin(a0 T) and, since h = 1/2k,

  A = |X|^2 t_step / (2 a0 |a0| h) = |X|^2 pi k quarters sign(a0) / (2 a0^2).

The geodesic closes iff A is rational, that is iff |X|^2 pi / a0^2 is
rational; a null direction has |X|^2 = 0 and always closes.  In a
residue where u is integral, B is rational: R(a0 T) = +-I gives sin = 0
and B = 0, and at a quarter turn an integral u puts p and q in (1/2)Z.
So an irrational A makes A m - B irrational for every m, while a
rational A closes in the residue m = 0 (mod cycle), where u = 0 and
B = 0.  With A and B rational, m = r + cycle j turns the z-condition
into one linear congruence in j >= 0, solved with a modular inverse,
and the minimal period is the minimum over residues.  B is read as a
rational only where sin != 0; where sin = 0 it is 0 even when p^2 + q^2
is irrational.  Scanning T values can never prove non-closedness; this
rationality test can.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .geodesics import exp_scaled
from .groups import QUARTER_TURNS, LatticeSpec, lattice_contains
from .metric import CAUSAL_BY_SIGN, CausalType, TangentVector
from .scalar import PI, PI_HALF, Scalar


class VerdictKind(enum.Enum):
    PERIODIC = "periodic"
    NON_CLOSED = "non-closed"
    STATIONARY_POINT = "stationary-point"


@dataclass(frozen=True)
class PeriodicityVerdict:
    kind: VerdictKind
    minimal_T: Scalar | None = None
    witness_m: int | None = None


def verdict_to_json(causal: CausalType, verdict: PeriodicityVerdict) -> dict:
    return {
        "causal": causal.value,
        "kind": verdict.kind.value,
        "minimal_T": None if verdict.minimal_T is None else str(verdict.minimal_T),
        "witness_m": verdict.witness_m,
    }


# ---------------------------------------------------------------------------
# integer membership solving
# ---------------------------------------------------------------------------

def _solve_rational(an: int, ad: int, bn: int, bd: int, r: int, cycle: int) -> int | None:
    """Least m = r + cycle*j, j >= 0, with A m - B an integer, for A = an/ad, B = bn/bd, ad, bd > 0.

    That is a j = b (mod 1) with a = A cycle and b = B - A r, and over the
    common denominator n = ad bd of a and b the linear congruence P j = U (mod n).
    """
    n = ad * bd
    P, U = an * cycle * bd, bn * ad - an * r * bd
    g = math.gcd(P, n)
    if U % g:
        return None
    n //= g
    return r + cycle * ((U // g) * pow(P // g, -1, n) % n)


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

def _period_units(L: LatticeSpec, X: TangentVector) -> list[Scalar]:
    """Lengths every period of exp(sX) is an integer multiple of.

    t_step/|a0| from the t-coordinate when a0 != 0; for a line, step/|a_i|
    for each nonzero component.
    """
    if not X.a0.is_zero():
        return [L.t_step / abs(X.a0)]
    steps = (L.v_step, L.v_step, L.z_step)
    return [Scalar(step) / abs(a) for a, step in zip((X.a1, X.a2, X.a3), steps) if not a.is_zero()]


def _classify_line(L: LatticeSpec, X: TangentVector) -> PeriodicityVerdict:
    """a0 = 0: exp(TX) = (0, a1 T, a2 T, a3 T); intersect the step lattices."""
    generator: Scalar | None = None
    for c in _period_units(L, X):
        if generator is None:
            generator = c
            continue
        ratio = c / generator
        if not ratio.is_rational():
            return PeriodicityVerdict(VerdictKind.NON_CLOSED)
        generator = generator * ratio.rational_value().numerator
    assert generator is not None  # a nonzero X has at least one constraint
    return PeriodicityVerdict(VerdictKind.PERIODIC, minimal_T=generator)


def _classify_rotating(L: LatticeSpec, X: TangentVector, norm_sq: Scalar) -> PeriodicityVerdict:
    """a0 != 0: closed iff A is rational; then the least m over the residues."""
    a0, a1, a2, _ = X.components
    sign = a0.sign()
    quarters = L.t_step_quarters
    A = norm_sq * PI / (a0 * a0)
    if not A.is_rational():
        return PeriodicityVerdict(VerdictKind.NON_CLOSED)
    A = A.rational_value()
    # A = |X|^2 pi k quarters sign(a0) / (2 a0^2) = an/ad
    an, ad = A.numerator * L.k * quarters * sign, 2 * A.denominator
    cycle = 4 // quarters
    p, q = a1 / a0, a2 / a0
    # Flipping the sign of the turn or of sin changes no verdict or witness:
    # 2B is an integer in every residue with an integral u, and the residues
    # r and cycle - r have the same u condition, so no test can see such a flip.
    best: int | None = None
    for r in range(1, cycle + 1):
        # a0 T = sign(a0) t_step m turns by the same j quarter turns for every m = r (mod cycle)
        sin, turn = QUARTER_TURNS[sign * quarters * r % 4]
        rx, ry = turn(q, -p)
        if not ((rx - q).is_integer() and (ry + p).is_integer()):
            continue
        # B = (p^2 + q^2) k sin = bn/bd; an integral u at an odd quarter turn puts
        # p and q in (1/2)Z, and sin = 0 needs no p^2 + q^2, which may be irrational
        bn, bd = 0, 1
        if sin:
            pq = (p * p + q * q).rational_value()
            bn, bd = pq.numerator * L.k * sin, pq.denominator
        m = _solve_rational(an, ad, bn, bd, r, cycle)
        if m is not None and (best is None or m < best):
            best = m
    # the residue r = cycle always admits a solution
    T = PI_HALF * (quarters * best * sign) / a0
    return PeriodicityVerdict(VerdictKind.PERIODIC, minimal_T=T, witness_m=best)


def classify_geodesic(L: LatticeSpec, X: TangentVector) -> tuple[CausalType, PeriodicityVerdict]:
    """Causal type plus an exact periodicity verdict for the direction X."""
    norm_sq = X.norm_sq()
    causal = CAUSAL_BY_SIGN[norm_sq.sign()]
    if X.is_zero():
        return causal, PeriodicityVerdict(VerdictKind.STATIONARY_POINT)
    if X.a0.is_zero():
        return causal, _classify_line(L, X)
    return causal, _classify_rotating(L, X, norm_sq)


class PeriodUnverified(ArithmeticError):
    """A periodic verdict whose minimality proof needs a witness factored
    beyond the trial-division limit."""


# trial divisors run up to this bound, so a cofactor left below its square is prime
_TRIAL_LIMIT = 10**6
# odd trial divisors per block: the cofactor is reduced once by the block's
# product, and only a block sharing a factor with it is divided divisor by divisor
_BLOCK = 64


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division up to _TRIAL_LIMIT."""
    primes = [2] if n % 2 == 0 else []
    rest = n >> (n & -n).bit_length() - 1  # the odd part of n
    root = math.isqrt(rest)
    start = 3
    while start <= root:
        divisors = range(start, min(start + 2 * _BLOCK, root + 1), 2)
        product = math.prod(divisors)
        residue = rest % product
        # a coprime block holds no factor; the block crossing the limit is scanned
        # so that the search stops there rather than at the smallest prime factor
        if divisors[-1] <= _TRIAL_LIMIT and math.gcd(residue, product) == 1:
            start += 2 * _BLOCK
            continue
        for d in divisors:
            if d > root:
                break
            if d > _TRIAL_LIMIT:
                raise PeriodUnverified(
                    f"cannot prove the period minimal: the {n.bit_length()}-bit witness leaves a "
                    f"cofactor with no prime factor up to _TRIAL_LIMIT = {_TRIAL_LIMIT}"
                )
            if residue % d == 0:
                primes.append(d)
                while rest % d == 0:
                    rest //= d
                root = math.isqrt(rest)
                residue = rest % product
        start += 2 * _BLOCK
    if rest > 1:
        primes.append(rest)
    return primes


def minimal_period(L: LatticeSpec, X: TangentVector, verify: bool = True) -> Scalar | None:
    """The minimal period, or None when the geodesic never closes.

    With verify=True a Periodic verdict is proved exactly.  exp(T X) must
    lie in the lattice.  Since s -> exp(sX) is a homomorphism, the periods
    form a group T0 Z and T = c T0 for an integer c.  Every period is an
    integer multiple of each of the _period_units (t_step/|a0| when
    a0 != 0, step/|a_i| per nonzero component of a line), so c divides
    n = gcd of the T/unit, and T is minimal iff exp((T/p) X) is not in the
    lattice for each prime p | n.  That costs omega(n) + 1 calls of
    geodesics.exp_scaled, which evaluates exp(sX) at s = T and T/p without
    forming sX; omega counts the distinct prime factors (n is the witness
    m when a0 != 0).  The calls share X.turn_constants, which the
    first of them computes.
    A wrong verdict raises AssertionError; a witness with a cofactor of
    _TRIAL_LIMIT**2 or more and no prime factor up to _TRIAL_LIMIT raises
    PeriodUnverified.
    """
    causal, verdict = classify_geodesic(L, X)
    if verdict.kind is not VerdictKind.PERIODIC:
        return None
    T = verdict.minimal_T
    if not verify:
        return T
    if not lattice_contains(L, exp_scaled(X, T)):
        raise AssertionError(f"verdict T = {T} fails exact lattice membership")
    n = 0
    for unit in _period_units(L, X):
        ratio = T / unit
        if not (ratio.is_integer() and ratio.sign() > 0):
            raise AssertionError(f"verdict T = {T} is not a positive multiple of the unit {unit}")
        n = math.gcd(n, ratio.rational_value().numerator)
    for p in _prime_factors(n):
        if lattice_contains(L, exp_scaled(X, T / p)):
            raise AssertionError(f"smaller admissible period {T / p} exists")
    return T
