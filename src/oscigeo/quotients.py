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
2 or 4 residues for the full, half and quarter families): residue r
turns by sign(a0) quarters r quarter turns.  With p = a1/a0 and
q = a2/a0 (TangentVector.slopes), per residue the middle-coordinate
condition is the integrality of the constant
u = R(a0 T)(q, -p) - (q, -p), and the z-condition has the form
A m - B in Z with B = (p^2 + q^2) k sin(a0 T) and, since h = 1/2k,

  A = |X|^2 t_step / (2 a0 |a0| h) = |X|^2 pi k quarters sign(a0) / (2 a0^2).

The geodesic closes iff A is rational, that is iff |X|^2 pi / a0^2 is
rational; a null direction has |X|^2 = 0 and always closes.  In a
residue where u is integral, B is rational: R(a0 T) = +-I gives sin = 0
and B = 0, and at a quarter turn an integral u puts p and q in (1/2)Z.
So an irrational A makes A m - B irrational for every m, while a
rational A closes in the residue m = 0 (mod cycle), where u = 0 and
B = 0.  With A and B rational, m = r + cycle j turns the z-condition
into one linear congruence in j >= 0, solved with a modular inverse,
and the minimal period is the minimum over residues.  Scanning T values
can never prove non-closedness; this rationality test can.

No verdict or witness depends on sign(a0), so the classifier reads |a0|
alone: it takes sin and R from ``groups.QUARTER_TURNS`` at quarters r
mod 4 and drops the signs from A and B.  In a residue with an integral
u, 2B is an integer, so A m - B, -A m - B and A m + B are integers
together; flipping sign(a0) maps the turn count j to -j and R to R^-1,
and R^-1 w - w is integral iff R w - w is.  The proof keeps the sign.

The residues are decided in integers.  The residue r = cycle is a whole
turn, where u = 0 and B = 0, so it needs no slope, and a full twist,
with that residue alone, never reads the slopes.  Off whole turns an
integral u needs p and q in (1/2)Z, so irrational slopes skip those
residues; rational ones are written pn/d and qn/d over one denominator
d, the product of theirs.  Then u is integral iff d divides both
components of turn(qn, -pn) - (qn, -pn), and B = (pn^2 + qn^2) k / d^2
where sin != 0; ``_solve_rational`` needs no lowest terms, so nothing
is reduced.

``minimal_period`` proves a verdict from exact group elements, not from
A and B.  With u = t_step/|a0|, c = exp(cycle u X) is a full turn
(+-cycle t_step, 0, 0, z_c), central in G, so on the class m = r + cycle j
exp(m u X) = exp(r u X) c^j keeps v = v_r and has z = z_r + j z_c: it
lies in the lattice iff v_r is integral and 2k (z_r + j z_c) is an
integer, one linear congruence in j.  An irrational z_c leaves a rational
intercept z_r - (r/cycle) z_c, and z is then irrational for every j.  A
line's T is minimal iff its multiples of the _period_units have gcd 1.
Every exp(m u X) is ``geodesics.exp_turns(L, X, m)``, keyed by the integer
m: no angle a0 s is formed, and z is j zq, plus or minus rho at odd
quarter turns.  So c reads zq alone, from the |X|^2 the classifier kept
on X, and no slope; the proof never reads the classifier's A.  The
classifier's T = u m and the proof's read the same unit
u/quarters = (pi/2)/|a0| (TangentVector.quarter_turn).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .geodesics import exp_scaled, exp_turns
from .groups import QUARTER_TURNS, LatticeSpec, lattice_contains
from .metric import CAUSAL_BY_SIGN, CausalType, TangentVector
from .scalar import ONE, PI, Scalar


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
    """Lengths every period of the line exp(sX), a0 = 0, is an integer multiple of.

    step/|a_i| for each nonzero component.
    """
    steps = (ONE, ONE, L.z_step)
    return [step / abs(a) for a, step in zip((X.a1, X.a2, X.a3), steps) if not a.is_zero()]


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
        generator = generator * ratio.as_integer_ratio()[0]
    assert generator is not None  # a nonzero X has at least one constraint
    return PeriodicityVerdict(VerdictKind.PERIODIC, minimal_T=generator)


def _classify_rotating(L: LatticeSpec, X: TangentVector, norm_sq: Scalar) -> PeriodicityVerdict:
    """a0 != 0: closed iff A is rational; then the least m over the residues."""
    a0 = X.a0
    A = norm_sq * PI / (a0 * a0)
    if not A.is_rational():
        return PeriodicityVerdict(VerdictKind.NON_CLOSED)
    quarters = L.t_step_quarters
    # A = |X|^2 pi k quarters / (2 a0^2) = an/ad, read with |a0| as the module docstring sets out
    an, ad = A.as_integer_ratio()
    an, ad = an * L.k * quarters, 2 * ad
    cycle = 4 // quarters
    # the residue r = cycle is a whole turn, u = 0 and B = 0, and always admits a solution
    best = _solve_rational(an, ad, 0, 1, cycle, cycle)
    if cycle > 1:
        p, q = X.slopes
        # off whole turns an integral u puts p and q in (1/2)Z: irrational slopes close no other residue
        if p.is_rational() and q.is_rational():
            # p = pn/d and q = qn/d over one denominator, so u and B are read in integers
            (pn, pd), (qn, qd) = p.as_integer_ratio(), q.as_integer_ratio()
            pn, qn, d = pn * qd, qn * pd, pd * qd
            for r in range(1, cycle):
                # |a0| T = t_step m turns by quarters r quarter turns for every m = r (mod cycle)
                sin, turn = QUARTER_TURNS[quarters * r]
                rx, ry = turn(qn, -pn)
                if (rx - qn) % d or (ry + pn) % d:
                    continue
                # B = (p^2 + q^2) k where sin != 0; sin = 0 at a half turn gives B = 0
                bn, bd = ((pn * pn + qn * qn) * L.k, d * d) if sin else (0, 1)
                m = _solve_rational(an, ad, bn, bd, r, cycle)
                if m is not None and m < best:
                    best = m
    # T = u m with u = quarters unit
    return PeriodicityVerdict(VerdictKind.PERIODIC, X.quarter_turn[1] * (quarters * best), best)


def classify_geodesic(L: LatticeSpec, X: TangentVector) -> tuple[CausalType, PeriodicityVerdict]:
    """Causal type plus an exact periodicity verdict for the direction X."""
    norm_sq = X.norm_sq()
    causal = CAUSAL_BY_SIGN[norm_sq.sign()]
    if X.is_zero():
        return causal, PeriodicityVerdict(VerdictKind.STATIONARY_POINT)
    if X.a0.is_zero():
        return causal, _classify_line(L, X)
    return causal, _classify_rotating(L, X, norm_sq)


def _prove_line(L: LatticeSpec, X: TangentVector, verdict: PeriodicityVerdict) -> None:
    """a0 = 0: T is n_i units with gcd(n_i) = 1, or two units have an irrational ratio."""
    units = _period_units(L, X)
    if verdict.kind is VerdictKind.NON_CLOSED:
        if all((unit / units[0]).is_rational() for unit in units[1:]):
            raise AssertionError("non-closed line verdict, but every ratio of its units is rational")
        return
    T = verdict.minimal_T
    if verdict.kind is not VerdictKind.PERIODIC or not lattice_contains(L, exp_scaled(X, T)):
        raise AssertionError(f"verdict {verdict} fails exact lattice membership")
    n = 0
    for unit in units:
        ratio = T / unit
        if not (ratio.is_integer() and ratio.sign() > 0):
            raise AssertionError(f"verdict T = {T} is not a positive multiple of the unit {unit}")
        n = math.gcd(n, ratio.as_integer_ratio()[0])
    if n != 1:
        raise AssertionError(f"smaller admissible period {T / n} exists")


def _prove_rotating(L: LatticeSpec, X: TangentVector, verdict: PeriodicityVerdict) -> None:
    """a0 != 0: the least closing m over the residue classes, from exp(r u X) for r = 1..cycle."""
    quarters = L.t_step_quarters
    cycle = 4 // quarters
    c = exp_turns(L, X, cycle)
    if not (c.x.is_zero() and c.y.is_zero()):
        raise AssertionError(f"exp({cycle} u X) = {c} is not a central full turn")
    zc, two_k = c.z, 2 * L.k
    best: int | None = None
    for r in range(1, cycle + 1):
        e = c if r == cycle else exp_turns(L, X, r)
        if not (e.x.is_integer() and e.y.is_integer()):
            continue
        if not zc.is_rational():
            if not (e.z * cycle - zc * r).is_rational():
                raise AssertionError(f"irrational intercept in the residue class {r} mod {cycle}")
            continue
        if not e.z.is_rational():
            continue
        # 2k (z_r + j z_c) = A m - B for m = r + cycle j, with A = 2k z_c / cycle = an/ad
        # and B = A r - 2k z_r = bn/bd in integers; _solve_rational needs no lowest terms
        (zcn, zcd), (zrn, zrd) = zc.as_integer_ratio(), e.z.as_integer_ratio()
        an, ad = two_k * zcn, cycle * zcd
        bn, bd = an * r * zrd - two_k * zrn * ad, ad * zrd
        m = _solve_rational(an, ad, bn, bd, r, cycle)
        if m is not None and (best is None or m < best):
            best = m
    if best is None:
        proved = PeriodicityVerdict(VerdictKind.NON_CLOSED)
    else:
        T = X.quarter_turn[1] * (quarters * best)
        proved = PeriodicityVerdict(VerdictKind.PERIODIC, minimal_T=T, witness_m=best)
    if verdict != proved:
        raise AssertionError(f"verdict {verdict}, but the residue classes prove {proved}")


def minimal_period(L: LatticeSpec, X: TangentVector, verify: bool = True) -> Scalar | None:
    """The minimal period, or None when the geodesic never closes.

    With verify=True every verdict is proved exactly, a non-closed one
    included, as the module docstring sets out: for a0 != 0 from the
    cycle <= 4 evaluations exp_turns(L, X, r), r = 1..cycle, at integer
    turn counts and from the direction's cached constants, whatever the
    size of the witness; for a line from exp(T X) and the _period_units.
    A wrong verdict raises AssertionError.
    """
    causal, verdict = classify_geodesic(L, X)
    if verify and X.is_zero() != (verdict.kind is VerdictKind.STATIONARY_POINT):
        raise AssertionError(f"verdict {verdict} for the direction {X}")
    if verify and not X.is_zero():
        (_prove_line if X.a0.is_zero() else _prove_rotating)(L, X, verdict)
    return verdict.minimal_T if verdict.kind is VerdictKind.PERIODIC else None
