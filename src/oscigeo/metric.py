"""The bi-invariant Lorentzian metric, curvature and causal types.

In the left-invariant frame X0..X3 the metric has the constant Gram
matrix with <X0,X3> = <X1,X1> = <X2,X2> = 1 and all other products zero,
so the squared norm of a = (a0, a1, a2, a3) is a1^2 + a2^2 + 2 a0 a3 and
causal classification is an exact sign test in Q(pi).

The Lie algebra has structure relations [X0,X1] = X2, [X0,X2] = -X1,
[X1,X2] = X3 with X3 central; because the metric is bi-invariant the
curvature operator is algebraic, R(X,Y)Z = -1/4 [[X,Y],Z], and the Ricci
tensor is -1/4 of the Killing form.  Everything here is exact; the float
coordinate metric and frames live in ``oscigeo.floats``.

A TangentVector keeps each constant of its geodesic once it is first
read, for a0 != 0: ``slopes`` (p, q) = (a1/a0, a2/a0), ``zq`` =
|X|^2 pi/(4 a0^2), ``rho`` = (p^2 + q^2)/2 and ``quarter_turn``, the
sign of a0 and the parameter length (pi/2)/|a0| of one quarter turn.
``scale(f)`` hands the slopes, zq and rho on to f X for every f != 0, as
f cancels from them.  ``norm_sq()``, the Scalar |X|^2, is computed on
each call and kept nowhere.  The classifier and zq read |X|^2 as
``norm_numerator()``: its numerator N over the components' canonical
pairs a_i = n_i/d_i, unreduced and with no polynomial gcd.  The first
call keeps N on the vector for zq.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .scalar import PI_HALF, ZERO, Poly, Scalar, ScalarLike, from_pair, padd, pair, pmul


class _cached:
    """A constant of a vector, computed on its first read and kept in the vector's dict.

    functools.cached_property without its lock: on Python 3.11 the lock
    costs about 0.6 us of each first read, which a direction pays once
    per constant; later reads find the dict entry and never reach here.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, vector, owner=None):
        if vector is None:
            return self
        value = vector.__dict__[self.name] = self.func(vector)
        return value


# the constants f X shares with X for every f != 0
_SCALE_FREE = ("slopes", "zq", "rho")
_MINUS_PI_HALF = -PI_HALF


@dataclass(frozen=True)
class TangentVector:
    """Coefficients (a0, a1, a2, a3) in the left-invariant frame."""

    a0: Scalar
    a1: Scalar
    a2: Scalar
    a3: Scalar

    @staticmethod
    def of(a0: ScalarLike, a1: ScalarLike, a2: ScalarLike, a3: ScalarLike) -> "TangentVector":
        return TangentVector(*(Scalar(a) for a in (a0, a1, a2, a3)))

    @property
    def components(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a0, self.a1, self.a2, self.a3)

    def is_zero(self) -> bool:
        return self.a0.is_zero() and self.a1.is_zero() and self.a2.is_zero() and self.a3.is_zero()

    def norm_sq(self) -> Scalar:
        """|X|^2 = a1^2 + a2^2 + 2 a0 a3, in Scalar arithmetic."""
        return self.a1 * self.a1 + self.a2 * self.a2 + 2 * self.a0 * self.a3

    def norm_numerator(self) -> tuple[Poly, Poly, Poly]:
        """(N, d0 d3, (d1 d2)^2) with |X|^2 = N / (d0 d3 (d1 d2)^2) at pi, from the pairs a_i = n_i/d_i.

        N = d0 d3 ((n1 d2)^2 + (n2 d1)^2) + 2 n0 n3 (d1 d2)^2, unreduced: only
        products and sums of the canonical pairs, no polynomial gcd.  For
        a0 = 0 the term 2 a0 a3 vanishes, and so do d0 and d3: N = (n1 d2)^2
        + (n2 d1)^2 over (d1 d2)^2.  The first call keeps the triple in the
        vector's dict, a plain entry that no descriptor reads, for zq.
        """
        known = self.__dict__
        if "_norm_numerator" in known:
            return known["_norm_numerator"]
        (n0, d0), (n1, d1), (n2, d2) = pair(self.a0), pair(self.a1), pair(self.a2)
        e1, e2, f = pmul(n1, d2), pmul(n2, d1), pmul(d1, d2)
        ff, sq = pmul(f, f), padd(pmul(e1, e1), pmul(e2, e2))
        if n0:
            n3, d3 = pair(self.a3)
            dd = pmul(d0, d3)
            out = padd(pmul(dd, sq), pmul(pmul((2,), pmul(n0, n3)), ff)), dd, ff
        else:
            out = sq, (1,), ff
        known["_norm_numerator"] = out
        return out

    @_cached
    def slopes(self) -> tuple[Scalar, Scalar]:
        """(p, q) = (a1/a0, a2/a0), the (x, y) part of exp(sX); needs a0 != 0.

        Read by both evaluators off whole turns; the classifier reads the
        slopes as integer ratios instead, and never builds this pair.
        """
        a0 = self.a0
        return self.a1 / a0, self.a2 / a0

    @_cached
    def quarter_turn(self) -> tuple[int, Scalar]:
        """(sign(a0), (pi/2)/|a0|): exp(sX) turns by one quarter turn per (pi/2)/|a0| of s.

        So the t-coordinate returns to the lattice after u = quarters (pi/2)/|a0|,
        and a period u m is this unit times the integer quarters m.
        """
        sign = self.a0.sign()
        return sign, (PI_HALF if sign > 0 else _MINUS_PI_HALF) / self.a0

    @_cached
    def zq(self) -> Scalar:
        """|X|^2 pi/(4 a0^2) = pi N d0 / (4 d3 (d1 d2)^2 n0^2), one canonical Scalar; needs a0 != 0.

        N is ``norm_numerator()``'s, so the one reduction is this one.  At
        a0 s = j pi/2, z = j zq - rho sin(j pi/2): every evaluation reads
        zq, and whole and half turns read nothing else for z.
        """
        N, _, ff = self.norm_numerator()
        if not N:
            return ZERO
        n0, d0 = pair(self.a0)
        return from_pair((0,) + pmul(N, d0), pmul((4,), pmul(pmul(pair(self.a3)[1], ff), pmul(n0, n0))))

    @_cached
    def rho(self) -> Scalar:
        """(p^2 + q^2)/2, the sine term of z, read only at odd quarter turns; needs a0 != 0."""
        p, q = self.slopes
        return (p * p + q * q) / 2

    def scale(self, factor: ScalarLike) -> "TangentVector":
        """f X; for f != 0 it keeps the slopes, zq and rho X has computed.

        f cancels from them: f X has the same values, and a fresh
        computation gives the same canonical Scalars.  |X|^2 scales by f^2.
        """
        f = Scalar(factor)
        out = TangentVector(self.a0 * f, self.a1 * f, self.a2 * f, self.a3 * f)
        if not f.is_zero():
            known = self.__dict__
            out.__dict__.update({name: known[name] for name in _SCALE_FREE if name in known})
        return out

    def add(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(
            self.a0 + other.a0, self.a1 + other.a1, self.a2 + other.a2, self.a3 + other.a3
        )

    def to_float(self) -> tuple[float, float, float, float]:
        return tuple(float(a) for a in self.components)

    def __str__(self) -> str:
        return f"[{self.a0}, {self.a1}, {self.a2}, {self.a3}]"


X0 = TangentVector.of(1, 0, 0, 0)
X1 = TangentVector.of(0, 1, 0, 0)
X2 = TangentVector.of(0, 0, 1, 0)
X3 = TangentVector.of(0, 0, 0, 1)
FRAME = (X0, X1, X2, X3)


def frame_inner(u: TangentVector, w: TangentVector) -> Scalar:
    """<u, w> in the frame: u1 w1 + u2 w2 + u0 w3 + u3 w0."""
    return u.a1 * w.a1 + u.a2 * w.a2 + u.a0 * w.a3 + u.a3 * w.a0


# constant Gram matrix of the frame, the one form frame_inner computes
FRAME_GRAM = tuple(tuple(frame_inner(u, w) for w in FRAME) for u in FRAME)


class CausalType(enum.Enum):
    NULL = "null"
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"


CAUSAL_BY_SIGN = {0: CausalType.NULL, 1: CausalType.SPACELIKE, -1: CausalType.TIMELIKE}


def causal_type(X: TangentVector) -> CausalType:
    """Exact sign of the squared norm: zero null, positive spacelike."""
    return CAUSAL_BY_SIGN[X.norm_sq().sign()]


# ---------------------------------------------------------------------------
# brackets, curvature, Ricci
# ---------------------------------------------------------------------------

_MINUS_QUARTER = Scalar(-1) / 4  # the factor of the curvature operator and of Ricci


def bracket(X: TangentVector, Y: TangentVector) -> TangentVector:
    """Lie bracket by bilinear extension of the structure relations."""
    c01 = X.a0 * Y.a1 - X.a1 * Y.a0
    c02 = X.a0 * Y.a2 - X.a2 * Y.a0
    c12 = X.a1 * Y.a2 - X.a2 * Y.a1
    return TangentVector(Scalar(0), -c02, c01, c12)


def curvature_op(X: TangentVector, Y: TangentVector, Z: TangentVector) -> TangentVector:
    """R(X, Y)Z = -1/4 [[X, Y], Z]."""
    return bracket(bracket(X, Y), Z).scale(_MINUS_QUARTER)


def ad_matrix(X: TangentVector) -> tuple[tuple[Scalar, ...], ...]:
    """Matrix of ad(X) in the frame basis; column j is [X, Xj]."""
    cols = [bracket(X, B).components for B in FRAME]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def killing_form(X: TangentVector, Y: TangentVector) -> Scalar:
    """B(X, Y) = trace(ad X o ad Y)."""
    ax = ad_matrix(X)
    ay = ad_matrix(Y)
    total = Scalar(0)
    for i in range(4):
        for j in range(4):
            total = total + ax[i][j] * ay[j][i]
    return total


def ricci(X: TangentVector, Y: TangentVector) -> Scalar:
    """Ricci tensor via the Killing form: Ric = -1/4 B."""
    return killing_form(X, Y) * _MINUS_QUARTER


def ricci_from_curvature_trace(X: TangentVector, Y: TangentVector) -> Scalar:
    """Independent Ricci route: trace of Z -> R(Z, X)Y in the frame.

    The trace must be taken against the dual frame; with the Gram matrix
    above the dual of (X0, X1, X2, X3) is (X3, X1, X2, X0), so the trace
    is sum_i <R(Xi, X)Y, Xi*>.  Used to pin the sign of the curvature.
    """
    dual = (FRAME[3], FRAME[1], FRAME[2], FRAME[0])
    total = Scalar(0)
    for i in range(4):
        total = total + frame_inner(curvature_op(FRAME[i], X, Y), dual[i])
    return total
