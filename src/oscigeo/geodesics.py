"""Geodesics of the oscillator group: exact closed forms.

Because the metric is bi-invariant, geodesics through the identity are
the one-parameter subgroups, with explicit components branching on a0:

  a0 != 0:  t = a0 s
            x = (a1/a0) sin a0 s + (a2/a0) cos a0 s - a2/a0
            y = -(a1/a0) cos a0 s + (a2/a0) sin a0 s + a1/a0
            z = 1/2 [ (a1^2/a0 + a2^2/a0 + 2 a3) s
                      - ((a1^2 + a2^2)/a0^2) sin a0 s ]
  a0 == 0:  (0, a1 s, a2 s, a3 s), a straight line.

A geodesic through h is the left translate h exp(sX).  The exact layer
evaluates only when a0 s is an integer multiple of pi/2, where sin and
cos are exact.  The float view lives in ``oscigeo.floats``: the same
closed form at any s, the packed vector form of exp for the middle
coordinates, (1/a0)(R(a0)J - J)(a1, a2)^T, which agrees with the
componentwise formulas identically, and an independent RK4 oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import QUARTER_TURNS, ExactRotationUnavailable, GroupElement, g_mul
from .metric import TangentVector
from .scalar import ONE, ZERO, Scalar, ScalarLike, quarter_turns


@dataclass(frozen=True)
class GeodesicCurve:
    """gamma(s) = base * exp(s * direction)."""

    base: GroupElement
    direction: TangentVector


def exp_scaled(X: TangentVector, s: Scalar) -> GroupElement:
    """exp(sX) without forming sX, the geodesic from the identity at s.

    For a0 != 0 and (a1, a2) != 0 it reads the direction's cached
    ``turn_constants`` (p, q, w, rho), so evaluations of one direction
    divide by a0 once in all.  At a0 s = j pi/2 the quarter turn
    ``QUARTER_TURNS[j % 4]`` gives sin and R(a0 s), and
    (x, y) = R(a0 s)(q, -p) - (q, -p), z = w s - rho sin.  Any other
    angle raises ExactRotationUnavailable.
    """
    a0, a1, a2, a3 = X.components
    if a0.is_zero():
        return GroupElement(ZERO, a1 * s, a2 * s, a3 * s)
    if a1.is_zero() and a2.is_zero():
        # every trigonometric coefficient vanishes; exact at any s
        return GroupElement(a0 * s, ZERO, ZERO, a3 * s)
    t = a0 * s
    j = quarter_turns(t)
    if j is None:
        raise ExactRotationUnavailable(f"angle {t} is not an integer multiple of pi/2")
    p, q, w, rho = X.turn_constants
    sin, turn = QUARTER_TURNS[j % 4]
    rx, ry = turn(q, -p)
    z = w * s
    if sin:
        z = z - rho if sin > 0 else z + rho
    return GroupElement(t, rx - q, ry + p, z)


def geodesic_eval(c: GeodesicCurve, s: ScalarLike) -> GroupElement:
    """Exact evaluation of the geodesic at parameter s."""
    return g_mul(c.base, exp_scaled(c.direction, Scalar.coerce(s)))


def exp_map(X: TangentVector) -> GroupElement:
    """Exact exponential map, the geodesic from the identity at s = 1."""
    return exp_scaled(X, ONE)
