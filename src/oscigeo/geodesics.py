"""Geodesics of the oscillator group: exact closed forms.

Because the metric is bi-invariant, geodesics through the identity are
the one-parameter subgroups, with explicit components branching on a0:

  a0 != 0:  t = a0 s
            x = (a1/a0) sin a0 s + (a2/a0) cos a0 s - a2/a0
            y = -(a1/a0) cos a0 s + (a2/a0) sin a0 s + a1/a0
            z = 1/2 [ (a1^2/a0 + a2^2/a0 + 2 a3) s
                      - ((a1^2 + a2^2)/a0^2) sin a0 s ]
  a0 == 0:  (0, a1 s, a2 s, a3 s), a straight line.

A geodesic through h is the left translate h exp(sX), which callers
write as g_mul(h, exp_scaled(X, s)).  The exact layer evaluates only
when a0 s is an integer multiple j of pi/2, where sin and cos are
exact, and it evaluates at the integer j: with p = a1/a0,
q = a2/a0, rho = (p^2 + q^2)/2 and zq = |X|^2 pi/(4 a0^2) the z above
is j zq - rho sin(j pi/2).  Each evaluation reads only what its j needs:
a whole turn, j = 0 mod 4, is (t, 0, 0, j zq) and reads no slope, a half
turn adds the slopes, and only an odd quarter turn reads rho.  These
constants (TangentVector.slopes, zq and rho) are computed once per
direction, zq from the unreduced numerator of |X|^2, and kept by its
scaled copies.
``exp_turns(L, X, m)`` takes j from the m-th return of t to the lattice
of L, with no Scalar parameter; ``exp_scaled(X, s)`` forms a0 s only to
read j off it.

The float view lives in ``oscigeo.floats``: the same closed form at any
s, the packed vector form of exp for the middle coordinates,
(1/a0)(R(a0)J - J)(a1, a2)^T, which agrees with the componentwise
formulas identically, and an independent RK4 oracle.
"""

from __future__ import annotations

from .groups import QUARTER_TURNS, ExactRotationUnavailable, GroupElement, LatticeSpec
from .metric import TangentVector
from .scalar import ONE, PI_HALF, ZERO, Scalar, quarter_turns


def _turned(X: TangentVector, j: int, t: Scalar) -> GroupElement:
    """exp(sX) at a0 s = t = j pi/2, for a0 != 0, from the direction's constants.

    The quarter turn QUARTER_TURNS[j % 4] gives sin and R(t), and
    (x, y) = R(t)(q, -p) - (q, -p), z = j zq - rho sin.  A whole turn has
    R = I and sin = 0, so (x, y) = 0 and z = j zq with no slope read; a
    half turn has sin = 0 and reads no rho.
    """
    quarter = j % 4
    z = X.zq * j
    if not quarter:
        return GroupElement(t, ZERO, ZERO, z)
    sin, turn = QUARTER_TURNS[quarter]
    p, q = X.slopes
    rx, ry = turn(q, -p)
    if sin:
        z = z - X.rho if sin > 0 else z + X.rho
    return GroupElement(t, rx - q, ry + p, z)


def exp_turns(L: LatticeSpec, X: TangentVector, m: int) -> GroupElement:
    """exp(m u X) with u = t_step/|a0|, for a0 != 0 and any integer m.

    The geodesic after m returns of its t-coordinate to the lattice of L:
    a0 m u = sign(a0) quarters m pi/2 is j = sign(a0) quarters m quarter
    turns, so t = j pi/2 and everything else is read from X's constants
    with no Scalar parameter at all.  z = j zq at whole and half turns,
    and j zq -+ rho at odd quarter turns.
    """
    j = X.quarter_turn[0] * L.t_step_quarters * m
    return _turned(X, j, PI_HALF * j)


def exp_scaled(X: TangentVector, s: Scalar) -> GroupElement:
    """exp(sX) without forming sX, the geodesic from the identity at s.

    For a0 != 0 and (a1, a2) != 0 it forms a0 s only to read the
    quarter-turn count j with a0 s = j pi/2, and then evaluates from the
    direction's cached ``zq``, ``slopes`` and ``rho`` as ``exp_turns``
    does.  Any other angle raises ExactRotationUnavailable.
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
    return _turned(X, j, t)


def exp_map(X: TangentVector) -> GroupElement:
    """Exact exponential map, the geodesic from the identity at s = 1."""
    return exp_scaled(X, ONE)
