"""Group structures on the shared point set R^4.

The same points (t, v, z) with v = (x, y) carry three group laws used
here: the solvable oscillator group G (a rotation acts on v as t
advances), the nilpotent group N = R x H3(R), and the Heisenberg group
H3(R) sitting inside both at t = 0.  The group is selected by the
operation, not by the element type.

``rotate`` is the one exact rotation.  It exists only at quarter-turn
angles t in (pi/2)Z, where R(t) is a signed permutation of (x, y), read
from the one table QUARTER_TURNS; every lattice, normalizer, isometry
and periodicity decision needs only these.  The classifier and the
evaluators in ``geodesics``, which already hold the quarter-turn count,
read the table directly, and every other exact rotation goes through
``rotate``.  The float layer in
``oscigeo.floats`` covers arbitrary angles for tracing and numeric
verification.

The coset normal form has one fundamental domain, shared with the float
form in ``oscigeo.floats``: t in [0, t_step), v in R(t mod pi/2)[0, 1)^2
and z in [0, 1/2k).  The exact form answers at quarter-turn t, where the
box for v is [0, 1)^2, and raises ExactRotationUnavailable at any other t.

Quotient conventions: all quotient-level operations on G use right
cosets g Lam in G/Lam; the nilmanifold side uses left cosets Lam n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .scalar import (
    MAX_DIGITS,
    ONE,
    PI,
    PI_HALF,
    Scalar,
    ScalarLike,
    in_quarter_lattice,
    quarter_turns,
)


class ExactRotationUnavailable(ValueError):
    """An exact rotation was requested at an angle outside (pi/2)Z."""


# R(j*pi/2) for j = 0, 1, 2, 3: sin(j*pi/2) and the signed permutation R applies to (x, y)
QUARTER_TURNS = (
    (0, lambda x, y: (x, y)),
    (1, lambda x, y: (-y, x)),
    (0, lambda x, y: (-x, -y)),
    (-1, lambda x, y: (y, -x)),
)


def rotate(t: Scalar, x: Scalar, y: Scalar) -> tuple[Scalar, Scalar]:
    """R(t)(x, y), exact: at t = j*pi/2 the signed permutation QUARTER_TURNS[j % 4].

    The zero vector comes back unchanged at any t; any other vector at an
    angle outside (pi/2)Z raises ExactRotationUnavailable.
    """
    j = quarter_turns(t)
    if j is None:
        if x.is_zero() and y.is_zero():
            return x, y
        raise ExactRotationUnavailable(f"angle {t} is not an integer multiple of pi/2")
    return QUARTER_TURNS[j % 4][1](x, y)


def cross(v: tuple[Scalar, Scalar], w: tuple[Scalar, Scalar]) -> Scalar:
    # v^T J w with J = [[0, 1], [-1, 0]]
    return v[0] * w[1] - v[1] * w[0]


@dataclass(frozen=True)
class GroupElement:
    """A point (t, v, z) of R^4, element of G, N and (at t = 0) H3."""

    t: Scalar
    x: Scalar
    y: Scalar
    z: Scalar

    @staticmethod
    def of(t: ScalarLike, v: tuple[ScalarLike, ScalarLike], z: ScalarLike) -> "GroupElement":
        return GroupElement(Scalar(t), Scalar(v[0]), Scalar(v[1]), Scalar(z))

    @property
    def v(self) -> tuple[Scalar, Scalar]:
        return (self.x, self.y)

    def to_float(self) -> tuple[float, float, float, float]:
        return (float(self.t), float(self.x), float(self.y), float(self.z))

    def __str__(self) -> str:
        return f"({self.t}; {self.x}, {self.y}; {self.z})"


IDENTITY = GroupElement.of(0, (0, 0), 0)


def parse_group_element(text: str) -> GroupElement:
    """Parse the "(t; x, y; z)" form with Scalar component syntax."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"group element must look like '(t; x, y; z)', got {text!r}")
    parts = body[1:-1].split(";")
    if len(parts) != 3:
        raise ValueError(f"group element needs two ';' separators, got {text!r}")
    v = parts[1].split(",")
    if len(v) != 2:
        raise ValueError(f"group element needs 'x, y' in the middle, got {text!r}")
    return GroupElement.of(parts[0], (v[0], v[1]), parts[2])


# ---------------------------------------------------------------------------
# group laws
# ---------------------------------------------------------------------------

def g_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product in the oscillator group: (t+t', v + R(t)v', z + z' + cross/2)."""
    w = rotate(a.t, b.x, b.y)
    return GroupElement(
        a.t + b.t,
        a.x + w[0],
        a.y + w[1],
        a.z + b.z + cross(a.v, w) / 2,
    )


def g_inv(a: GroupElement) -> GroupElement:
    """Inverse in G: (-t, -R(-t)v, -z)."""
    w = rotate(-a.t, a.x, a.y)
    return GroupElement(-a.t, -w[0], -w[1], -a.z)


def n_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product in N = R x H3: no rotation, always exact."""
    return GroupElement(
        a.t + b.t,
        a.x + b.x,
        a.y + b.y,
        a.z + b.z + cross(a.v, b.v) / 2,
    )


def n_inv(a: GroupElement) -> GroupElement:
    return GroupElement(-a.t, -a.x, -a.y, -a.z)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

class Twist(enum.Enum):
    """t-step of the lattice family: full 2*pi, half pi, quarter pi/2."""

    FULL = "full"
    HALF = "half"
    QUARTER = "quarter"


_TWIST_NAMES = {twist.value: twist for twist in Twist}
_TWIST_QUARTERS = {Twist.FULL: 4, Twist.HALF: 2, Twist.QUARTER: 1}


@dataclass(frozen=True)
class LatticeSpec:
    """One lattice of the three twisted families over Z x Z x (1/2k)Z."""

    k: int
    twist: Twist

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("lattice parameter k must be >= 1")

    @property
    def t_step(self) -> Scalar:
        return PI_HALF * self.t_step_quarters

    @property
    def t_step_quarters(self) -> int:
        return _TWIST_QUARTERS[self.twist]

    @property
    def z_step(self) -> Scalar:
        return ONE / (2 * self.k)

    def generators(self) -> list[GroupElement]:
        return [
            GroupElement(self.t_step, Scalar(0), Scalar(0), Scalar(0)),
            GroupElement.of(0, (1, 0), 0),
            GroupElement.of(0, (0, 1), 0),
            GroupElement.of(0, (0, 0), self.z_step),
        ]

    @staticmethod
    def parse(text: str) -> "LatticeSpec":
        k = None
        twist = None
        for chunk in text.split(","):
            key, _, value = chunk.partition("=")
            key = key.strip().lower()
            value = value.strip().lower()
            if key == "k" and k is None:
                # the ASCII digits 0-9 only, as in every numeral
                if not (value.isascii() and value.isdigit() and len(value) <= MAX_DIGITS):
                    raise ValueError(
                        f"lattice field 'k' must be 1 to MAX_DIGITS = {MAX_DIGITS} digits 0-9, got {value!r}"
                    )
                k = int(value)
            elif key == "twist" and twist is None:
                twist = _TWIST_NAMES.get(value)
                if twist is None:
                    raise ValueError(f"unknown twist {value!r}")
            elif key in ("k", "twist"):
                raise ValueError(f"lattice field {key!r} is given twice in {text!r}")
            else:
                raise ValueError(f"unknown lattice field {key!r}")
        if k is None or twist is None:
            raise ValueError(f"lattice spec needs k=<int>,twist=<full|half|quarter>, got {text!r}")
        return LatticeSpec(k, twist)

    def __str__(self) -> str:
        return f"k={self.k},twist={self.twist.value}"


def lattice_contains(L: LatticeSpec, g: GroupElement) -> bool:
    """Exact membership of g in the lattice of L, in integers on the canonical pairs."""
    return (
        in_quarter_lattice(g.t, L.t_step_quarters)
        and g.x.is_integer()
        and g.y.is_integer()
        and (g.z * (2 * L.k)).is_integer()
    )


# ---------------------------------------------------------------------------
# coset normal forms and equality
# ---------------------------------------------------------------------------

def _reduce(s: Scalar, step: Scalar) -> Scalar:
    """s reduced into [0, step) by an integer multiple of step."""
    return s - step * (s / step).floor()


def coset_normal_form(L: LatticeSpec, g: GroupElement) -> GroupElement:
    """Representative of the right coset g*Lam in G/Lam, equal to ``floats.coset_normal_form_f``.

    t is reduced into [0, t_step), v into [0, 1)^2 and z into [0, 1/2k),
    each by a right multiplication with a lattice element.  A t outside
    (pi/2)Z raises ExactRotationUnavailable.
    """
    j = quarter_turns(g.t)
    if j is None:
        raise ExactRotationUnavailable(f"angle {g.t} is not an integer multiple of pi/2")
    # t-reduction by (-m*t_step, 0, 0): only t changes
    t1 = PI_HALF * (j % L.t_step_quarters)
    x, y, z = g.x, g.y, g.z

    # v-reduction by (0, v_lam, 0) with R(t1) v_lam = -floor(v), an
    # integer vector since t1 is a quarter turn
    fx = x.floor()
    fy = y.floor()
    if fx or fy:
        shift = (Scalar(-fx), Scalar(-fy))
        z = z + cross((x, y), shift) / 2
        x = x - fx
        y = y - fy

    # z-reduction by (0, 0, z_lam)
    return GroupElement(t1, x, y, _reduce(z, L.z_step))


def coset_equal(L: LatticeSpec, g1: GroupElement, g2: GroupElement) -> bool:
    """True iff g1*Lam = g2*Lam, via the side-consistent product g2^-1 g1."""
    return lattice_contains(L, g_mul(g_inv(g2), g1))


def n_coset_normal_form(L: LatticeSpec, g: GroupElement) -> GroupElement:
    """Canonical representative of the left coset Lam*g in Lam\\N (exact, total)."""
    t = _reduce(g.t, PI * 2)
    x, y, z = g.x, g.y, g.z
    fx, fy = x.floor(), y.floor()
    if fx or fy:
        # left multiplication by (0, (-fx, -fy), 0): z gains cross(v_lam, v)/2
        z = z + cross((Scalar(-fx), Scalar(-fy)), (x, y)) / 2
        x = x - fx
        y = y - fy
    return GroupElement(t, x, y, _reduce(z, L.z_step))


def n_coset_equal(L: LatticeSpec, g1: GroupElement, g2: GroupElement) -> bool:
    """True iff Lam*g1 = Lam*g2 in Lam\\N, via g1 g2^-1 in Lam."""
    # the N-side lattice 2*pi*Z x Z x Z x (1/2k)Z is the full-twist point set
    return lattice_contains(LatticeSpec(L.k, Twist.FULL), n_mul(g1, n_inv(g2)))


# ---------------------------------------------------------------------------
# normalizers
# ---------------------------------------------------------------------------

def normalizer_contains(L: LatticeSpec, h: GroupElement) -> bool:
    """Closed-form membership of h in the normalizer of the lattice in G.

    All three families require a quarter-turn t and leave z free; they
    differ in the admissible v:
      full twist:    v in (1/2k)Z x (1/2k)Z
      half twist:    v in (1/2)Z x (1/2)Z
      quarter twist: v in Z^2 for odd k, and additionally the
                     half-odd-integer coset for even k, i.e.
                     v in (1/2)W with W = {(m, n) integer, m = n mod 2}.

    The quarter rule matches conjugation of lattice generators: a
    quarter-turn conjugation of the t-generator by a half-odd-integer v
    shifts z by a quarter-integer, which lies in (1/2k)Z iff k is even.
    """
    if quarter_turns(h.t) is None:
        return False
    # v in (1/n)Z^2 iff n v is integral
    if L.twist is Twist.FULL:
        n = 2 * L.k
    elif L.twist is Twist.HALF or L.k % 2 == 0:
        n = 2
    else:
        n = 1
    if not ((h.x * n).is_integer() and (h.y * n).is_integer()):
        return False
    # (1/2)W for the quarter twist: x and y differ by an integer
    return L.twist is not Twist.QUARTER or (h.x - h.y).is_integer()
