"""The isometry group of the oscillator group and its verification tools.

Every isometry factors as a left translation composed with an isometry
fixing the identity.  The isotropy group has four connected components:
the identity component consists of the inner automorphisms chi_g, and
representatives of the other three are the involutions

    f1(t, v, z) = (-t, S v, -z)          with S(x, y) = (-x, y),
    f2(t, v, z) = (-t, R(-t) v, -z)      = inv o chi_(pi; 0, 0; 0),
    f3 = f1 o f2:  (t, R(t) S v, z).

``discrete_isometry`` builds f2 as that composition and ``floats.f2_f``
keeps the formula; ``inner_aut`` keeps the expanded conjugation formula
and ``floats.chi_f`` is the product g x g^-1.

Differentials at the identity of isotropy isometries form a block
family: a00 = a33 = eps in {1, -1}, an orthogonal 2x2 block A~ acting on
(a1, a2), a column w, and a last row (-eps |w|^2/2, -eps w^T A~, eps).
The inner automorphisms are exactly the eps = +1, det A~ = +1 members,
where the matrix is Ad(t, v) with A~ = R(t) and w = J v.

A candidate differential is certified by the locally-symmetric-space
criterion: it must preserve the frame Gram matrix and commute with the
double bracket, A[[X, Y], Z] = [[AX, AY], AZ]; both checks are finite
and exact by multilinearity.  Maps themselves are certified numerically
by ``floats.is_isometry_numeric``, which pulls the coordinate metric back
through a finite-difference Jacobian of the float maps there.

The Heisenberg group acts isometrically, as the metric is bi-invariant,
by right translation (v', z') . p = p (0, v', z')^{-1}, which expands to

    (v', z') . (t, v, z) = (t, v - R(t) v', z - z' - v^T J R(t) v' / 2).

``heis_action`` is the product, exact where the group law is, and
``floats.heis_action_f`` the formula at any angle; the ``verify``
isometries suite checks them against each other, and the descent of the
action to the nilmanifold quotients Lam\\N on the full-twist lattices.
An isometry L_g o chi_h o f of G descends to the solvmanifold quotient
G/Lam iff f is the identity or f1 and h lies in the normalizer of the
lattice (``fiber_preserving``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import IDENTITY, GroupElement, LatticeSpec, cross, g_inv, g_mul, normalizer_contains, rotate
from .metric import FRAME, FRAME_GRAM, TangentVector, bracket, frame_inner
from .scalar import PI, ZERO, Scalar, in_quarter_lattice

Matrix4 = tuple[tuple[Scalar, ...], ...]


class NotOrthogonal(ValueError):
    """The 2x2 block of an isotropy element is not orthogonal."""


@dataclass(frozen=True)
class IsotropyElement:
    """Parameters (eps, A~, w) of an isotropy differential."""

    eps: int
    a_tilde: tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
    w: tuple[Scalar, Scalar]

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        (a, b), (c, d) = self.a_tilde
        checks = (
            a * a + c * c == Scalar(1),
            b * b + d * d == Scalar(1),
            (a * b + c * d).is_zero(),
        )
        if not all(checks):
            raise NotOrthogonal(f"2x2 block {self.a_tilde} is not orthogonal")


def isotropy_matrix(el: IsotropyElement) -> Matrix4:
    """Assemble the 4x4 differential of an isotropy isometry in the frame."""
    zero = Scalar(0)
    eps = Scalar(el.eps)
    (a, b), (c, d) = el.a_tilde
    w1, w2 = el.w
    norm_sq = w1 * w1 + w2 * w2
    # w^T A~ row vector
    wa1 = w1 * a + w2 * c
    wa2 = w1 * b + w2 * d
    return (
        (eps, zero, zero, zero),
        (w1, a, b, zero),
        (w2, c, d, zero),
        (-eps * norm_sq / 2, -eps * wa1, -eps * wa2, eps),
    )


# ---------------------------------------------------------------------------
# exact certification of differentials
# ---------------------------------------------------------------------------

def _column(A: Matrix4, j: int) -> TangentVector:
    return TangentVector(A[0][j], A[1][j], A[2][j], A[3][j])


def _apply(A: Matrix4, X: TangentVector) -> TangentVector:
    comps = X.components
    out = []
    for i in range(4):
        acc = Scalar(0)
        for j in range(4):
            acc = acc + A[i][j] * comps[j]
        out.append(acc)
    return TangentVector(*out)


def ambrose_hicks_check(A: Matrix4) -> bool:
    """Exact test that A is the differential of an isometry fixing e.

    Checks metric preservation <AX, AY> = <X, Y> on frame pairs and the
    double-bracket equivariance A[[X, Y], Z] = [[AX, AY], AZ] on frame
    triples; multilinearity makes the finite check complete.
    """
    cols = [_column(A, j) for j in range(4)]
    for i in range(4):
        for j in range(i, 4):
            if frame_inner(cols[i], cols[j]) != FRAME_GRAM[i][j]:
                return False
    for i in range(4):
        for j in range(4):
            inner = bracket(FRAME[i], FRAME[j])
            img = bracket(cols[i], cols[j])
            for k in range(4):
                lhs = _apply(A, bracket(inner, FRAME[k]))
                rhs = bracket(img, cols[k])
                if lhs != rhs:
                    return False
    return True


# ---------------------------------------------------------------------------
# inner automorphisms
# ---------------------------------------------------------------------------

def inner_aut(g: GroupElement, x: GroupElement) -> GroupElement:
    """chi_g(x) = g x g^{-1}, via the expanded conjugation formula, which is exact
    wherever R(g.t) x.v and R(x.t) g.v are, unlike g_inv(g) in the product."""
    r0v = rotate(g.t, x.x, x.y)
    rv0 = rotate(x.t, g.x, g.y)
    v = (g.x + r0v[0] - rv0[0], g.y + r0v[1] - rv0[1])
    z = (
        x.z
        + cross(g.v, r0v) / 2
        - cross(g.v, rv0) / 2
        - cross(r0v, rv0) / 2
    )
    return GroupElement(x.t, v[0], v[1], z)


def inner_trivial_on_g(g: GroupElement) -> bool:
    """chi_g is the identity map iff g = (2 pi s, 0, z): the center of G."""
    return (
        in_quarter_lattice(g.t, 4)
        and g.x.is_zero()
        and g.y.is_zero()
    )


# ---------------------------------------------------------------------------
# the discrete components
# ---------------------------------------------------------------------------

# chi of the half turn is (t, v, z) -> (t, -v, z)
_HALF_TURN = GroupElement.of(PI, (0, 0), 0)


def discrete_isometry(which: str, p: GroupElement) -> GroupElement:
    """Exact f1, f2 = inv o chi_(pi; 0, 0; 0) or f3 = f1 o f2; f2 and f3
    need a quarter-turn t unless v = 0."""
    if which == "f1":
        return GroupElement(-p.t, -p.x, p.y, -p.z)
    if which == "f2":
        return g_inv(inner_aut(_HALF_TURN, p))
    if which == "f3":
        return discrete_isometry("f1", discrete_isometry("f2", p))
    raise ValueError(f"unknown discrete isometry {which!r}")


# ---------------------------------------------------------------------------
# the Heisenberg action
# ---------------------------------------------------------------------------

def heis_action(h: tuple[tuple[Scalar, Scalar], Scalar], p: GroupElement) -> GroupElement:
    """(v', z') . p = p (0, v', z')^{-1}; needs a quarter-turn t unless v' = 0."""
    vp, zp = h
    return g_mul(p, g_inv(GroupElement(ZERO, *vp, zp)))


# ---------------------------------------------------------------------------
# isometries of G in normal form, fiber preservation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsometryOfG:
    """L_g o chi_h o f_tag with tag in {id, f1, f2, f3}; g and h default to
    the identity."""

    translation: GroupElement = IDENTITY
    inner: GroupElement = IDENTITY
    tag: str = "id"

    def __post_init__(self):
        if self.tag not in ("id", "f1", "f2", "f3"):
            raise ValueError(f"unknown component tag {self.tag!r}")

    def apply(self, p: GroupElement) -> GroupElement:
        f = p if self.tag == "id" else discrete_isometry(self.tag, p)
        return g_mul(self.translation, inner_aut(self.inner, f))


def fiber_preserving(L: LatticeSpec, iso: IsometryOfG) -> bool:
    """Whether iso maps every lattice coset g Lam onto a lattice coset.

    L_g always does, so iso descends iff chi_h o f does.  An automorphism
    phi maps g Lam onto phi(g) phi(Lam), so it descends iff phi(Lam) = Lam.
    f1 maps each lattice onto itself, so chi_h o f1 descends, as chi_h
    does, iff h lies in the normalizer.  f2 and f3 are inv o phi with phi
    an automorphism, and inv o phi maps g Lam onto phi(Lam) phi(g)^-1: a
    coset only if phi(Lam) = Lam (take g = e) and then y Lam y^-1 = Lam
    for every y, a normal lattice.  No lattice here is normal, as
    chi_(pi/3; 0, 0; 0) takes (0; 1, 0; 0) out of it.
    """
    return iso.tag in ("id", "f1") and normalizer_contains(L, iso.inner)
