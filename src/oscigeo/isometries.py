"""The isometry group of the oscillator group and its verification tools.

Every isometry factors as a left translation composed with an isometry
fixing the identity.  The isotropy group has four connected components:
the identity component consists of the inner automorphisms chi_g, and
representatives of the other three are the involutions

    f1(t, v, z) = (-t, S v, -z)          with S(x, y) = (-x, y),
    f2(t, v, z) = (-t, R(-t) v, -z),
    f3 = f1 o f2:  (t, R(t) S v, z).

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
On a solvmanifold quotient of G, the only isotropy isometries that
preserve lattice cosets are the inner chi_h with h in the normalizer of
the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GroupElement, LatticeSpec, cross, g_inv, g_mul, normalizer_contains, rotate
from .metric import FRAME, FRAME_GRAM, TangentVector, bracket, frame_inner
from .scalar import ZERO, Scalar, in_quarter_lattice

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


def extract_isotropy(A: Matrix4) -> IsotropyElement:
    """Read (eps, A~, w) back off a matrix in the isotropy block family."""
    eps_s = A[0][0]
    if eps_s == Scalar(1):
        eps = 1
    elif eps_s == Scalar(-1):
        eps = -1
    else:
        raise NotOrthogonal(f"corner entry {eps_s} is not +-1")
    a_tilde = ((A[1][1], A[1][2]), (A[2][1], A[2][2]))
    w = (A[1][0], A[2][0])
    return IsotropyElement(eps, a_tilde, w)


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

def discrete_isometry(which: str, p: GroupElement) -> GroupElement:
    """Exact f1, f2 or f3 = f1 o f2; f2 and f3 need a quarter-turn t."""
    if which == "f1":
        return GroupElement(-p.t, -p.x, p.y, -p.z)
    if which == "f2":
        w = rotate(-p.t, p.x, p.y)
        return GroupElement(-p.t, w[0], w[1], -p.z)
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
    """L_g o chi_h o f_tag with tag in {id, f1, f2, f3}; factors optional."""

    translation: GroupElement | None = None
    inner: GroupElement | None = None
    tag: str = "id"

    def __post_init__(self):
        if self.tag not in ("id", "f1", "f2", "f3"):
            raise ValueError(f"unknown component tag {self.tag!r}")

    def apply(self, p: GroupElement) -> GroupElement:
        out = p
        if self.tag != "id":
            out = discrete_isometry(self.tag, out)
        if self.inner is not None:
            out = inner_aut(self.inner, out)
        if self.translation is not None:
            out = g_mul(self.translation, out)
        return out


def fiber_preserving(L: LatticeSpec, iso: IsometryOfG) -> bool:
    """Whether iso maps lattice cosets to lattice cosets.

    Left translations always do; an inner factor chi_h does iff h lies in
    the normalizer of the lattice; the discrete components never do.
    """
    if iso.tag != "id":
        return False
    if iso.inner is not None:
        return normalizer_contains(L, iso.inner)
    return True
