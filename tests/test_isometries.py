import random
from fractions import Fraction

import numpy as np
import pytest

from oscigeo import floats, isometries, verify
from oscigeo.scalar import PI, PI_HALF, Scalar
from oscigeo.groups import (
    ExactRotationUnavailable,
    GroupElement,
    IDENTITY,
    LatticeSpec,
    Twist,
    coset_equal,
    cross,
    g_inv,
    g_mul,
    n_coset_equal,
    n_coset_normal_form,
    n_mul,
    rotate,
)
from oscigeo.isometries import (
    IsometryOfG,
    IsotropyElement,
    NotOrthogonal,
    ambrose_hicks_check,
    discrete_isometry,
    extract_isotropy,
    fiber_preserving,
    heis_action,
    inner_aut,
    inner_trivial_on_g,
    isotropy_matrix,
)
from oscigeo.metric import FRAME_GRAM, TangentVector, frame_inner
from oscigeo.floats import (
    chi_f,
    f1_f,
    f2_f,
    f3_f,
    g_mul_f,
    heis_action_f,
    is_isometry_numeric,
    metric_matrix_f,
)

S1 = Scalar(1)
S0 = Scalar(0)
ID2 = ((S1, S0), (S0, S1))
ROT90 = ((S0, Scalar(-1)), (S1, S0))
FLIP = ((S1, S0), (S0, Scalar(-1)))
W_GRID = [(S0, S0), (S1, S0), (S1, S1)]


def rand_quarter(rng):
    return GroupElement.of(
        PI_HALF * rng.randint(-4, 4),
        (Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    )


def test_isotropy_matrix_identity():
    M = isotropy_matrix(IsotropyElement(1, ID2, (S0, S0)))
    for i in range(4):
        for j in range(4):
            assert M[i][j] == Scalar(1 if i == j else 0)


def test_isotropy_matrix_reflected_row_signs():
    M = isotropy_matrix(IsotropyElement(-1, ID2, (S1, S0)))
    assert M[3][0] == Scalar(Fraction(1, 2))
    assert (M[3][1], M[3][2]) == (S1, S0)
    assert M[3][3] == Scalar(-1)
    assert M[0][0] == Scalar(-1)


def test_not_orthogonal_rejected():
    with pytest.raises(NotOrthogonal):
        IsotropyElement(1, ((Scalar(2), S0), (S0, S1)), (S0, S0))
    with pytest.raises(ValueError):
        IsotropyElement(2, ID2, (S0, S0))


def test_ambrose_hicks_grid_and_extraction():
    for eps in (1, -1):
        for a_tilde in (ID2, ROT90, FLIP):
            for w in W_GRID:
                el = IsotropyElement(eps, a_tilde, w)
                A = isotropy_matrix(el)
                assert ambrose_hicks_check(A)
                assert extract_isotropy(A) == el
                assert isotropy_matrix(extract_isotropy(A)) == A
    corner = [list(row) for row in isotropy_matrix(IsotropyElement(1, ID2, (S0, S0)))]
    corner[0][0] = Scalar(2)
    with pytest.raises(NotOrthogonal, match=r"corner entry 2 is not \+-1"):
        extract_isotropy(tuple(tuple(row) for row in corner))


def _diag(*entries):
    return tuple(tuple(Scalar(entries[i] if i == j else 0) for j in range(4)) for i in range(4))


def test_ambrose_hicks_rejects_non_members():
    assert not ambrose_hicks_check(_diag(2, 1, 1, 1))
    # diag(2, 1, 1, 1/2) keeps the Gram form, so only the double-bracket test rejects it
    boost = _diag(2, 1, 1, Fraction(1, 2))
    cols = [TangentVector(*(boost[i][j] for i in range(4))) for j in range(4)]
    assert all(frame_inner(cols[i], cols[j]) == FRAME_GRAM[i][j] for i in range(4) for j in range(4))
    assert not ambrose_hicks_check(boost)
    # perturb one entry of a family member
    A = [list(row) for row in isotropy_matrix(IsotropyElement(1, ROT90, (S1, S0)))]
    A[3][1] = A[3][1] + 1
    assert not ambrose_hicks_check(tuple(tuple(r) for r in A))


def test_inner_aut_is_conjugation():
    rng = random.Random(0)
    for _ in range(50):
        g, x = rand_quarter(rng), rand_quarter(rng)
        assert inner_aut(g, x) == g_mul(g, g_mul(x, g_inv(g)))


def test_inner_aut_identity_and_center():
    x = GroupElement.of(PI, (1, 2), 3)
    assert inner_aut(IDENTITY, x) == x
    assert inner_aut(GroupElement.of(0, (0, 0), Fraction(7, 2)), x) == x
    assert inner_aut(GroupElement.of(2 * PI, (0, 0), 0), x) == x


def test_inner_aut_float_matches_exact():
    rng = random.Random(1)
    for _ in range(30):
        g, x = rand_quarter(rng), rand_quarter(rng)
        exact = inner_aut(g, x).to_float()
        approx = chi_f(g.to_float(), x.to_float())
        assert np.max(np.abs(exact - approx)) < 1e-12


def test_inner_kernel_pattern():
    assert inner_trivial_on_g(GroupElement.of(2 * PI, (0, 0), Fraction(5, 3)))
    assert inner_trivial_on_g(GroupElement.of(-4 * PI, (0, 0), PI))
    assert not inner_trivial_on_g(GroupElement.of(PI, (0, 0), 0))
    assert not inner_trivial_on_g(GroupElement.of(2 * PI, (1, 0), 0))


def test_discrete_isometry_formulas():
    p = GroupElement.of(1, (2, 3), 4)
    assert discrete_isometry("f1", p) == GroupElement.of(-1, (-2, 3), -4)
    q = GroupElement.of(PI_HALF, (1, 0), Fraction(1, 2))
    # f2 rotates by R(-t): R(-pi/2)(1,0) = (0,-1)
    assert discrete_isometry("f2", q) == GroupElement.of(-PI_HALF, (0, -1), Fraction(-1, 2))
    # f3 = (t, R(t) S v, z): R(pi/2) S (1,0) = R(pi/2)(-1,0) = (0,-1)
    assert discrete_isometry("f3", q) == GroupElement.of(PI_HALF, (0, -1), Fraction(1, 2))
    with pytest.raises(ExactRotationUnavailable):
        discrete_isometry("f2", p)
    with pytest.raises(ValueError):
        discrete_isometry("f9", p)


def test_f3_equals_f1_after_f2():
    # f3 is f1 o f2; written out, it is (t, R(t) S v, z)
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.uniform(-4, 4, 4)
        t, x, y, z = p
        c, s = np.cos(t), np.sin(t)
        assert np.max(np.abs(f3_f(p) - [t, -c * x - s * y, -s * x + c * y, z])) < 1e-12
    # and exactly at quarter angles
    r = random.Random(3)
    for _ in range(20):
        q = rand_quarter(r)
        assert discrete_isometry("f3", q) == GroupElement(q.t, *rotate(q.t, -q.x, q.y), q.z)


def test_discrete_isometries_are_involutions_fixing_identity():
    rng = np.random.default_rng(4)
    for f in (f1_f, f2_f, f3_f):
        assert np.max(np.abs(f(np.zeros(4)))) == 0.0
        for _ in range(20):
            p = rng.uniform(-3, 3, 4)
            assert np.max(np.abs(f(f(p)) - p)) < 1e-12


def test_is_isometry_numeric_certifies_known_maps():
    assert is_isometry_numeric(lambda p: p)
    for f in (f1_f, f2_f, f3_f):
        assert is_isometry_numeric(f)
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = rng.uniform(-3, 3, 4)
        assert is_isometry_numeric(lambda p: chi_f(g, p))
        assert is_isometry_numeric(lambda p: g_mul_f(g, p))
        vp = rng.uniform(-3, 3, 2)
        zp = float(rng.uniform(-3, 3))
        assert is_isometry_numeric(lambda p: heis_action_f(vp, zp, p))
    assert not is_isometry_numeric(lambda p: 2 * p, samples=5)


def _pullback_loop(point_map, samples=50, seed=0, tol=1e-6, h=1e-6):
    """The per-sample reference: one Jacobian column at a time, one point at a time."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        p = rng.uniform(-2.0, 2.0, 4)
        jac = np.empty((4, 4))
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            jac[:, i] = (point_map(p + e) - point_map(p - e)) / (2 * h)
        pulled = jac.T @ metric_matrix_f(point_map(p)) @ jac
        if np.max(np.abs(pulled - metric_matrix_f(p))) > tol:
            return False
    return True


def test_is_isometry_numeric_batches_like_the_loop():
    rng = np.random.default_rng(11)
    g, vp = rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 2)

    def bent(p):  # an isometry of the cube x < 0 only
        return np.where(p[..., 1:2] < 0, p, 1.5 * p)

    maps = [f1_f, f2_f, lambda p: chi_f(g, p), lambda p: heis_action_f(vp, 0.3, p), bent]
    maps += [lambda p: 2 * p, lambda p: p + np.sin(p) * 1e-3]
    verdicts = []
    for point_map in maps:
        for seed in (0, 7):
            verdict = is_isometry_numeric(point_map, seed=seed)
            assert verdict == _pullback_loop(point_map, seed=seed)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    shapes = []
    is_isometry_numeric(lambda p: shapes.append(p.shape) or p, samples=7)
    assert shapes == [(7, 9, 4)]


def test_conjugation_covariance():
    rng = random.Random(6)
    for _ in range(30):
        g, h, x = (rand_quarter(rng) for _ in range(3))
        lhs = inner_aut(g, g_mul(h, inner_aut(g_inv(g), x)))
        rhs = g_mul(inner_aut(g, h), x)
        assert lhs == rhs


def test_chi_differential_at_identity_is_adjoint():
    g = GroupElement.of(PI_HALF, (Fraction(1, 2), 1), 2)
    Ad = isotropy_matrix(IsotropyElement(1, ROT90, (g.y, -g.x)))  # A~ = R(pi/2), w = J v
    Ad_f = np.array([[float(Ad[i][j]) for j in range(4)] for i in range(4)])
    gf = g.to_float()
    step = 1e-6
    jac = np.empty((4, 4))
    for i in range(4):
        e = np.zeros(4)
        e[i] = step
        jac[:, i] = (chi_f(gf, e) - chi_f(gf, -e)) / (2 * step)
    assert np.max(np.abs(jac - Ad_f)) < 1e-6


def test_heis_action_examples():
    p = GroupElement.of(PI_HALF, (Fraction(1, 3), 2), Fraction(5, 4))
    assert heis_action(((S0, S0), S0), p) == p
    vp = (Scalar(Fraction(2, 3)), S1)
    zp = Scalar(Fraction(1, 5))
    # right translation by the inverse of (0, v', z') is the paper's expanded formula
    assert heis_action((vp, zp), p) == _heis_mutant()((vp, zp), p)
    rng = random.Random(4)
    for _ in range(50):
        q = rand_quarter(rng)
        h = (Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9))), S1), Scalar(rng.randint(-3, 3))
        assert heis_action(h, q) == _heis_mutant()(h, q)
    # it is exact where the group law is: a quarter-turn t, or v' = 0 at any t
    off = GroupElement.of(1, (2, 3), 4)
    assert heis_action(((S0, S0), zp), off) == GroupElement.of(1, (2, 3), 4 - zp)
    with pytest.raises(ExactRotationUnavailable):
        heis_action((vp, zp), off)


def test_heis_action_axiom_float():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v1, v2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        z1, z2 = rng.uniform(-2, 2, 2)
        p = rng.uniform(-2, 2, 4)
        lhs = heis_action_f(v1, z1, heis_action_f(v2, z2, p))
        pv = v1 + v2
        pz = z1 + z2 + 0.5 * (v1[0] * v2[1] - v1[1] * v2[0])
        rhs = heis_action_f(pv, pz, p)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_heis_action_descends_to_nilmanifold():
    rng = random.Random(8)
    for k in (1, 2):
        L = LatticeSpec(k, Twist.FULL)
        for _ in range(20):
            p = rand_quarter(rng)
            vp = (Scalar(Fraction(rng.randint(-4, 4), 3)), Scalar(rng.randint(-2, 2)))
            zp = Scalar(Fraction(rng.randint(-4, 4), 5))
            for gamma in L.generators():
                moved = heis_action((vp, zp), n_mul(gamma, p))
                base = heis_action((vp, zp), p)
                assert n_coset_equal(L, moved, base)
                assert n_coset_normal_form(L, moved) == n_coset_normal_form(L, base)


def _heis_mutant(cross_sign=1, turn=1, z_shift=1):
    """The paper's (v', z') . (t, v, z) = (t, v - R(t)v', z - z' - v^T J R(t) v' / 2), exact, with
    its cross/2 term times cross_sign, R(t) as R(turn t) and z' times z_shift."""
    def action(h, p):
        vp, zp = h
        w = rotate(turn * p.t, *vp)
        return GroupElement(p.t, p.x - w[0], p.y - w[1], p.z - z_shift * zp - cross_sign * cross(p.v, w) / 2)
    return action


def _heis_mutant_f(cross_sign=1, turn=1, z_shift=1):
    """The same formula and mutations on floats, with heis_action_f's signature."""
    def action(vp, zp, p):
        vp, p = np.asarray(vp, dtype=float), np.asarray(p, dtype=float)
        c, s = np.cos(turn * p[..., 0]), np.sin(turn * p[..., 0])
        wx, wy = c * vp[..., 0] - s * vp[..., 1], s * vp[..., 0] + c * vp[..., 1]
        cross_f = p[..., 1] * wy - p[..., 2] * wx
        columns = p[..., 0], p[..., 1] - wx, p[..., 2] - wy, p[..., 3] - z_shift * zp - cross_sign * cross_f / 2
        return np.stack(np.broadcast_arrays(*columns), axis=-1)
    return action


_FORMULA = "matches floats.heis_action_f"


@pytest.mark.parametrize("mutant, failing", [
    (lambda h, p: p, {"moves some coset", _FORMULA}),
    (_heis_mutant(cross_sign=-1), {"descend", _FORMULA}),
    (_heis_mutant(cross_sign=0), {"descend", _FORMULA}),
    (_heis_mutant(turn=-1), {_FORMULA}),
    (_heis_mutant(z_shift=0), {_FORMULA}),
], ids=["identity", "flipped-cross-sign", "no-cross-term", "rotated-back", "no-z-shift"])
def test_isometries_suite_catches_a_broken_heis_action(monkeypatch, mutant, failing):
    monkeypatch.setattr(isometries, "heis_action", _heis_mutant())
    assert verify.suite_isometries(random.Random(0)).passed
    monkeypatch.setattr(isometries, "heis_action", mutant)
    for seed in (0, 1):
        failures = verify.suite_isometries(random.Random(seed)).failures
        # each named check fails, and no other
        hit = {name for name in failing for message in failures if name in message}
        assert hit == failing and all(any(name in m for name in failing) for m in failures), (seed, failures)


@pytest.mark.parametrize("mutant", [
    lambda vp, zp, p: np.asarray(p, dtype=float),
    _heis_mutant_f(cross_sign=-1),
    _heis_mutant_f(cross_sign=0),
    _heis_mutant_f(turn=-1),
    _heis_mutant_f(z_shift=0),
], ids=["identity", "flipped-cross-sign", "no-cross-term", "rotated-back", "no-z-shift"])
def test_isometries_suite_catches_a_broken_heis_action_f(monkeypatch, mutant):
    monkeypatch.setattr(floats, "heis_action_f", _heis_mutant_f())
    assert verify.suite_isometries(random.Random(0)).passed
    monkeypatch.setattr(floats, "heis_action_f", mutant)
    for seed in (0, 1):
        failures = verify.suite_isometries(random.Random(seed)).failures
        assert any(_FORMULA in message for message in failures), (seed, failures)


def test_fiber_preserving():
    L10 = LatticeSpec(1, Twist.FULL)
    L1H = LatticeSpec(1, Twist.HALF)
    assert fiber_preserving(L10, IsometryOfG(translation=GroupElement.of(PI / 3, (1, 2), 3)))
    assert fiber_preserving(L1H, IsometryOfG(inner=GroupElement.of(PI_HALF, (Fraction(1, 2), 0), 0)))
    assert not fiber_preserving(L1H, IsometryOfG(inner=GroupElement.of(PI / 3, (0, 0), 0)))
    assert not fiber_preserving(L10, IsometryOfG(tag="f1"))
    assert not fiber_preserving(L10, IsometryOfG(inner=IDENTITY, tag="f3"))
    assert fiber_preserving(L10, IsometryOfG())


def test_induced_kernels():
    assert inner_trivial_on_g(GroupElement.of(2 * PI, (0, 0), Fraction(9, 7)))
    assert not inner_trivial_on_g(GroupElement.of(PI, (0, 0), 0))


def test_isometry_of_g_applies_the_factors_right_to_left():
    rng = random.Random(9)
    g, h = rand_quarter(rng), rand_quarter(rng)
    L = LatticeSpec(1, Twist.FULL)
    for _ in range(12):
        p = rand_quarter(rng)
        assert IsometryOfG().apply(p) == p
        assert IsometryOfG(translation=g).apply(p) == g_mul(g, p)
        assert IsometryOfG(inner=h, tag="f1").apply(p) == inner_aut(h, discrete_isometry("f1", p))
        full = IsometryOfG(translation=g, inner=h, tag="f2").apply(p)
        assert full == g_mul(g, inner_aut(h, discrete_isometry("f2", p)))
        # a central lattice translation fixes every coset, and a central conjugation every point
        assert coset_equal(L, IsometryOfG(translation=GroupElement.of(2 * PI, (0, 0), Fraction(1, 2))).apply(p), p)
        assert not coset_equal(L, IsometryOfG(translation=GroupElement.of(0, (0, 0), Fraction(1, 3))).apply(p), p)
        assert IsometryOfG(inner=GroupElement.of(2 * PI, (0, 0), 5)).apply(p) == p
    with pytest.raises(ValueError, match="unknown component tag 'f4'"):
        IsometryOfG(tag="f4")
