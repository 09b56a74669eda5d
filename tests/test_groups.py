import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oscigeo.scalar import MAX_DIGITS, PI, PI_HALF, Scalar
from oscigeo.groups import (
    ExactRotationUnavailable,
    GroupElement,
    IDENTITY,
    LatticeSpec,
    Twist,
    coset_equal,
    coset_normal_form,
    g_inv,
    g_mul,
    lattice_contains,
    n_coset_equal,
    n_coset_normal_form,
    n_inv,
    n_mul,
    normalizer_contains,
    parse_group_element,
    rotate,
)
from oscigeo.floats import _rotate, coset_normal_form_f, g_mul_f

L10 = LatticeSpec(1, Twist.FULL)
L1H = LatticeSpec(1, Twist.HALF)
L1Q = LatticeSpec(1, Twist.QUARTER)
L2Q = LatticeSpec(2, Twist.QUARTER)


def g_inv_f(p):
    """Float inverse in G of a (..., 4) array, at any angle: (-t, -R(-t)v, -z)."""
    p = np.asarray(p, dtype=float)
    wx, wy = _rotate(-p[..., 0], p[..., 1], p[..., 2])
    return np.stack([-p[..., 0], -wx, -wy, -p[..., 3]], axis=-1)


def rand_quarter(rng):
    return GroupElement.of(
        PI_HALF * rng.randint(-4, 4),
        (Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


def g_mul_float_oracle(a, b):
    """Independent float evaluation of the product law."""
    t, v, z = a[0], np.array(a[1:3]), a[3]
    t2, v2, z2 = b[0], np.array(b[1:3]), b[3]
    c, s = math.cos(t), math.sin(t)
    w = np.array([c * v2[0] - s * v2[1], s * v2[0] + c * v2[1]])
    return np.array([t + t2, v[0] + w[0], v[1] + w[1], z + z2 + 0.5 * (v[0] * w[1] - v[1] * w[0])])


def test_identity_laws():
    g = GroupElement.of(PI, (1, 2), Fraction(3, 2))
    assert g_mul(IDENTITY, g) == g
    assert g_mul(g, IDENTITY) == g


def test_g_mul_quarter_example():
    a = GroupElement.of(PI_HALF, (1, 0), 0)
    b = GroupElement.of(0, (0, 1), 0)
    out = g_mul(a, b)
    assert out == GroupElement.of(PI_HALF, (0, 0), 0)
    oracle = g_mul_float_oracle(a.to_float(), b.to_float())
    assert np.max(np.abs(out.to_float() - oracle)) < 1e-15


def test_g_mul_central_step():
    a = GroupElement.of(2 * PI, (0, 0), 0)
    b = GroupElement.of(0, (5, -3), Fraction(7, 2))
    assert g_mul(a, b) == GroupElement.of(2 * PI, (5, -3), Fraction(7, 2))


def test_g_mul_requires_quarter_angle():
    with pytest.raises(ExactRotationUnavailable):
        g_mul(GroupElement.of(PI / 3, (0, 0), 0), GroupElement.of(0, (1, 0), 0))
    # float path has no restriction
    out = g_mul_f([math.pi / 3, 0, 0, 0], [0, 1, 0, 0])
    assert np.allclose(out, g_mul_float_oracle(np.array([math.pi / 3, 0, 0, 0]), np.array([0, 1, 0, 0])))


def test_g_inv_examples():
    assert g_inv(IDENTITY) == IDENTITY
    assert g_inv(GroupElement.of(PI, (1, 0), 0)) == GroupElement.of(-PI, (1, 0), 0)
    h = GroupElement.of(0, (Fraction(2, 3), -1), Fraction(5, 4))
    assert g_inv(h) == GroupElement.of(0, (Fraction(-2, 3), 1), Fraction(-5, 4))


def test_g_inv_property():
    rng = random.Random(0)
    for _ in range(50):
        a = rand_quarter(rng)
        assert g_mul(a, g_inv(a)) == IDENTITY
        assert g_mul(g_inv(a), a) == IDENTITY


def test_n_mul_examples():
    assert n_mul(IDENTITY, GroupElement.of(1, (2, 3), 4)) == GroupElement.of(1, (2, 3), 4)
    out = n_mul(GroupElement.of(0, (1, 0), 0), GroupElement.of(0, (0, 1), 0))
    assert out == GroupElement.of(0, (1, 1), Fraction(1, 2))


def test_n_commutator_structure():
    rng = random.Random(1)
    for _ in range(30):
        a, b = rand_quarter(rng), rand_quarter(rng)
        ab, ba = n_mul(a, b), n_mul(b, a)
        cross = a.x * b.y - a.y * b.x
        assert ab.t == ba.t and ab.x == ba.x and ab.y == ba.y
        assert ab.z - ba.z == cross


def test_associativity_exact():
    rng = random.Random(2)
    for _ in range(60):
        a, b, c = (rand_quarter(rng) for _ in range(3))
        assert g_mul(g_mul(a, b), c) == g_mul(a, g_mul(b, c))
        assert n_mul(n_mul(a, b), c) == n_mul(a, n_mul(b, c))


def test_g_and_n_agree_at_flat_left_factor():
    rng = random.Random(3)
    for _ in range(30):
        a, b = rand_quarter(rng), rand_quarter(rng)
        flat = GroupElement(Scalar(0), a.x, a.y, a.z)
        assert g_mul(flat, b) == n_mul(flat, b)


def test_exact_vs_float_products():
    rng = random.Random(4)
    for _ in range(60):
        a, b = rand_quarter(rng), rand_quarter(rng)
        assert np.max(np.abs(g_mul(a, b).to_float() - g_mul_f(a.to_float(), b.to_float()))) < 1e-12
        assert np.max(np.abs(g_inv(a).to_float() - g_inv_f(a.to_float()))) < 1e-12


def test_rotation_exact_entries():
    one, zero = Scalar(1), Scalar(0)
    # the columns R(t) e1 = (cos t, sin t) and R(t) e2 = (-sin t, cos t)
    assert rotate(PI_HALF, one, zero) == (zero, one)
    assert rotate(PI_HALF, zero, one) == (-one, zero)
    assert rotate(2 * PI, one, zero) == (one, zero)
    assert rotate(2 * PI, zero, one) == (zero, one)
    assert rotate(-PI_HALF, Scalar(2), PI) == (PI, Scalar(-2))
    with pytest.raises(ExactRotationUnavailable):
        rotate(Scalar(1), one, zero)
    # the zero vector needs no exact angle
    assert rotate(Scalar(1), zero, zero) == (zero, zero)
    assert rotate(PI / 3, zero, zero) == (zero, zero)


def test_rotate_matches_float_rotation():
    v = (Scalar(Fraction(3, 7)), Scalar(1) - PI / 5)
    for j in range(-8, 9):
        exact = rotate(PI_HALF * j, *v)
        fx, fy = _rotate(j * math.pi / 2, float(v[0]), float(v[1]))
        assert abs(float(exact[0]) - fx) < 1e-12 and abs(float(exact[1]) - fy) < 1e-12, j


def test_lattice_contains_examples():
    assert lattice_contains(L10, GroupElement.of(2 * PI, (1, 1), Fraction(1, 2)))
    half_turn = GroupElement.of(PI, (0, 0), 0)
    assert not lattice_contains(L10, half_turn)
    assert lattice_contains(L1H, half_turn)
    assert lattice_contains(L2Q, GroupElement.of(PI_HALF, (0, 0), Fraction(1, 4)))
    assert not lattice_contains(L10, GroupElement.of(2 * PI, (Fraction(1, 2), 0), 0))


def test_lattice_spec_validation_and_parse():
    with pytest.raises(ValueError):
        LatticeSpec(0, Twist.FULL)
    spec = LatticeSpec.parse("k=2,twist=quarter")
    assert spec == L2Q
    assert spec.t_step == PI_HALF and spec.z_step == Fraction(1, 4)
    assert str(spec) == "k=2,twist=quarter"
    for name, twist in (("full", Twist.FULL), ("HALF", Twist.HALF), (" Quarter ", Twist.QUARTER)):
        assert LatticeSpec.parse(f"k=3, twist={name}") == LatticeSpec(3, twist)
    for name in ("sideways", "", "Twist.FULL", "1"):
        with pytest.raises(ValueError, match=f"^unknown twist '{name.lower()}'$"):
            LatticeSpec.parse(f"k=1,twist={name}")
    # k takes up to MAX_DIGITS ASCII digits; one more is refused
    assert LatticeSpec.parse(f"k={'9' * MAX_DIGITS},twist=full").k == 10**MAX_DIGITS - 1
    with pytest.raises(ValueError, match="lattice field 'k' must be 1 to MAX_DIGITS"):
        LatticeSpec.parse(f"k={'9' * (MAX_DIGITS + 1)},twist=full")
    with pytest.raises(ValueError, match="unknown lattice field 'q'"):
        LatticeSpec.parse("k=1,twist=full,q=2")
    with pytest.raises(ValueError, match=r"lattice spec needs k=<int>,twist=<full\|half\|quarter>, got 'k=1'"):
        LatticeSpec.parse("k=1")


def test_coset_normal_form_lattice_element_is_identity():
    gamma = GroupElement.of(2 * PI, (1, 1), Fraction(1, 2))
    assert coset_normal_form(L10, gamma) == IDENTITY
    assert coset_normal_form(L10, GroupElement.of(2 * PI, (1, 0), 0)) == IDENTITY


def test_coset_normal_form_half_shift_matches_brute_force():
    g = GroupElement.of(0, (Fraction(3, 2), 0), 0)
    out = coset_normal_form(L10, g)
    assert out == GroupElement.of(0, (Fraction(1, 2), 0), 0)
    # brute-force oracle: all small lattice right-multiples landing in the box
    reps = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-6, 7):
                    lam = GroupElement.of(2 * PI * a, (b, c), Fraction(d, 2))
                    cand = g_mul(g, lam)
                    inside = (
                        Scalar(0) <= cand.t < 2 * PI
                        and Scalar(0) <= cand.x < Scalar(1)
                        and Scalar(0) <= cand.y < Scalar(1)
                        and Scalar(0) <= cand.z < Scalar(Fraction(1, 2))
                    )
                    if inside:
                        reps.append(cand)
    assert reps and all(r == out for r in reps)


def test_coset_normal_form_ranges_and_consistency():
    rng = random.Random(5)
    for L in (L10, L1H, L2Q):
        for _ in range(40):
            g = rand_quarter(rng)
            nf = coset_normal_form(L, g)
            assert coset_equal(L, nf, g)
            assert Scalar(0) <= nf.t < L.t_step
            assert Scalar(0) <= nf.x < Scalar(1)
            assert Scalar(0) <= nf.y < Scalar(1)
            assert Scalar(0) <= nf.z < Scalar(L.z_step)


def test_coset_normal_form_raises_when_rotation_needed_off_quarter():
    # a v already in [0, 1)^2 raises too: the float form's box at t = 1 is R(1)[0, 1)^2
    for v, z in (((5, 0), 0), ((0, Fraction(-1, 2)), 0), ((Fraction(1, 2), 0), Fraction(7, 3))):
        with pytest.raises(ExactRotationUnavailable, match="^angle 1 is not an integer multiple of pi/2$"):
            coset_normal_form(L10, GroupElement.of(Scalar(1), v, z))


def test_coset_equal_examples():
    g = GroupElement.of(PI_HALF, (1, 2), 3)
    assert coset_equal(L10, g, g)
    assert coset_equal(L10, IDENTITY, GroupElement.of(2 * PI, (1, 1), Fraction(1, 2)))
    assert not coset_equal(L10, IDENTITY, GroupElement.of(PI, (0, 0), 0))
    assert coset_equal(L1H, IDENTITY, GroupElement.of(PI, (0, 0), 0))
    # a non-quarter angle with zero v stays decidable: rotations of the
    # zero vector need no exact angle
    for L in (L10, L1H, L1Q):
        assert not coset_equal(L, IDENTITY, GroupElement.of(PI / 3, (0, 0), 0))


def test_coset_equal_matches_normal_forms():
    rng = random.Random(6)
    for _ in range(60):
        g1, g2 = rand_quarter(rng), rand_quarter(rng)
        assert coset_equal(L10, g1, g2) == (coset_normal_form(L10, g1) == coset_normal_form(L10, g2))


def test_coset_equal_is_right_coset_relation():
    # right cosets: g ~ g * lam for lattice lam
    rng = random.Random(7)
    for _ in range(30):
        g = rand_quarter(rng)
        lam = GroupElement.of(2 * PI * rng.randint(-2, 2), (rng.randint(-3, 3), rng.randint(-3, 3)), Fraction(rng.randint(-4, 4), 2))
        assert lattice_contains(L10, lam)
        assert coset_equal(L10, g, g_mul(g, lam))


def test_normalizer_full_family():
    for k in (1, 2):
        L = LatticeSpec(k, Twist.FULL)
        assert normalizer_contains(L, GroupElement.of(PI_HALF, (Fraction(1, 2 * k), 0), 5))
        assert not normalizer_contains(L, GroupElement.of(PI_HALF, (Fraction(1, 2 * k + 1), 0), 0))
    assert not normalizer_contains(L10, GroupElement.of(PI / 3, (0, 0), 0))


def test_normalizer_half_family():
    L2H = LatticeSpec(2, Twist.HALF)
    assert normalizer_contains(L2H, GroupElement.of(PI, (Fraction(1, 2), Fraction(1, 2)), PI))
    assert not normalizer_contains(L2H, GroupElement.of(PI, (Fraction(1, 4), 0), 0))


def test_normalizer_quarter_family_parity_rule():
    # odd k: integer vectors only; even k: half-odd-integer coset joins
    assert normalizer_contains(L1Q, GroupElement.of(PI_HALF, (1, 1), 0))
    assert normalizer_contains(L1Q, GroupElement.of(PI_HALF, (1, 0), 0))
    assert not normalizer_contains(L1Q, GroupElement.of(PI_HALF, (Fraction(1, 2), Fraction(1, 2)), 0))
    assert normalizer_contains(L2Q, GroupElement.of(PI_HALF, (Fraction(1, 2), Fraction(1, 2)), 0))
    assert not normalizer_contains(L2Q, GroupElement.of(PI_HALF, (Fraction(1, 2), 0), 0))
    L3Q = LatticeSpec(3, Twist.QUARTER)
    assert not normalizer_contains(L3Q, GroupElement.of(PI_HALF, (Fraction(1, 2), Fraction(1, 2)), 0))
    assert normalizer_contains(L3Q, GroupElement.of(PI_HALF, (2, 1), 0))


def test_normalizer_center_direction():
    for L in (L10, L1H, L1Q, L2Q):
        assert normalizer_contains(L, GroupElement.of(0, (0, 0), PI))


def test_normalizer_agrees_with_conjugation_oracle_spot():
    from oscigeo.isometries import inner_aut

    rng = random.Random(8)
    for L in (L10, L1H, L1Q, L2Q):
        gens = L.generators()
        for _ in range(40):
            h = GroupElement.of(
                PI_HALF * rng.randint(0, 4),
                (Fraction(rng.randint(0, 8), 4), Fraction(rng.randint(0, 8), 4)),
                Fraction(rng.randint(0, 1), 4),
            )
            oracle = all(lattice_contains(L, inner_aut(h, gamma)) for gamma in gens)
            assert normalizer_contains(L, h) == oracle


def test_n_side_cosets():
    p = GroupElement.of(2 * PI, (1, 2), Fraction(3, 2))
    assert n_coset_normal_form(L10, p) == IDENTITY
    q = GroupElement.of(Scalar(1), (Fraction(5, 2), 0), 0)
    nf = n_coset_normal_form(L10, q)
    assert nf.x == Fraction(1, 2) and n_coset_equal(L10, nf, q)
    rng = random.Random(9)
    for _ in range(30):
        a, b = rand_quarter(rng), rand_quarter(rng)
        assert n_coset_equal(L10, a, b) == (n_coset_normal_form(L10, a) == n_coset_normal_form(L10, b))
        assert n_coset_equal(L10, n_coset_normal_form(L10, a), a)
        lam = GroupElement.of(2 * PI * rng.randint(-2, 2), (rng.randint(-2, 2), rng.randint(-2, 2)), Fraction(rng.randint(-4, 4), 2))
        assert n_coset_equal(L10, n_mul(lam, a), a)
        assert n_mul(a, n_inv(a)) == IDENTITY


def test_float_normal_form_is_coset_canonical():
    rng = np.random.default_rng(10)
    for L in (L10, L1H, L1Q):
        t_step = float(L.t_step)
        for _ in range(50):
            p = rng.uniform(-3, 3, 4)
            j = rng.integers(-2, 3)
            lam = np.array([
                t_step * j,
                float(rng.integers(-3, 3)),
                float(rng.integers(-3, 3)),
                float(L.z_step) * rng.integers(-4, 4),
            ])
            q = g_mul_f(p, lam)
            d = np.abs(coset_normal_form_f(L, p) - coset_normal_form_f(L, q))
            assert np.max(d) < 1e-9


def test_float_normal_form_matches_exact_at_quarter_turns():
    # both forms reduce v into [0, 1)^2 at quarter turns, on every family
    rng = random.Random(12)
    for k in (1, 2, 3):
        for twist in Twist:
            L = LatticeSpec(k, twist)
            for _ in range(40):
                g = rand_quarter(rng)
                g = GroupElement(PI_HALF * rng.randint(-8, 8), g.x, g.y, g.z)
                exact = coset_normal_form(L, g).to_float()
                assert np.max(np.abs(coset_normal_form_f(L, g.to_float()) - exact)) < 1e-9, (L, g)


def test_group_element_parse_print_roundtrip():
    g = GroupElement.of(2 * PI, (Fraction(1, 2), -3), Fraction(-5, 4))
    assert parse_group_element(str(g)) == g
    assert parse_group_element("(pi/2; 1, 0; 1/(4*pi))") == GroupElement.of(
        PI_HALF, (1, 0), Scalar(1) / (4 * PI)
    )
    with pytest.raises(ValueError):
        parse_group_element("pi; 1, 0; 0")
    with pytest.raises(ValueError):
        parse_group_element("(1; 2; 3)")
