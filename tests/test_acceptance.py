"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see the table, or via `oscigeo verify` for the underlying suites.
"""

import random
import time
from fractions import Fraction

import numpy as np

from oscigeo.scalar import PI, PI_HALF, Scalar
from oscigeo.groups import (
    GroupElement,
    IDENTITY,
    LatticeSpec,
    Twist,
    lattice_contains,
    normalizer_contains,
)
from oscigeo.metric import (
    CausalType,
    TangentVector,
    bracket,
    curvature_op,
    frame_inner,
    ricci,
)
from oscigeo.geodesics import exp_map
from oscigeo.floats import (
    chi_f,
    closed_form_batch,
    exp_map_packed_f,
    f1_f,
    f2_f,
    f3_f,
    g_mul_f,
    heis_action_f,
    initial_state,
    is_isometry_numeric,
    rk4_states,
)
from oscigeo.isometries import IsotropyElement, ambrose_hicks_check, inner_aut, isotropy_matrix
from oscigeo.quotients import VerdictKind, classify_geodesic
from oscigeo import verify as verify_mod

X0 = TangentVector.of(1, 0, 0, 0)
X1 = TangentVector.of(0, 1, 0, 0)
X2 = TangentVector.of(0, 0, 1, 0)
X3 = TangentVector.of(0, 0, 0, 1)
FRAME = (X0, X1, X2, X3)


def report(number, ok, label):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def random_null_direction(rng, line_share=10):
    if rng.randrange(line_share) == 0:
        a3 = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
        return TangentVector.of(0, 0, 0, a3)
    a0 = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
    a1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    a2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return TangentVector.of(a0, a1, a2, -(a1 * a1 + a2 * a2) / (2 * a0))


def test_criterion_1_null_periodicity():
    rng = random.Random(2024)
    started = time.perf_counter()
    checked = 0
    ok = True
    for k in (1, 2, 3):
        for twist in Twist:
            L = LatticeSpec(k, twist)
            for _ in range(200):
                X = random_null_direction(rng)
                causal, verdict = classify_geodesic(L, X)
                good = (
                    causal is CausalType.NULL
                    and verdict.kind is VerdictKind.PERIODIC
                    and lattice_contains(L, exp_map(X.scale(verdict.minimal_T)))
                )
                ok &= good
                checked += 1
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    report(1, ok, f"{checked} null directions periodic and verified in {elapsed:.2f}s (< 10s)")


def test_criterion_2_mixed_causal_witnesses():
    L = LatticeSpec(1, Twist.FULL)
    cases = [
        (TangentVector.of(1, 0, 0, Scalar(1) / (4 * PI)), CausalType.SPACELIKE, VerdictKind.PERIODIC, 2 * PI),
        (TangentVector.of(1, 0, 0, 1), CausalType.SPACELIKE, VerdictKind.NON_CLOSED, None),
        (TangentVector.of(1, 0, 0, Scalar(-1) / (4 * PI)), CausalType.TIMELIKE, VerdictKind.PERIODIC, 2 * PI),
        (TangentVector.of(1, 0, 0, -1), CausalType.TIMELIKE, VerdictKind.NON_CLOSED, None),
    ]
    ok = True
    ok &= cases[0][0].norm_sq() == Scalar(1) / (2 * PI)
    ok &= cases[2][0].norm_sq() == Scalar(-1) / (2 * PI)
    for X, want_causal, want_kind, want_T in cases:
        causal, verdict = classify_geodesic(L, X)
        ok &= causal is want_causal and verdict.kind is want_kind
        if want_T is not None:
            ok &= verdict.minimal_T == want_T
    report(2, ok, "four witness directions classified exactly")


def test_criterion_3_closed_form_vs_rk4():
    result = verify_mod.suite_geodesics(random.Random(7))
    v = verify_mod
    report(
        3,
        result.passed,
        f"{v._N_DIRECTIONS} directions over [0,{v._S_END:g}] at step {v._STEP:g}: "
        f"sup <= {v._SUP_TOL:g}, drift <= {v._DRIFT_TOL:g} ({result.checks} checks)",
    )


def test_criterion_4_ricci_identity():
    ok = True
    for i, Xi in enumerate(FRAME):
        for j, Xj in enumerate(FRAME):
            expected = Scalar(Fraction(1, 2)) if i == j == 0 else Scalar(0)
            ok &= ricci(Xi, Xj) == expected
    rng = random.Random(11)
    for _ in range(100):
        X = TangentVector.of(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        ok &= ricci(X, X) == X.a0 * X.a0 / 2
    report(4, ok, "Ricci matrix is diag(1/2,0,0,0) and Ric(X,X) = a0^2/2 exactly")


def test_criterion_5_isometry_certification():
    nprng = np.random.default_rng(13)
    maps = [f1_f, f2_f, f3_f]
    for _ in range(20):
        g = nprng.uniform(-3, 3, 4)
        maps.append(lambda p, g=g: chi_f(g, p))
    for _ in range(20):
        h = nprng.uniform(-3, 3, 4)
        maps.append(lambda p, h=h: g_mul_f(h, p))
    for _ in range(20):
        vp = nprng.uniform(-3, 3, 2)
        zp = float(nprng.uniform(-3, 3))
        maps.append(lambda p, vp=vp, zp=zp: heis_action_f(vp, zp, p))
    ok = all(is_isometry_numeric(m, samples=50, seed=99) for m in maps)

    one, zero = Scalar(1), Scalar(0)
    grid_atilde = [
        ((one, zero), (zero, one)),
        ((zero, Scalar(-1)), (one, zero)),
        ((one, zero), (zero, Scalar(-1))),
    ]
    grid_w = [(zero, zero), (one, zero), (one, one)]
    for eps in (1, -1):
        for a_tilde in grid_atilde:
            for w in grid_w:
                ok &= ambrose_hicks_check(isotropy_matrix(IsotropyElement(eps, a_tilde, w)))
    bad = tuple(
        tuple(Scalar(2 if i == j == 0 else (1 if i == j else 0)) for j in range(4))
        for i in range(4)
    )
    ok &= not ambrose_hicks_check(bad)
    report(5, ok, "63 maps pass the 1e-6 pullback test; isotropy family passes, diag(2,1,1,1) fails")


def test_criterion_6_normalizer_lemma():
    quarters = [PI_HALF * j for j in range(5)]
    vs = [Fraction(i, 4) for i in range(5)]
    zs = [Fraction(0), Fraction(1, 4)]
    disagreements = 0
    checked = 0
    for k in (1, 2):
        for twist in Twist:
            L = LatticeSpec(k, twist)
            gens = L.generators()
            for t in quarters:
                for vx in vs:
                    for vy in vs:
                        for z in zs:
                            h = GroupElement.of(t, (vx, vy), z)
                            oracle = all(
                                lattice_contains(L, inner_aut(h, gamma)) for gamma in gens
                            )
                            disagreements += oracle != normalizer_contains(L, h)
                            checked += 1
    report(6, disagreements == 0, f"{checked} grid points, {disagreements} disagreements")


def test_criterion_7_bi_invariance_and_curvature_algebra():
    ok = True
    for Xa in FRAME:
        for Xb in FRAME:
            for Xc in FRAME:
                ok &= (frame_inner(bracket(Xa, Xb), Xc) + frame_inner(Xb, bracket(Xa, Xc))).is_zero()
                ok &= (
                    curvature_op(Xa, Xb, Xc)
                    .add(curvature_op(Xb, Xc, Xa))
                    .add(curvature_op(Xc, Xa, Xb))
                    .is_zero()
                )
                ok &= curvature_op(Xa, Xb, Xc).add(curvature_op(Xb, Xa, Xc)).is_zero()
                for Xd in FRAME:
                    ok &= (
                        frame_inner(curvature_op(Xa, Xb, Xc), Xd)
                        + frame_inner(curvature_op(Xa, Xb, Xd), Xc)
                    ).is_zero()
    report(7, ok, "ad-skew-symmetry, Bianchi and curvature antisymmetries hold exactly")


def test_criterion_8_lattice_chain_consistency():
    rng = random.Random(17)
    ok = True
    checked = 0
    for k in (1, 2, 3):
        for _ in range(40):
            X = random_null_direction(rng)
            periods = []
            for twist in (Twist.FULL, Twist.HALF, Twist.QUARTER):
                _, verdict = classify_geodesic(LatticeSpec(k, twist), X)
                ok &= verdict.kind is VerdictKind.PERIODIC
                periods.append(verdict.minimal_T)
            full_T = periods[0]
            for finer_T in periods[1:]:
                ratio = full_T / finer_T
                ok &= ratio.is_integer()
                checked += 1
    report(8, ok, f"{checked} divisibility checks across the lattice chain, all exact")


def test_criterion_9_exp_reconciliation():
    nprng = np.random.default_rng(19)
    dirs = nprng.uniform(-2, 2, (100, 4))
    small = np.abs(dirs[:, 0]) < 0.05
    dirs[small, 0] = 0.5
    states = np.array([initial_state(IDENTITY, a) for a in dirs])
    final = rk4_states(states, 10000, 1e-4)
    closed = closed_form_batch(dirs, 1.0)
    sup = float(np.max(np.abs(final[:, :4] - closed)))
    ok = sup <= 1e-8
    # the packed vector form of exp agrees with the componentwise formulas
    packed_sup = max(
        float(np.max(np.abs(closed_form_batch(a, 1.0) - exp_map_packed_f(a)))) for a in dirs
    )
    ok &= packed_sup < 1e-12
    report(
        9,
        ok,
        f"componentwise z(1) vs RK4 sup {sup:.2e} <= 1e-8; packed form agrees to {packed_sup:.2e}",
    )
