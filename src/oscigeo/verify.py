"""Named verification suites over the whole engine.

Each suite re-derives a family of identities from independent machinery
(brute-force enumeration, finite differences, the RK4 integrator, float
re-evaluation) and checks the exact layer against it.  The CLI ``verify``
command and the acceptance tests both run these; results are
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import floats, geodesics, isometries
from .floats import coset_normal_form_f, e_frame_f, g_mul_f, metric_matrix_f, x_frame_f
from .groups import (
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
    n_mul,
    normalizer_contains,
)
from .metric import (
    CausalType,
    FRAME,
    FRAME_GRAM,
    TangentVector,
    bracket,
    curvature_op,
    frame_inner,
    killing_form,
    ricci,
    ricci_from_curvature_trace,
)
from .quotients import VerdictKind, classify_geodesic, minimal_period
from .scalar import PI, PI_HALF, ZERO, Scalar, parse_scalar


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


_SPAN = 9  # random fractions are -_SPAN.._SPAN over 1.._SPAN


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-_SPAN, _SPAN), rng.randint(1, _SPAN))


def _at_pi(coeffs: list[Fraction]) -> Scalar:
    """The polynomial with these coefficients, in ascending degree, at pi (Horner)."""
    out = ZERO
    for c in reversed(coeffs):
        out = out * PI + c
    return out


def _rand_scalar(rng: random.Random, max_deg: int = 3) -> Scalar:
    while True:
        num = [_rand_fraction(rng) for _ in range(rng.randint(1, max_deg + 1))]
        den = [_rand_fraction(rng) for _ in range(rng.randint(1, max_deg + 1))]
        if any(den):
            return _at_pi(num) / _at_pi(den)


def _rand_quarter_element(rng: random.Random) -> GroupElement:
    return GroupElement.of(
        PI_HALF * rng.randint(-4, 4),
        (_rand_fraction(rng), _rand_fraction(rng)),
        _rand_fraction(rng),
    )


# ---------------------------------------------------------------------------
# scalar suite
# ---------------------------------------------------------------------------

def suite_scalar(rng: random.Random) -> SuiteResult:
    res = SuiteResult("scalar")
    one = Scalar(1)
    for _ in range(150):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        res.check((a + b) + c == a + (b + c), "addition associativity")
        res.check((a * b) * c == a * (b * c), "multiplication associativity")
        res.check(a * (b + c) == a * b + a * c, "distributivity")
        if not a.is_zero():
            res.check(a * (one / a) == one, "multiplicative inverse")
        res.check((a + b) - b == a, "canonical form is unique")
        res.check(parse_scalar(str(a)) == a, f"text round-trip of {a}")
    for _ in range(100):
        a = _rand_scalar(rng, 2)
        b = _rand_scalar(rng, 2)
        fa, fb, fab = float(a), float(b), float(a * b)
        if abs(fa) > 1e6 or abs(fb) > 1e6:
            continue
        bound = 1e-10 * max(1.0, abs(fa * fb))
        res.check(abs(fab - fa * fb) <= bound, "float view is multiplicative")
    for _ in range(60):
        step = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        s = Scalar(step * rng.randint(-8, 8))
        m = rng.randint(-5, 5)
        res.check((s / step).is_integer(), "multiples belong to their lattice")
        res.check((s * m / step).is_integer(), "integer multiples stay in lattice")
    return res


# ---------------------------------------------------------------------------
# groups suite
# ---------------------------------------------------------------------------

def suite_groups(rng: random.Random) -> SuiteResult:
    res = SuiteResult("groups")
    for _ in range(80):
        a, b, c = (_rand_quarter_element(rng) for _ in range(3))
        res.check(g_mul(g_mul(a, b), c) == g_mul(a, g_mul(b, c)), "G associativity")
        res.check(n_mul(n_mul(a, b), c) == n_mul(a, n_mul(b, c)), "N associativity")
        res.check(g_mul(a, g_inv(a)) == IDENTITY, "right inverse")
        res.check(g_mul(g_inv(a), a) == IDENTITY, "left inverse")
        flat = GroupElement(Scalar(0), a.x, a.y, a.z)
        res.check(g_mul(flat, b) == n_mul(flat, b), "G and N laws agree at t = 0")
        ff = np.abs(g_mul(a, b).to_float() - g_mul_f(a.to_float(), b.to_float()))
        res.check(float(np.max(ff)) < 1e-9, "exact vs float product")
    for L in (LatticeSpec(1, Twist.FULL), LatticeSpec(2, Twist.QUARTER)):
        for _ in range(40):
            g = _rand_quarter_element(rng)
            nf = coset_normal_form(L, g)
            res.check(coset_equal(L, nf, g), "normal form stays in the coset")
            box_ok = (
                Scalar(0) <= nf.t < L.t_step
                and Scalar(0) <= nf.x < Scalar(1)
                and Scalar(0) <= nf.y < Scalar(1)
                and Scalar(0) <= nf.z < L.z_step
            )
            res.check(box_ok, "normal form lies in the fundamental box")
            nf_f = coset_normal_form_f(L, g.to_float())
            res.check(float(np.max(np.abs(nf_f - nf.to_float()))) < 1e-9, "exact vs float normal form")
            g2 = _rand_quarter_element(rng)
            same = coset_equal(L, g, g2)
            res.check(
                same == (coset_normal_form(L, g) == coset_normal_form(L, g2)),
                "coset equality matches normal-form equality",
            )
    return res


# ---------------------------------------------------------------------------
# normalizer suite: closed form vs conjugation of generators on the grid
# ---------------------------------------------------------------------------

def _normalizer_grid():
    quarters = [PI_HALF * j for j in range(5)]
    vs = [Fraction(i, 4) for i in range(5)]
    zs = [Fraction(0), Fraction(1, 4)]
    for t in quarters:
        for vx in vs:
            for vy in vs:
                for z in zs:
                    yield GroupElement.of(t, (vx, vy), z)


def suite_normalizer(rng: random.Random) -> SuiteResult:
    res = SuiteResult("normalizer")
    for k in (1, 2):
        for twist in Twist:
            L = LatticeSpec(k, twist)
            gens = L.generators()
            for h in _normalizer_grid():
                oracle = all(
                    lattice_contains(L, isometries.inner_aut(h, gamma)) for gamma in gens
                )
                res.check(
                    normalizer_contains(L, h) == oracle,
                    f"normalizer predicate vs oracle at {h} on {L}",
                )
    return res


# ---------------------------------------------------------------------------
# metric and curvature suites
# ---------------------------------------------------------------------------

def suite_metric(rng: random.Random) -> SuiteResult:
    res = SuiteResult("metric")
    nprng = np.random.default_rng(rng.randint(0, 2**31))
    target = np.array([[float(v) for v in row] for row in FRAME_GRAM])
    points = nprng.uniform(-3, 3, (100, 4))
    G = metric_matrix_f(points)
    for frame in (x_frame_f(points), e_frame_f(points)):
        gram = np.swapaxes(frame, -1, -2) @ G @ frame
        for err in np.max(np.abs(gram - target), axis=(-2, -1)):
            res.check(float(err) < 1e-12, "coordinate metric matches the frame Gram matrix")
    for _ in range(5):
        p = nprng.uniform(-3, 3, 4)
        eigs = np.linalg.eigvalsh(metric_matrix_f(p))
        res.check(
            int(np.sum(eigs > 0)) == 3 and int(np.sum(eigs < 0)) == 1,
            "signature (3,1)",
        )
    for _ in range(100):
        X = TangentVector(*(_rand_scalar(rng, 1) for _ in range(4)))
        res.check(
            ricci(X, X) == X.a0 * X.a0 / 2,
            "Ricci quadratic form equals a0^2/2",
        )
    for i, Xi in enumerate(FRAME):
        for j, Xj in enumerate(FRAME):
            expected = Scalar(Fraction(1, 2)) if i == j == 0 else Scalar(0)
            res.check(ricci(Xi, Xj) == expected, "Ricci matrix entries")
    return res


def suite_curvature(rng: random.Random) -> SuiteResult:
    res = SuiteResult("curvature")
    for Xa in FRAME:
        for Xb in FRAME:
            for Xc in FRAME:
                skew = frame_inner(bracket(Xa, Xb), Xc) + frame_inner(Xb, bracket(Xa, Xc))
                res.check(skew.is_zero(), "ad-skew-symmetry of the metric")
                s = (
                    curvature_op(Xa, Xb, Xc)
                    .add(curvature_op(Xb, Xc, Xa))
                    .add(curvature_op(Xc, Xa, Xb))
                )
                res.check(s.is_zero(), "first Bianchi identity")
                anti = curvature_op(Xa, Xb, Xc).add(curvature_op(Xb, Xa, Xc))
                res.check(anti.is_zero(), "R(X,Y) = -R(Y,X)")
                for Xd in FRAME:
                    pair = frame_inner(curvature_op(Xa, Xb, Xc), Xd) + frame_inner(
                        curvature_op(Xa, Xb, Xd), Xc
                    )
                    res.check(pair.is_zero(), "<R(X,Y)Z,W> = -<R(X,Y)W,Z>")
    for Xa in FRAME:
        for Xb in FRAME:
            res.check(
                ricci_from_curvature_trace(Xa, Xb) == ricci(Xa, Xb),
                "curvature-trace Ricci equals Killing-form Ricci",
            )
            res.check(
                ricci(Xa, Xb) == killing_form(Xa, Xb) * Fraction(-1, 4),
                "Ricci is -B/4",
            )
    return res


# ---------------------------------------------------------------------------
# geodesics suite: closed form vs RK4, conservation, left invariance
# ---------------------------------------------------------------------------

# the geodesics suite integrates _N_DIRECTIONS random directions over
# [0, _S_END] at _STEP; the closed form must stay within _SUP_TOL of RK4 and
# the speed drift, read every 200 steps and at the end, within _DRIFT_TOL
_N_DIRECTIONS, _S_END, _STEP = 50, 10.0, 1e-4
_SUP_TOL, _DRIFT_TOL = 1e-7, 1e-8


def suite_geodesics(rng: random.Random) -> SuiteResult:
    res = SuiteResult("geodesics")
    nprng = np.random.default_rng(rng.randint(0, 2**31))
    dirs = nprng.uniform(-2, 2, (_N_DIRECTIONS, 4))
    states = floats.initial_state(IDENTITY, dirs)
    n = int(round(_S_END / _STEP))
    speed0 = floats.speed_f(states)
    sup = drift = 0.0
    i = 0  # the step of each block's row 0
    for block in floats.rk4_blocks(states, n, _STEP):
        steps = np.arange(i, i + len(block))
        cf = floats.closed_form_batch(dirs, steps[:, None] * _STEP)
        sup = max(sup, float(np.max(np.abs(block[..., :4] - cf))))
        sp = floats.speed_f(block[(steps % 200 == 0) | (steps == n)])
        rel = np.abs(sp - speed0) / np.maximum(1.0, np.abs(speed0))
        drift = max(drift, float(np.max(rel, initial=0.0)))
        i += len(block) - 1
    res.check(sup <= _SUP_TOL, f"closed form vs RK4 sup deviation {sup:.3e}")
    res.check(drift <= _DRIFT_TOL, f"speed drift {drift:.3e}")

    for _ in range(100):
        a = nprng.uniform(-2, 2, 4)
        if abs(a[0]) < 0.05:
            a[0] = float(nprng.uniform(0.1, 2))
        diff = np.max(np.abs(floats.closed_form_batch(a, 1.0) - floats.exp_map_packed_f(a)))
        res.check(float(diff) < 1e-12, "packed exp form matches componentwise form")

    for _ in range(20):
        a = nprng.uniform(-2, 2, 4)
        s, u = nprng.uniform(-2, 2, 2)
        lhs = g_mul_f(floats.closed_form_batch(a, s), floats.closed_form_batch(a, u))
        rhs = floats.closed_form_batch(a, s + u)
        res.check(float(np.max(np.abs(lhs - rhs))) < 1e-10, "one-parameter subgroup law")

    for _ in range(5):
        h = nprng.uniform(-2, 2, 4)
        a = nprng.uniform(-2, 2, 4)
        direct = floats.rk4_states(floats.initial_state(h, a), 2000, 1e-4)
        from_e = floats.rk4_states(floats.initial_state(np.zeros(4), a), 2000, 1e-4)
        diff = np.max(np.abs(direct[:4] - g_mul_f(h, from_e[:4])))
        res.check(float(diff) < 1e-12, "left invariance of the integrated geodesic")
    return res


# ---------------------------------------------------------------------------
# isometries suite
# ---------------------------------------------------------------------------

def suite_isometries(rng: random.Random) -> SuiteResult:
    res = SuiteResult("isometries")
    nprng = np.random.default_rng(rng.randint(0, 2**31))
    seed = rng.randint(0, 2**31)

    discrete = [("f1", floats.f1_f), ("f2", floats.f2_f), ("f3", floats.f3_f)]
    named = list(discrete)
    for i in range(20):
        g = nprng.uniform(-3, 3, 4)
        named.append((f"chi_{i}", lambda p, g=g: floats.chi_f(g, p)))
        h = nprng.uniform(-3, 3, 4)
        named.append((f"L_{i}", lambda p, h=h: g_mul_f(h, p)))
        vp = nprng.uniform(-3, 3, 2)
        zp = float(nprng.uniform(-3, 3))
        named.append((f"heis_{i}", lambda p, vp=vp, zp=zp: floats.heis_action_f(vp, zp, p)))
    for name, point_map in named:
        res.check(
            floats.is_isometry_numeric(point_map, seed=seed),
            f"{name} passes the numeric metric-pullback test",
        )
    res.check(
        not floats.is_isometry_numeric(lambda p: 2 * p, samples=10, seed=seed),
        "the doubling map fails the pullback test",
    )

    grid_atilde = [
        ((Scalar(1), Scalar(0)), (Scalar(0), Scalar(1))),
        ((Scalar(0), Scalar(-1)), (Scalar(1), Scalar(0))),
        ((Scalar(1), Scalar(0)), (Scalar(0), Scalar(-1))),
    ]
    grid_w = [
        (Scalar(0), Scalar(0)),
        (Scalar(1), Scalar(0)),
        (Scalar(1), Scalar(1)),
    ]
    for eps in (1, -1):
        for a_tilde in grid_atilde:
            for w in grid_w:
                A = isometries.isotropy_matrix(isometries.IsotropyElement(eps, a_tilde, w))
                res.check(isometries.ambrose_hicks_check(A), "isotropy family passes the differential test")
    bad = tuple(
        tuple(Scalar(2 if i == j == 0 else (1 if i == j else 0)) for j in range(4))
        for i in range(4)
    )
    res.check(not isometries.ambrose_hicks_check(bad), "diag(2,1,1,1) is rejected")

    for _ in range(30):
        g = _rand_quarter_element(rng)
        h = _rand_quarter_element(rng)
        x = _rand_quarter_element(rng)
        res.check(
            isometries.inner_aut(g, x) == g_mul(g, g_mul(x, g_inv(g))),
            "conjugation formula equals the product route",
        )
        # chi and f2 are a formula in one layer and a group-law composition in the other
        images = [("chi", isometries.inner_aut(g, x), floats.chi_f(g.to_float(), x.to_float()))]
        images += [(tag, isometries.discrete_isometry(tag, x), f_f(x.to_float())) for tag, f_f in discrete]
        for name, exact, approx in images:
            diff = float(np.max(np.abs(exact.to_float() - approx)))
            res.check(diff < 1e-9, f"exact {name} matches its float map at {x}")
        lhs = isometries.inner_aut(g, g_mul(h, isometries.inner_aut(g_inv(g), x)))
        rhs = g_mul(isometries.inner_aut(g, h), x)
        res.check(lhs == rhs, "chi_g L_h chi_g^-1 = L_{chi_g(h)}")

    # kernel of the conjugation homomorphism on a grid
    for t_j in range(-2, 3):
        for vx in (Fraction(0), Fraction(1, 2)):
            for z in (Fraction(0), Fraction(3, 2)):
                g = GroupElement.of(PI_HALF * t_j, (vx, 0), z)
                trivial = all(
                    isometries.inner_aut(g, x) == x
                    for x in (_rand_quarter_element(rng) for _ in range(6))
                )
                res.check(
                    trivial == isometries.inner_trivial_on_g(g),
                    f"conjugation kernel at {g}",
                )

    # the Heisenberg action, right translation by (0, v', z')^-1, matches the
    # paper's expanded formula; it descends to Lam\N, whose lattice
    # 2 pi Z x Gamma_k is the full-twist point set, and moves cosets there
    for k in (1, 2, 3):
        L = LatticeSpec(k, Twist.FULL)
        moved = False
        for _ in range(5):
            p = _rand_quarter_element(rng)
            vp, zp = (Scalar(_rand_fraction(rng)), Scalar(_rand_fraction(rng))), Scalar(_rand_fraction(rng))
            base = isometries.heis_action((vp, zp), p)
            formula = floats.heis_action_f([float(c) for c in vp], float(zp), p.to_float())
            res.check(
                float(np.max(np.abs(base.to_float() - formula))) < 1e-9,
                f"exact Heisenberg action matches floats.heis_action_f at {p}",
            )
            moved = moved or not n_coset_equal(L, base, p)
            for gamma in L.generators():
                image = isometries.heis_action((vp, zp), n_mul(gamma, p))
                res.check(n_coset_equal(L, image, base), f"Heisenberg action descends at {p} on {L}")
                res.check(
                    n_coset_normal_form(L, image) == n_coset_normal_form(L, base),
                    f"descended Heisenberg action has one normal form at {p} on {L}",
                )
        res.check(moved, f"the Heisenberg action moves some coset of {L}")
    return res


# ---------------------------------------------------------------------------
# quotients suite
# ---------------------------------------------------------------------------

def _families(ks=(1, 2, 3)):
    return [LatticeSpec(k, twist) for k in ks for twist in Twist]


def _random_null_direction(rng: random.Random, allow_line: bool = True) -> TangentVector:
    if allow_line and rng.random() < 0.1:
        a3 = _rand_fraction(rng)
        if a3 == 0:
            a3 = Fraction(1)
        return TangentVector.of(0, 0, 0, a3)
    a0 = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
    a1 = _rand_fraction(rng)
    a2 = _rand_fraction(rng)
    a3 = -(a1 * a1 + a2 * a2) / (2 * a0)
    return TangentVector.of(a0, a1, a2, a3)


# random null directions classified on each of the nine families
_NULL_PER_FAMILY = 60


def suite_quotients(rng: random.Random) -> SuiteResult:
    res = SuiteResult("quotients")
    for L in _families():
        for _ in range(_NULL_PER_FAMILY):
            X = _random_null_direction(rng)
            causal, verdict = classify_geodesic(L, X)
            res.check(causal is CausalType.NULL, "construction yields null directions")
            res.check(verdict.kind is VerdictKind.PERIODIC, f"null direction non-periodic on {L}")
            if verdict.kind is VerdictKind.PERIODIC:
                try:
                    proved, detail = minimal_period(L, X) == verdict.minimal_T, ""
                except AssertionError as exc:
                    proved, detail = False, f": {exc}"
                res.check(proved, f"periodic verdict proved minimal by exact membership{detail}")

    for _ in range(40):
        a = [
            Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1]),
            _rand_fraction(rng),
            _rand_fraction(rng),
            _rand_fraction(rng),
        ]
        X = TangentVector.of(*a)
        if X.norm_sq().is_zero():
            continue
        for L in _families(ks=(1, 2)):
            _, verdict = classify_geodesic(L, X)
            res.check(
                verdict.kind is VerdictKind.NON_CLOSED,
                "spacelike/timelike rational directions never close",
            )
            try:
                proved, detail = minimal_period(L, X) is None, ""
            except AssertionError as exc:
                proved, detail = False, f": {exc}"
            res.check(proved, f"non-closed verdict proved by its residue classes{detail}")

    # lattice chain: periods on coarser-to-finer families divide each other
    for k in (1, 2):
        for _ in range(40):
            X = _random_null_direction(rng)
            periods = []
            for twist in (Twist.FULL, Twist.HALF, Twist.QUARTER):
                _, verdict = classify_geodesic(LatticeSpec(k, twist), X)
                res.check(verdict.kind is VerdictKind.PERIODIC, "null periodic in chain")
                periods.append(verdict.minimal_T)
            for big, small in zip(periods, periods[1:]):
                ratio = big / small
                res.check(ratio.is_integer(), "finer-family period divides the coarser one")

    # closed implies periodic, with the classifier consistent
    L = LatticeSpec(1, Twist.FULL)
    for _ in range(20):
        X = _random_null_direction(rng, allow_line=False)
        _, verdict = classify_geodesic(L, X)
        abs_a0 = abs(X.a0)
        times = [L.t_step * m / abs_a0 for m in range(0, 4)]
        hits = []
        for i, s0 in enumerate(times):
            for s1 in times[i + 1:]:
                p0 = geodesics.exp_scaled(X, s0)
                p1 = geodesics.exp_scaled(X, s1)
                if coset_equal(L, p0, p1):
                    gap = s1 - s0
                    hits.append(gap)
                    res.check(
                        lattice_contains(L, geodesics.exp_scaled(X, gap)),
                        "coset return implies lattice membership of the gap",
                    )
                    ratio = gap / verdict.minimal_T
                    res.check(ratio.is_integer(), "minimal period divides every return gap")
        res.check(bool(hits), "periodic geodesics revisit cosets at step times")
    return res


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[[random.Random], SuiteResult]] = {
    "scalar": suite_scalar,
    "groups": suite_groups,
    "normalizer": suite_normalizer,
    "metric": suite_metric,
    "curvature": suite_curvature,
    "geodesics": suite_geodesics,
    "isometries": suite_isometries,
    "quotients": suite_quotients,
}


def run_suites(names: list[str] | None = None, seed: int = 0) -> list[SuiteResult]:
    selected = list(SUITES) if names is None else names
    results = []
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
        results.append(SUITES[name](random.Random(seed)))
    return results
