import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import numpy as np

from oscigeo.scalar import PI, Scalar
from oscigeo.metric import (
    CausalType,
    TangentVector,
    bracket,
    causal_type,
    curvature_op,
    frame_inner,
    killing_form,
    ricci,
    ricci_from_curvature_trace,
)
from oscigeo.floats import e_frame_f, metric_matrix_f, x_frame_f

from .builders import from_coeffs, q_pi_values

X0 = TangentVector.of(1, 0, 0, 0)
X1 = TangentVector.of(0, 1, 0, 0)
X2 = TangentVector.of(0, 0, 1, 0)
X3 = TangentVector.of(0, 0, 0, 1)
FRAME = (X0, X1, X2, X3)
FRAME_GRAM_F = np.array([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]], dtype=float)


def rand_vector(rng, max_deg=1):
    def s():
        return from_coeffs(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, max_deg + 1)))
        )

    return TangentVector(s(), s(), s(), s())


def test_metric_at_origin():
    # the coordinate metric's entries at these points are exact in float
    m = metric_matrix_f([0, 0, 0, 0])
    expected = [
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
    ]
    assert m.tolist() == expected


def test_metric_at_offset_point():
    m = metric_matrix_f([0, 1, 0, 0])
    assert m[0][2] == -0.5
    assert m[2][0] == -0.5
    m2 = metric_matrix_f([0, 0, 3, 0])
    assert m2[0][1] == 1.5


def test_metric_is_symmetric():
    m = metric_matrix_f([np.pi, 2 / 3, -1, 5])
    assert (m == m.T).all()


def test_frame_gram_consistency_float():
    rng = np.random.default_rng(0)
    pts = list(rng.uniform(-3, 3, (100, 4)))
    pts.append(np.array([np.pi / 3, 0.7, -0.2, 5.0]))
    for p in pts:
        G = metric_matrix_f(p)
        for frame in (x_frame_f(p), e_frame_f(p)):
            gram = frame.T @ G @ frame
            assert np.max(np.abs(gram - FRAME_GRAM_F)) < 1e-12


def test_signature():
    rng = np.random.default_rng(1)
    for _ in range(10):
        eigs = np.linalg.eigvalsh(metric_matrix_f(rng.uniform(-3, 3, 4)))
        assert np.sum(eigs > 0) == 3 and np.sum(eigs < 0) == 1


def test_causal_examples():
    assert causal_type(X1) is CausalType.SPACELIKE
    assert causal_type(TangentVector.of(1, 0, 0, -1)) is CausalType.TIMELIKE
    assert causal_type(TangentVector.of(1, 1, 0, Fraction(-1, 2))) is CausalType.NULL
    # exact decisions through irrational combinations
    assert causal_type(TangentVector.of(PI, 1, 0, Scalar(-1) / (2 * PI))) is CausalType.NULL
    assert causal_type(TangentVector.of(PI, 0, 0, Scalar(-1) / (2 * PI))) is CausalType.TIMELIKE


def test_norm_sq_formula():
    rng = random.Random(2)
    for _ in range(50):
        X = rand_vector(rng)
        assert X.norm_sq() == X.a1 * X.a1 + X.a2 * X.a2 + 2 * X.a0 * X.a3
        assert X.norm_sq() == frame_inner(X, X)


def test_bracket_structure_relations():
    assert bracket(X0, X1) == X2
    assert bracket(X0, X2) == TangentVector.of(0, -1, 0, 0)
    assert bracket(X1, X2) == X3
    for Xi in FRAME:
        assert bracket(Xi, X3).is_zero()
        assert bracket(Xi, Xi).is_zero()


def test_bracket_linearity_example():
    out = bracket(TangentVector.of(1, 1, 0, 0), X2)
    assert out == TangentVector.of(0, -1, 0, 1)


def test_bracket_antisymmetry_random():
    rng = random.Random(3)
    for _ in range(40):
        X, Y = rand_vector(rng), rand_vector(rng)
        assert bracket(X, Y).add(bracket(Y, X)).is_zero()


def test_curvature_examples():
    out = curvature_op(X0, X1, X0)
    assert out == TangentVector.of(0, Fraction(-1, 4), 0, 0)
    X = TangentVector.of(1, 2, 3, 4)
    assert curvature_op(X, X, X1).is_zero()
    for Z in FRAME:
        assert curvature_op(X1, X2, Z).is_zero()


def test_curvature_is_quarter_double_bracket():
    rng = random.Random(4)
    for _ in range(30):
        X, Y, Z = (rand_vector(rng) for _ in range(3))
        direct = bracket(bracket(X, Y), Z).scale(Fraction(-1, 4))
        assert curvature_op(X, Y, Z) == direct


def test_bianchi_and_symmetries_exact():
    for Xa in FRAME:
        for Xb in FRAME:
            for Xc in FRAME:
                total = (
                    curvature_op(Xa, Xb, Xc)
                    .add(curvature_op(Xb, Xc, Xa))
                    .add(curvature_op(Xc, Xa, Xb))
                )
                assert total.is_zero()
                assert curvature_op(Xa, Xb, Xc).add(curvature_op(Xb, Xa, Xc)).is_zero()
                for Xd in FRAME:
                    pairing = frame_inner(curvature_op(Xa, Xb, Xc), Xd) + frame_inner(
                        curvature_op(Xa, Xb, Xd), Xc
                    )
                    assert pairing.is_zero()


def test_bi_invariance_identity_exact():
    for Xa in FRAME:
        for Xb in FRAME:
            for Xc in FRAME:
                val = frame_inner(bracket(Xa, Xb), Xc) + frame_inner(Xb, bracket(Xa, Xc))
                assert val.is_zero()


def test_killing_form_values():
    assert killing_form(X0, X0) == Scalar(-2)
    for Xi in FRAME:
        assert killing_form(X3, Xi).is_zero()
    assert ricci(X0, X0) == Scalar(Fraction(1, 2))


def test_ricci_matrix_pattern():
    for i, Xi in enumerate(FRAME):
        for j, Xj in enumerate(FRAME):
            expected = Scalar(Fraction(1, 2)) if i == j == 0 else Scalar(0)
            assert ricci(Xi, Xj) == expected


def test_ricci_quadratic_form():
    rng = random.Random(5)
    for _ in range(100):
        X = rand_vector(rng)
        assert ricci(X, X) == X.a0 * X.a0 / 2


def test_ricci_trace_route_agrees():
    rng = random.Random(6)
    for _ in range(30):
        X, Y = rand_vector(rng), rand_vector(rng)
        assert ricci_from_curvature_trace(X, Y) == ricci(X, Y)


def test_trace_route_catches_curvature_sign_flip():
    # a flipped curvature sign leaves Bianchi intact but flips the trace Ricci
    total = Scalar(0)
    dual = (X3, X1, X2, X0)
    for i, Xi in enumerate(FRAME):
        wrong = bracket(bracket(Xi, X0), X0).scale(Fraction(1, 4))
        total = total + frame_inner(wrong, dual[i])
    assert total == Scalar(Fraction(-1, 2))
    assert ricci(X0, X0) == Scalar(Fraction(1, 2))


Q_PI = q_pi_values()
NONZERO_Q_PI = Q_PI.filter(lambda v: not v.is_zero())
# scale factors: negative, multiples of pi, irrational, zero, or any of the above
FACTORS = st.one_of(
    st.sampled_from([Scalar(-3), Scalar(Fraction(-1, 2)), 2 * PI, -PI / 3, 1 + PI, Scalar(0)]),
    Q_PI,
)
_SCALE_FREE = ("slopes", "zq", "rho")
KNOWN = st.sampled_from([(), ("slopes",), ("zq",), ("rho",), ("zq", "rho"), _SCALE_FREE])


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(NONZERO_Q_PI, Q_PI, Q_PI, Q_PI, FACTORS, KNOWN)
def test_scale_keeps_the_constants_a_fresh_vector_computes(a0, a1, a2, a3, f, known):
    X = TangentVector(a0, a1, a2, a3)
    for name in known:
        getattr(X, name)
    X.quarter_turn  # depends on the sign of f, so never carried
    kept = set(vars(X))
    norm_sq = X.norm_sq()  # scales by f^2, and kept nowhere
    assert set(vars(X)) == kept
    Y = X.scale(f)
    carried = {name: value for name, value in vars(Y).items() if not name.startswith("a")}
    if f.is_zero():
        assert carried == {}
        return
    # rho reads the slopes, and each constant is kept on X as read
    assert set(carried) == set(known) | ({"slopes"} if "rho" in known else set())
    fresh = TangentVector(*Y.components)
    for name, value in carried.items():
        assert value == getattr(fresh, name), (name, X, f)
    # what was not carried is computed for Y itself, to the same values as for X
    assert (Y.slopes, Y.zq, Y.rho) == (X.slopes, X.zq, X.rho)
    assert Y.norm_sq() == norm_sq * f * f == fresh.norm_sq()


def test_a_cached_constant_read_on_the_class_is_its_descriptor():
    descriptor = vars(TangentVector)["slopes"]
    assert TangentVector.slopes is descriptor and descriptor.name == "slopes"
