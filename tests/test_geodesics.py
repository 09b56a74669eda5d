import hashlib
import io
import itertools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from oscigeo.scalar import ONE, PI, PI_HALF, ZERO, Scalar
from oscigeo.groups import (
    ExactRotationUnavailable,
    GroupElement,
    IDENTITY,
    LatticeSpec,
    Twist,
    g_mul,
    rotate,
)
from oscigeo.metric import TangentVector
from oscigeo.geodesics import exp_map, exp_scaled
from oscigeo import floats
from oscigeo.floats import (
    MAX_SAMPLES,
    InvalidStep,
    _CHUNK_ROWS,
    _RK4_BLOCK,
    _step_count,
    chi_f,
    closed_form_batch,
    coset_normal_form_f,
    e_frame_f,
    exp_map_packed_f,
    f1_f,
    f2_f,
    f3_f,
    g_mul_f,
    heis_action_f,
    initial_state,
    metric_matrix_f,
    path_to_csv,
    path_to_json,
    rk4_blocks,
    rk4_states,
    speed_f,
    trace_chunks,
    x_frame_f,
)

from .builders import from_coeffs, q_pi_values


def _rk4_rows(h, X, s_end, step):
    """The rows (s, t, x, y, z) of an RK4 trace, in one array."""
    return np.concatenate(list(trace_chunks(h, X, s_end, step, rk4=True)))


def rk4_endpoint(X, s_end=1.0, step=1e-4, base=IDENTITY):
    state = initial_state(base, X)
    return rk4_states(state, int(round(s_end / step)), step)[:4]


def test_time_axis_direction():
    X = TangentVector.of(1, 0, 0, 0)
    assert exp_map(X) == GroupElement.of(1, (0, 0), 0)
    assert exp_scaled(X, Scalar(Fraction(5, 2))) == GroupElement.of(Fraction(5, 2), (0, 0), 0)
    assert np.max(np.abs(rk4_endpoint(X) - np.array([1, 0, 0, 0]))) < 1e-12


def test_full_turn_example_against_rk4():
    X = TangentVector.of(2 * PI, 1, 0, 0)
    p = exp_map(X)
    assert p == GroupElement.of(2 * PI, (0, 0), Scalar(1) / (4 * PI))
    assert np.max(np.abs(rk4_endpoint(X) - p.to_float())) < 1e-8


def test_line_branch():
    X = TangentVector.of(0, 1, 0, 1)
    assert exp_scaled(X, Scalar(2)) == GroupElement.of(0, (2, 0), 2)
    assert exp_map(TangentVector.of(0, Fraction(1, 3), -2, PI)) == GroupElement.of(
        0, (Fraction(1, 3), -2), PI
    )


def test_quarter_turn_exact_evaluation():
    X = TangentVector.of(PI_HALF, 1, 0, 0)
    p = exp_map(X)
    # sin = 1, cos = 0 at a quarter turn
    two_over_pi = Scalar(2) / PI
    assert p.t == PI_HALF and p.x == two_over_pi and p.y == two_over_pi
    assert p.z == (PI - 2) / (PI * PI)
    assert np.max(np.abs(p.to_float() - rk4_endpoint(X))) < 1e-8


def test_exact_mode_requires_quarter_product():
    X = TangentVector.of(1, 1, 0, 0)
    with pytest.raises(ExactRotationUnavailable):
        exp_scaled(X, ONE)
    # the same direction at a quarter-compatible parameter evaluates exactly
    assert exp_scaled(X, PI_HALF).t == PI_HALF


def _rand_qpi(rng):
    """A Q(pi) value of degree <= 2 in numerator and denominator."""
    num = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
    den = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
    return from_coeffs(num, den) if any(den) else from_coeffs(num)


def test_exp_scaled_matches_exp_map():
    rng = random.Random(17)
    rotating = lines = flat = 0
    for i in range(300):
        a0, a1, a2, a3 = (_rand_qpi(rng) for _ in range(4))
        branch = i % 3
        if branch == 1:
            a0 = Scalar(0)
        elif branch == 2:
            a1 = a2 = Scalar(0)
        X = TangentVector(a0, a1, a2, a3)
        if a0.is_zero() or (a1.is_zero() and a2.is_zero()):
            # no rotation enters: every s evaluates exactly
            params = (_rand_qpi(rng), Scalar(rng.randint(-3, 3)))
            lines += a0.is_zero()
            flat += not a0.is_zero()
        else:
            # a0 s = j pi/2
            params = tuple(PI_HALF * j / a0 for j in (-3, 0, 1, 2, 5))
            rotating += 1
        for s in params:
            got = exp_scaled(X, s)
            assert got == exp_map(X.scale(s)), (X, s)
        if not (a1.is_zero() and a2.is_zero()) and not a0.is_zero():
            off = PI_HALF * Fraction(1, 3) / a0
            for evaluate in (
                lambda: exp_scaled(X, off),
                lambda: exp_map(X.scale(off)),
            ):
                with pytest.raises(ExactRotationUnavailable):
                    evaluate()
    assert rotating > 50 and lines > 50 and flat > 50


def _exp_scaled_oracle(X, s):
    """The componentwise closed form, every constant rebuilt per call and the turn from rotate."""
    a0, a1, a2, a3 = X.components
    if a0.is_zero():
        return GroupElement(ZERO, a1 * s, a2 * s, a3 * s)
    if a1.is_zero() and a2.is_zero():
        return GroupElement(a0 * s, ZERO, ZERO, a3 * s)
    cos, sin = rotate(a0 * s, ONE, ZERO)
    p, q = a1 / a0, a2 / a0
    x = p * sin + q * (cos - 1)
    y = q * sin - p * (cos - 1)
    z = ((p * a1 + q * a2 + 2 * a3) * s - (p * p + q * q) * sin) / 2
    return GroupElement(a0 * s, x, y, z)


def test_exp_scaled_matches_the_componentwise_oracle():
    rng = random.Random(19)
    rotating = 0
    for i in range(300):
        a0, a1, a2, a3 = (_rand_qpi(rng) for _ in range(4))
        if i % 6 == 0:
            a1 = a2 = Scalar(0)
        if a0.is_zero():
            a0 = Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1)))
        X = TangentVector(a0, a1, a2, a3)
        for j in range(-8, 9):
            s = PI_HALF * j / a0
            assert exp_scaled(X, s) == _exp_scaled_oracle(X, s), (X, j)
        rotating += not (a1.is_zero() and a2.is_zero())
        # a0 s = pi/6, 1 and pi + 1: no quarter turn
        for s in (PI_HALF * Fraction(1, 3) / a0, Scalar(1) / a0, (PI + 1) / a0):
            if a1.is_zero() and a2.is_zero():
                assert exp_scaled(X, s) == _exp_scaled_oracle(X, s), (X, s)
                continue
            for evaluate in (exp_scaled, _exp_scaled_oracle):
                with pytest.raises(ExactRotationUnavailable):
                    evaluate(X, s)
        # the line through the same (a1, a2, a3)
        line = TangentVector(Scalar(0), a1, a2, a3)
        for s in (_rand_qpi(rng), Scalar(rng.randint(-3, 3))):
            assert exp_scaled(line, s) == _exp_scaled_oracle(line, s), (line, s)
    assert rotating >= 240


Q_PI = q_pi_values()
NONZERO_Q_PI = Q_PI.filter(lambda v: not v.is_zero())
FACTORS = st.one_of(st.sampled_from([Scalar(-3), 2 * PI, -PI / 3, 1 + PI]), NONZERO_Q_PI)


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(NONZERO_Q_PI, Q_PI, Q_PI, Q_PI, FACTORS, st.integers(-8, 8), st.booleans(), st.booleans())
def test_exp_of_a_scaled_vector_shares_the_constants(a0, a1, a2, a3, f, j, s_first, flat):
    # s with a0 s = j pi/2: s from a0, or a0 from a factor s such as 1 + pi
    if s_first and j:
        s, a0 = f, PI_HALF * j / f
    else:
        s = PI_HALF * j / a0
    if flat:
        a1 = a2 = ZERO
    X = TangentVector(a0, a1, a2, a3)
    expected = _exp_scaled_oracle(X, s)
    # X.scale(s) first computes its own constants, then, once exp_scaled has
    # computed those of X, inherits them
    assert exp_map(X.scale(s)) == expected, (X, s)
    assert exp_scaled(X, s) == expected, (X, s)
    assert exp_map(X.scale(s)) == expected, (X, s)


def test_left_translation_of_curve():
    h = GroupElement.of(PI_HALF, (1, 2), Fraction(3, 2))
    X = TangentVector.of(2, 0, 0, 1)
    s = PI  # a0*s = 2*pi: exp(sX) = (2 pi, 0, 0, pi)
    expected = GroupElement.of(5 * PI_HALF, (1, 2), Fraction(3, 2) + PI)
    assert g_mul(h, exp_scaled(X, s)) == g_mul(h, exp_map(X.scale(s))) == expected


def test_exp_one_parameter_law_float():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = rng.uniform(-2, 2, 4)
        s, u = rng.uniform(-2, 2, 2)
        lhs = g_mul_f(closed_form_batch(a, s), closed_form_batch(a, u))
        rhs = closed_form_batch(a, s + u)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_packed_exp_matches_componentwise():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.uniform(-2, 2, 4)
        if abs(a[0]) < 0.05:
            a[0] = 0.7
        assert np.max(np.abs(closed_form_batch(a, 1.0) - exp_map_packed_f(a))) < 1e-12


def test_float_layer_broadcasts_like_single_points():
    rng = np.random.default_rng(4)
    a = rng.uniform(-2, 2, (12, 4))
    a[::3, 0] = 0.0  # line directions among the rotating ones
    s = rng.uniform(-3, 3, 12)
    p = rng.uniform(-3, 3, (12, 4))
    L = LatticeSpec(2, Twist.HALF)
    rows = {
        "closed_form": (closed_form_batch(a, s), [closed_form_batch(a[i], s[i]) for i in range(12)]),
        "closed_form_scalar_s": (
            closed_form_batch(a, 0.7), [closed_form_batch(a[i], 0.7) for i in range(12)]
        ),
        "closed_form_s_grid": (closed_form_batch(a[1], s), [closed_form_batch(a[1], v) for v in s]),
        "g_mul": (g_mul_f(p, a), [g_mul_f(p[i], a[i]) for i in range(12)]),
        "g_mul_one_base": (g_mul_f(p[0], a), [g_mul_f(p[0], a[i]) for i in range(12)]),
        "coset_normal_form": (coset_normal_form_f(L, p), [coset_normal_form_f(L, q) for q in p]),
        "chi": (chi_f(p, a), [chi_f(p[i], a[i]) for i in range(12)]),
        "chi_one_g": (chi_f(p[0], a), [chi_f(p[0], a[i]) for i in range(12)]),
        "f1": (f1_f(p), [f1_f(q) for q in p]),
        "f2": (f2_f(p), [f2_f(q) for q in p]),
        "f3": (f3_f(p), [f3_f(q) for q in p]),
        "heis": (
            heis_action_f(a[:, 1:3], s, p), [heis_action_f(a[i, 1:3], s[i], p[i]) for i in range(12)]
        ),
        "heis_one_point": (
            heis_action_f(a[:, 1:3], s, p[0]),
            [heis_action_f(a[i, 1:3], s[i], p[0]) for i in range(12)],
        ),
        "exp_packed": (exp_map_packed_f(a), [exp_map_packed_f(v) for v in a]),
    }
    for name, (batch, single) in rows.items():
        assert batch.shape == (12, 4), name
        np.testing.assert_allclose(batch, np.array(single), rtol=1e-14, atol=1e-14, err_msg=name)
    matrices = {
        "metric": (metric_matrix_f(p), [metric_matrix_f(q) for q in p]),
        "x_frame": (x_frame_f(p), [x_frame_f(q) for q in p]),
        "e_frame": (e_frame_f(p), [e_frame_f(q) for q in p]),
    }
    for name, (batch, single) in matrices.items():
        assert batch.shape == (12, 4, 4), name
        np.testing.assert_allclose(batch, np.array(single), rtol=1e-14, atol=1e-14, err_msg=name)
    states = initial_state(p, a)
    assert states.shape == (12, 8)
    np.testing.assert_allclose(
        states, np.array([initial_state(p[i], a[i]) for i in range(12)]), rtol=1e-14, atol=1e-14
    )


def test_sampling_rejects_bad_step():
    X = TangentVector.of(1, 0, 0, 0)
    for s_end, step in ((1.0, 0.0), (1.0, -1e-3), (1.0, np.inf), (1.0, np.nan), (np.inf, 1e-3)):
        with pytest.raises(InvalidStep):
            trace_chunks(IDENTITY, X, s_end, step)
    assert np.concatenate(list(trace_chunks(IDENTITY, X, -1.0, 0.1))).shape == (1, 5)


def test_step_count_limit():
    # checked without allocating: a request at the limit is accepted, one past it refused
    assert _step_count(MAX_SAMPLES * 1e-3, 1e-3) == MAX_SAMPLES
    X = TangentVector.of(1, 0, 0, 0)
    for rk4 in (False, True):
        with pytest.raises(InvalidStep, match="MAX_SAMPLES"):
            trace_chunks(IDENTITY, X, (MAX_SAMPLES + 1) * 1e-3, 1e-3, rk4=rk4)


def test_integrator_rejects_bad_step():
    with pytest.raises(InvalidStep):
        trace_chunks(IDENTITY, TangentVector.of(1, 0, 0, 0), 1.0, 0.0, rk4=True)
    with pytest.raises(InvalidStep):
        trace_chunks(IDENTITY, TangentVector.of(1, 0, 0, 0), 1.0, -1e-3, rk4=True)


def test_integrator_reversal():
    a = np.array([1.3, 0.7, -0.2, 0.4])
    fwd = rk4_states(initial_state(IDENTITY, a), 5000, 1e-3)
    back = fwd.copy()
    back[4:] *= -1
    ret = rk4_states(back, 5000, 1e-3)
    assert np.max(np.abs(ret[:4])) < 1e-7


def test_rk4_one_path_kernel_matches_batch_kernel_bitwise():
    rng = np.random.default_rng(4)
    bases = rng.uniform(-2, 2, (6, 4))
    dirs = rng.uniform(-2, 2, (6, 4))
    dirs[1:3, 0] = 0.0  # line directions
    dirs[3, 0] = 1e-13  # a tiny a0
    states = initial_state(bases, dirs)
    states[2, 4] = -0.0
    for n in (0, 1, 2, 3, 1000):
        for h in (1e-3, -2.5e-3):
            batch = rk4_states(states, n, h)
            for row, expected in zip(states, batch):
                got = rk4_states(row, n, h)
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))


def _stream_rows(state, n_steps, h):
    """The states after steps 0..n_steps, joined from the blocks of rk4_blocks."""
    blocks = list(rk4_blocks(state, n_steps, h))
    return np.concatenate([blocks[0][:1], *(block[1:] for block in blocks)])


def test_rk4_one_path_blocks_match_a_batch_of_one():
    state = initial_state(np.array([0.3, -1.0, 0.5, 2.0]), np.array([1.3, 0.7, -0.2, 0.4]))
    n, h = 2 * _RK4_BLOCK + 1, 1e-3
    alone = list(rk4_blocks(state, n, h))
    batch = list(rk4_blocks(state[None, :], n, h))
    assert [len(block) for block in alone] == [len(block) for block in batch] == [_RK4_BLOCK + 1] * 2 + [2]
    assert all(block.shape[1:] == (1, 8) for block in batch)
    assert all(_same_bits(p, b[:, 0]) for p, b in zip(alone, batch))


def test_rk4_blocks_chain():
    # row 0 of the first block is the start state, of every later one the last row of the block before
    rng = np.random.default_rng(13)
    for state in (_edge_states(rng, ()), _edge_states(rng, (3,))):
        size = _RK4_BLOCK // (state.size // 8)
        blocks = list(rk4_blocks(state, 2 * size + 1, 1e-3))
        assert [block.shape for block in blocks] == [(m + 1,) + state.shape for m in (size, size, 1)]
        assert _same_bits(blocks[0][0], state)
        for before, block in zip(blocks, blocks[1:]):
            assert _same_bits(block[0], before[-1])


def test_integrate_geodesic_rows_are_the_stream_rows():
    base, a = np.array([0.3, -1.0, 0.5, 2.0]), np.array([1.3, 0.7, -0.2, 0.4])
    for n in (0, 1, _RK4_BLOCK, 2 * _RK4_BLOCK + 1):
        rows = _rk4_rows(base, a, n * 1e-3, 1e-3)
        assert _same_bits(rows[:, 0], np.arange(n + 1) * 1e-3)
        assert _same_bits(rows[:, 1:], _stream_rows(initial_state(base, a), n, 1e-3)[:, :4])


def _deriv_reference(state):
    # the numpy right-hand side of the batch kernel that rk4_states replaced
    d = np.empty_like(state)
    d[..., 0:4] = state[..., 4:8]
    d[..., 4] = 0.0
    d[..., 5] = -state[..., 4] * state[..., 6]
    d[..., 6] = state[..., 4] * state[..., 5]
    d[..., 7] = 0.5 * state[..., 4] * (state[..., 1] * state[..., 5] + state[..., 2] * state[..., 6])
    return d


def _rk4_batch_reference(state, n_steps, h):
    # the numpy step loop that rk4_states replaced: every state after steps 0..n_steps
    states = [np.array(state, dtype=float)]
    for _ in range(n_steps):
        state = states[-1]
        k1 = _deriv_reference(state)
        k2 = _deriv_reference(state + (h / 2) * k1)
        k3 = _deriv_reference(state + (h / 2) * k2)
        k4 = _deriv_reference(state + h * k3)
        states.append(state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
    return np.array(states)


def _rk4_path_reference(state, n_steps, h):
    # the scalar one-path kernel that rk4_states replaced: every state after steps 0..n_steps
    t, x, y, z, vt, vx, vy, vz = np.asarray(state, dtype=float).tolist()
    h2, h6 = h / 2, h / 6
    rows = [(t, x, y, z, vt, vx, vy, vz)]
    for i in range(n_steps):
        if i < 2:
            vt2, vt4 = vt + h2 * 0.0, vt + h * 0.0
            nvt, hvt, nvt2, hvt2, nvt4, hvt4 = -vt, 0.5 * vt, -vt2, 0.5 * vt2, -vt4, 0.5 * vt4
            dt = h6 * (vt + 2 * vt2 + 2 * vt2 + vt4)
            vt_next = vt + h6 * (0.0 + 2 * 0.0 + 2 * 0.0 + 0.0)
        a5, a6, a7 = nvt * vy, vt * vx, hvt * (x * vx + y * vy)
        x2, y2 = x + h2 * vx, y + h2 * vy
        vx2, vy2, vz2 = vx + h2 * a5, vy + h2 * a6, vz + h2 * a7
        b5, b6, b7 = nvt2 * vy2, vt2 * vx2, hvt2 * (x2 * vx2 + y2 * vy2)
        x3, y3 = x + h2 * vx2, y + h2 * vy2
        vx3, vy3, vz3 = vx + h2 * b5, vy + h2 * b6, vz + h2 * b7
        c5, c6, c7 = nvt2 * vy3, vt2 * vx3, hvt2 * (x3 * vx3 + y3 * vy3)
        x4, y4 = x + h * vx3, y + h * vy3
        vx4, vy4, vz4 = vx + h * c5, vy + h * c6, vz + h * c7
        d5, d6, d7 = nvt4 * vy4, vt4 * vx4, hvt4 * (x4 * vx4 + y4 * vy4)
        t, x, y, z = (
            t + dt,
            x + h6 * (vx + 2 * vx2 + 2 * vx3 + vx4),
            y + h6 * (vy + 2 * vy2 + 2 * vy3 + vy4),
            z + h6 * (vz + 2 * vz2 + 2 * vz3 + vz4),
        )
        vt, vx, vy, vz = (
            vt_next,
            vx + h6 * (a5 + 2 * b5 + 2 * c5 + d5),
            vy + h6 * (a6 + 2 * b6 + 2 * c6 + d6),
            vz + h6 * (a7 + 2 * b7 + 2 * c7 + d7),
        )
        rows.append((t, x, y, z, vt, vx, vy, vz))
    return np.array(rows)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _edge_states(rng, shape):
    """Raw states (*shape, 8) whose t' cycles through +0.0, -0.0, 1e-13 and a
    random value, with line directions (t' zero, x', y' not) among them and
    signed zeros in the other velocities, which only a bit-exact step 1 keeps."""
    states = rng.uniform(-2, 2, shape + (8,))
    flat = states.reshape(-1, 8)
    for k, row in enumerate(flat):
        row[4] = (0.0, -0.0, 1e-13, row[4])[k % 4]
        if k % 3 == 1:
            row[5 + k % 2] = -0.0
        if k % 5 == 2:
            row[7] = -0.0
    return states


@pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)])
def test_rk4_states_matches_the_kernels_it_replaced_bitwise(shape):
    rng = np.random.default_rng(len(shape) * 10 + sum(shape))
    paths = int(np.prod(shape))
    states = [_edge_states(rng, shape) for _ in range(4 if shape == () else 1)]
    block = _RK4_BLOCK // paths
    steps = (0, 1, 2, 3, block - 1, block, block + 1, 2 * block + 1)
    if shape == ():
        # the two old kernels agree, so the cheaper one is the oracle of one path
        assert _same_bits(_rk4_path_reference(states[1], 5, 1e-3), _rk4_batch_reference(states[1], 5, 1e-3))
    reference = _rk4_path_reference if shape == () else _rk4_batch_reference
    for state in states:
        for h in (1e-3, -2.5e-3):
            want = reference(state, steps[-1], h)
            for n in steps:
                assert _same_bits(rk4_states(state, n, h), want[n]), (n, h)
            for n in (0, 1, steps[-1]):
                assert _same_bits(_stream_rows(state, n, h), want[:n + 1]), (n, h)


def test_rk4_states_matches_the_path_kernel_on_every_pattern_of_signed_zeros():
    # step 1 turns a t' of -0.0 into 0.0 when h > 0, and the kernel keeps the
    # terms of the t' a block starts with; positions -h/2 and -h put a stage
    # position at an exact zero
    n = 3
    for h in (1e-3, -1e-3, 2.0):
        xs, vs = (0.0, -0.0, 1.0, -0.5, -h / 2, -h), (0.0, -0.0, 1.0, -0.5)
        grid = np.array(list(itertools.product(
            (0.0,), xs, xs, (0.0, -0.0, 1.0), (0.0, -0.0), vs, vs, (0.0, -0.0, 1.0, -1.0)
        )))
        for part in np.array_split(grid, 16):
            assert _RK4_BLOCK // len(part) >= n  # one block of n steps
            want = np.array([_rk4_path_reference(state, n, h)[n] for state in part])
            assert _same_bits(rk4_states(part, n, h), want), h


def test_integrate_geodesic_matches_the_path_kernel_it_replaced_bitwise():
    rng = np.random.default_rng(11)
    for base, a in ((rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)), (np.zeros(4), [0.0, 1.5, -0.5, 0.25])):
        for n in (0, 1, _RK4_BLOCK, 2 * _RK4_BLOCK + 1):
            rows = _rk4_rows(base, a, n * 1e-3, 1e-3)
            assert _same_bits(rows[:, 1:], _rk4_path_reference(initial_state(base, a), n, 1e-3)[:, :4])


def test_rk4_blocks_may_be_kept_without_copying():
    # the stream reads no block it has yielded: kept blocks stay right, and
    # a consumer that overwrites each block does not change the next
    rng = np.random.default_rng(12)
    for state in (_edge_states(rng, ()), _edge_states(rng, (3,))):
        n, h = 2 * (_RK4_BLOCK // (state.size // 8)) + 1, 1e-3
        want = _rk4_batch_reference(state, n, h)
        kept = list(rk4_blocks(state, n, h))
        assert _same_bits(np.concatenate([kept[0][:1], *(block[1:] for block in kept)]), want)
        copies = []
        for block in rk4_blocks(state, n, h):
            copies.append(block.copy())
            block.fill(np.nan)
        assert all(_same_bits(a, b) for a, b in zip(copies, kept))
        assert _same_bits(rk4_states(state, n, h), want[-1])


# sha256 of rk4_states(state, n, 1e-3) as little-endian doubles, computed with
# the kernels before the one-kernel rewrite; raw states, so that only IEEE + and
# * enter and the hashes hold on any conforming platform
RK4_PATH = np.array([0.25, -1.5, 0.75, 2.0, 1.3, 0.7, -0.2, 0.4])
RK4_BATCH = np.array([
    [0.0, 0.5, -0.25, 1.0, -0.0, -0.0, 1.25, 0.5],
    [1.0, 2.0, -1.0, 0.5, 1e-13, 0.3, -0.0, -0.6],
    [-0.5, 0.0, 0.0, 0.0, -2.0, 1.5, 0.25, 0.0],
])
RK4_HASHES = {
    ("path", 1): "aec1308cb9e1f182ce1a4ab847b22827c70eeb64a4dec9e0197e448e8122e6da",
    ("path", 1000): "aa3b63bcd8e6f7de7452efb7b6a9e2c24b4825c3720f9ff20c13a66a056bdd45",
    ("path", 5000): "298123c3ccb9bde3f074ceebfed2af0a80e44e11bbf4a6ab67eac54a25be2c15",
    ("batch", 1): "84cb16214faa079a337b6708c836f4cc73a70464e216d9057d813f30869044a6",
    ("batch", 1000): "b5bae482387359ae6aebcc438266bc4eb46e9a142be55a4f4f3b81b7371cab32",
    ("batch", 5000): "3a73c0cec4b7877becbfe5e012ee0c1f16fa95548d1d45dd8d2aa8d5067fbd82",
}


def test_rk4_bits_are_pinned():
    for (name, n), digest in RK4_HASHES.items():
        state = RK4_PATH if name == "path" else RK4_BATCH
        final = rk4_states(state, n, 1e-3).astype("<f8")
        assert hashlib.sha256(final.tobytes()).hexdigest() == digest, (name, n)


def test_speed_conservation():
    states = _stream_rows(initial_state(IDENTITY, np.array([1.0, 1.0, -0.5, 0.3])), 10000, 1e-3)
    speeds = speed_f(states[::100])
    assert np.max(np.abs(speeds - speeds[0])) / max(1.0, abs(speeds[0])) < 1e-8


def test_closed_form_vs_rk4_small_batch():
    rng = np.random.default_rng(2)
    dirs = rng.uniform(-2, 2, (10, 4))
    states = np.array([initial_state(IDENTITY, a) for a in dirs])
    n, h = 2000, 1e-3
    rows = _stream_rows(states, n, h)
    cf = closed_form_batch(dirs, np.arange(n + 1)[:, None] * h)
    assert np.max(np.abs(rows[..., :4] - cf)) < 1e-9


def test_closed_form_left_invariance_float_vs_exact():
    # float geodesic through h agrees with the exact evaluation to 1e-12
    h = GroupElement.of(PI_HALF, (Fraction(1, 3), 2), Fraction(-5, 4))
    X = TangentVector.of(2, 1, Fraction(1, 2), Fraction(-3, 4))
    for s in (PI_HALF, PI, 3 * PI_HALF):
        exact = g_mul(h, exp_scaled(X, s)).to_float()
        approx = g_mul_f(h.to_float(), closed_form_batch(X.to_float(), float(s)))
        assert np.max(np.abs(exact - approx)) < 1e-12


def test_integrated_left_invariance():
    # the RK4 path commutes with left translation up to roundoff accumulation
    rng = np.random.default_rng(3)
    for _ in range(3):
        h = rng.uniform(-2, 2, 4)
        a = rng.uniform(-2, 2, 4)
        direct = rk4_states(initial_state(h, a), 2000, 1e-4)
        from_e = rk4_states(initial_state(np.zeros(4), a), 2000, 1e-4)
        assert np.max(np.abs(direct[:4] - g_mul_f(h, from_e[:4]))) < 1e-12


def test_trace_chunks_are_the_rk4_spans():
    # B = _RK4_BLOCK steps a chunk; row 0 joins the first, so no chunk exceeds B + 1 rows
    B, h = _RK4_BLOCK, 1e-3
    X = TangentVector.of(1, 1, 0, 0)
    for n, sizes in ((0, [1]), (1, [2]), (B - 1, [B]), (B, [B + 1]), (B + 1, [B + 1, 1]),
                     (2 * B + 1, [B + 1, B, 1])):
        for flags in ({}, {"rk4": True}, {"diff": True}, {"lattice": LatticeSpec.parse("k=1,twist=full")}):
            chunks = list(trace_chunks(IDENTITY, X, n * h, h, **flags))
            assert [len(c) for c in chunks] == sizes, (n, flags)
            assert max(len(c) for c in chunks) <= B + 1
            assert np.array_equal(np.concatenate(chunks)[:, 0], np.arange(n + 1) * h)


def test_trace_chunks_refuse_before_the_first_chunk(monkeypatch):
    calls = []
    for name in ("closed_form_batch", "_rk4_block", "coset_normal_form_f"):
        monkeypatch.setattr(floats, name, lambda *args, name=name: calls.append(name))
    X, L = TangentVector.of(1, 1, 0, 0), LatticeSpec.parse("k=1,twist=full")
    with pytest.raises(InvalidStep, match="MAX_SAMPLES"):
        trace_chunks(IDENTITY, X, (MAX_SAMPLES + 1) * 1e-3, 1e-3, lattice=L, rk4=True, diff=True)
    assert calls == []


def test_integrate_geodesic_sampling_shape():
    path = _rk4_rows(IDENTITY, TangentVector.of(1, 1, 0, 0), 1.0, 0.01)[::10]
    assert path.shape[1] == 5
    assert path[0, 0] == 0.0 and abs(path[-1, 0] - 1.0) < 1e-12
    assert abs(path[-1, 1] - 1.0) < 1e-9  # t(s) = s


def test_csv_serialization_format():
    samples = np.array([[0.0, 0.1, 0.2, 0.3, 0.4], [1.0, -1.5, 2.25, 1e-17, 3.0]])
    buf = io.StringIO()
    path_to_csv([samples], buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == "s,t,x,y,z"
    assert "\r" not in text
    assert "," not in lines[1].replace(",", "", 4)  # exactly 4 separators
    row = lines[2].split(",")
    assert float(row[1]) == -1.5 and float(row[3]) == 1e-17


def test_json_serialization():
    samples = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
    buf = io.StringIO()
    path_to_json([samples], buf)
    data = json.loads(buf.getvalue())
    assert data == [[0.0, 1.0, 2.0, 3.0, 4.0]]


def _csv_per_element(samples, stream, header):
    # the one-format-call-per-value writer that path_to_csv replaced
    stream.write(header + "\n")
    for row in samples:
        stream.write(",".join(format(v, ".17g") for v in row) + "\n")


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-17, 1e300, np.inf, -np.inf, np.nan]


def test_csv_chunks_match_the_per_element_writer():
    rng = np.random.default_rng(6)
    for cols, header in ((5, "s,t,x,y,z"), (6, "s,t,x,y,z,diff")):
        for n in (1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1):
            samples = rng.standard_normal((n, cols)) * 10.0 ** rng.integers(-320, 300, (n, cols))
            flat = samples.reshape(-1)
            flat[: len(EDGE_VALUES)] = EDGE_VALUES[: flat.size]
            flat[-len(EDGE_VALUES):] = EDGE_VALUES[-flat.size:]
            expected, got = io.StringIO(), io.StringIO()
            _csv_per_element(samples, expected, header)
            path_to_csv([samples], got, header=header)
            assert got.getvalue() == expected.getvalue()


def _assert_csv_matches_percent(values, cols=5):
    """path_to_csv of the values, laid out cols to a row, against "%.17g" per value."""
    values = np.asarray(values, dtype=float).ravel()
    samples = np.concatenate([values, np.ones(-values.size % cols)]).reshape(-1, cols)
    expected, got = io.StringIO(), io.StringIO()
    _csv_per_element(samples, expected, "h")
    path_to_csv([samples], got, header="h")
    assert got.getvalue() == expected.getvalue()


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40), st.integers(1, 6))
def test_csv_matches_percent_on_raw_bit_patterns(words, cols):
    _assert_csv_matches_percent(np.array(words, dtype=np.uint64).view(np.float64), cols)


def _powers_of_ten():
    """The double nearest each 10**n and its two neighbours, both signs."""
    out = []
    for n in range(-330, 309):
        c = float(Fraction(10) ** n)
        out += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
    return out + [-v for v in out]


def _dyadic_ties():
    """(1 + odd * 2**-17) * 2**e: at e = 0 and -1 these are 18 significant
    digits ending in 5, exact ties for 17 digits."""
    return [math.ldexp(1 + odd * 2.0**-17, e) for e in range(-60, 61) for odd in range(1, 400, 2)]


def _near_ties():
    """Doubles x whose x * 10**(16 - E) lies within 2**-40 of a half integer,
    many of them within the product bound, where 10**(16 - E) is not a
    double: the fields that only the bound tells from a tie."""
    out = []
    for j in range(22, 27):  # x = m * 2**q, x * 10**-j = m * 2**(q - j) / 5**j
        P = 5**j
        for q in range(j, j + 64):
            for target in ((P - 1) // 2, (P + 1) // 2):
                m = target * pow(2, j - q, P) % P
                if m < 2**53 and 10**16 <= (m << (q - j)) // P < 10**17:
                    out.append(math.ldexp(m, q))
    for k in (23, 24):  # x = m * 2**-(s + k), x * 10**k = m * 5**k / 2**s
        for s in range(40, 60):
            M = 2**s
            for target in (M // 2 - 1, M // 2, M // 2 + 1):
                m = target * pow(5, -k, M) % M
                if 0 < m < 2**53 and 10**16 <= (m * 5**k) >> s < 10**17:
                    out.append(math.ldexp(m, -(s + k)))
    return out


EDGE_CORPUS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.5e-323, 2.2250738585072009e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1e-280, 1e280,
]


def test_csv_matches_percent_on_the_edge_corpus():
    ties = _dyadic_ties()
    exact_ties = [v for v in ties if Decimal(v).normalize().as_tuple().digits[17:] == (5,)]
    assert len(exact_ties) >= 300
    near = _near_ties()
    assert len(near) >= 40
    for corpus in (_powers_of_ten(), ties, near, EDGE_CORPUS):
        _assert_csv_matches_percent(corpus)
        _assert_csv_matches_percent(corpus, cols=1)


def _count_fallbacks(monkeypatch):
    """Patch in a spy on the % fallback; returns the list of batch sizes it saw."""
    seen = []
    percent = floats._percent_fields

    def spy(values):
        seen.append(values.size)
        return percent(values)

    monkeypatch.setattr(floats, "_percent_fields", spy)
    return seen


def test_csv_exponent_follows_rounding_and_notation_boundaries(monkeypatch):
    # the doubles nearest these powers of ten lie below them, so their 17 digits
    # carry to 10**17 and the exponent moves up by one
    exponents = (-243, -176, -79, -70, -14)
    carries = [float(Fraction(1, 10**-n)) for n in exponents]
    assert all(Fraction(v) < Fraction(1, 10**-n) for v, n in zip(carries, exponents))
    seen = _count_fallbacks(monkeypatch)
    _assert_csv_matches_percent(carries + [-v for v in carries])
    assert sum(seen) == 0  # the carries are decided by the bound, not by %
    boundary = [b * f for b in (1e-5, 1e-4, 1e16, 1e17) for f in (1.0, -1.0)]
    _assert_csv_matches_percent(boundary + [math.nextafter(v, d) for v in boundary for d in (0.0, math.inf)])
    got = io.StringIO()
    path_to_csv([np.array([[1e-14, 1e-4, 9.999999999999999e-05, 1e16, 1e17]])], got, header="h")
    assert got.getvalue() == "h\n1e-14,0.0001,9.9999999999999991e-05,10000000000000000,1e+17\n"
    # a floor next to 10**16 or 10**17 prints the same power of ten on either
    # side, so these exact doubles are decided by the bound, not by %
    seen.clear()
    powers = [sign * 10.0**n for n in (17, 18, 19, 21, 22) for sign in (1.0, -1.0)]
    _assert_csv_matches_percent(powers)
    assert sum(seen) == 0


def test_csv_fallback_alone_gives_the_same_bytes(monkeypatch):
    # a bound of 1 sends every nonzero field to %, and the bytes must not change
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((3 * _CHUNK_ROWS + 5, 5)) * 10.0 ** rng.integers(-300, 300, (1, 5))
    samples[0] = [5e-324, 1e-300, math.inf, math.nan, -1.0]
    samples[1] = [0.0, -0.0, 1.0, 0.5, 1e22]
    expected = io.StringIO()
    _csv_per_element(samples, expected, "h")
    pow10 = floats._POW10.copy()
    pow10[-1] = 1.0
    monkeypatch.setattr(floats, "_POW10", pow10)
    seen = _count_fallbacks(monkeypatch)
    got = io.StringIO()
    path_to_csv([samples], got, header="h")
    assert got.getvalue() == expected.getvalue()
    assert sum(seen) == np.count_nonzero(samples)


def test_json_of_chunks_is_the_json_of_the_whole_path():
    rng = np.random.default_rng(13)
    parts = [rng.standard_normal((n, 6)) for n in (3, 1, 4)]
    for chunks in (parts, parts[1:], parts[:1], []):
        buf = io.StringIO()
        path_to_json(chunks, buf)
        whole = np.concatenate(chunks) if chunks else np.empty((0, 6))
        assert buf.getvalue() == json.dumps(whole.tolist())


def test_json_matches_the_per_element_writer():
    samples = np.array([EDGE_VALUES[:5] + [2.5], [1.0, -1.5, 2.25, 1e-17, 0.1, -0.0]])
    buf = io.StringIO()
    path_to_json([samples], buf)
    assert buf.getvalue() == json.dumps([[float(v) for v in row] for row in samples])
