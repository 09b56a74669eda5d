"""The float layer: sampling, tracing and the numeric oracles.

Every function here takes numpy float arrays of points (t, x, y, z) or
directions (a0, a1, a2, a3) along the last axis, shape (..., 4), and
broadcasts over the leading axes; one point is the shape (4,).  Exact
values enter through their ``to_float()`` tuples.  Floats never feed a
decision: the exact modules import no numpy, and this module is the
float view that ``trace``, the verification suites and the tests check
them against.

Contents: the group law of G and the coset normal form, the coordinate
metric and the frames, the isometry maps and the finite-difference
isometry test, closed-form geodesics, the RK4 oracle ``rk4_blocks``, and
the trace stream ``trace_chunks``, the one place a trace path is sampled,
integrated and reduced, a chunk of rows at a time, with its CSV/JSON writers.

The RK4 oracle integrates the coordinate second-order system

  t'' = 0,  x'' = -t' y',  y'' = t' x',  z'' = 1/2 t' (x x' + y y')

with fixed-step classical RK4 (deterministic, no adaptivity).
"""

from __future__ import annotations

import itertools
import json
import math
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .groups import GroupElement, LatticeSpec
from .metric import TangentVector

_A0_FLOAT_CUTOFF = 1e-12

# most steps one trace request may take: a bound on its work, as it holds one chunk at a time
MAX_SAMPLES = 10**7

# rows per CSV write
_CHUNK_ROWS = 512


# a coordinate more lattice steps out than this keeps no float digit of its
# position within a step, so its coset reduction would be noise
MAX_REDUCED_STEPS = 2**52


class InvalidStep(ValueError):
    """A sampling or integration step that is not positive and finite, one
    that would take more than MAX_SAMPLES steps, or samples too far out
    for a float coset reduction (MAX_REDUCED_STEPS)."""


def _floats(value) -> np.ndarray:
    """A float array, or the to_float() of a GroupElement or TangentVector."""
    exact = isinstance(value, (GroupElement, TangentVector))
    return np.asarray(value.to_float() if exact else value, dtype=float)


def _stack(*columns) -> np.ndarray:
    """Columns broadcast against each other, stacked along a new last axis."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def _rotate(t, x, y):
    """R(t)(x, y), elementwise over broadcast arrays."""
    c, s = np.cos(t), np.sin(t)
    return c * x - s * y, s * x + c * y


# ---------------------------------------------------------------------------
# group law and coset normal form
# ---------------------------------------------------------------------------

def g_mul_f(p, q) -> np.ndarray:
    """Float product in G of (..., 4) arrays, broadcast against each other."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    wx, wy = _rotate(p[..., 0], q[..., 1], q[..., 2])
    return np.stack([
        p[..., 0] + q[..., 0],
        p[..., 1] + wx,
        p[..., 2] + wy,
        p[..., 3] + q[..., 3] + 0.5 * (p[..., 1] * wy - p[..., 2] * wx),
    ], axis=-1)


def g_inv_f(p) -> np.ndarray:
    """Float inverse in G, (-t, -R(-t) v, -z), of (..., 4) arrays."""
    p = np.asarray(p, dtype=float)
    wx, wy = _rotate(-p[..., 0], p[..., 1], p[..., 2])
    return np.stack([-p[..., 0], -wx, -wy, -p[..., 3]], axis=-1)


# a float within this fraction of a step below a box's upper boundary
# snaps to the lower one, so that lattice-exact inputs reduce stably
_BOX_SNAP = 1e-9


def _snap_frac(value, step: float):
    f = value / step
    f = f - np.floor(f + _BOX_SNAP)
    return np.maximum(f, 0.0) * step


def coset_normal_form_f(L: LatticeSpec, p) -> np.ndarray:
    """Float reduction of (..., 4) points to canonical coset representatives.

    Reduces t into [0, t_step), then v into R(d)[0, 1)^2 with
    d = t mod pi/2, read off in the chart w = R(-d) v, then z into
    [0, 1/2k).  R(t)Z^2 = R(d)Z^2, so the v-shift is a lattice element at
    every angle.  A coordinate beyond MAX_REDUCED_STEPS lattice steps
    raises InvalidStep.  This is the domain of the exact
    ``groups.coset_normal_form``, which answers at quarter turns, where the
    box is [0, 1)^2.
    """
    p = np.asarray(p, dtype=float)
    steps = np.array([float(L.t_step), 1.0, 1.0, float(L.z_step)])
    if np.any(np.abs(p) > MAX_REDUCED_STEPS * steps):
        raise InvalidStep(
            f"a coordinate exceeds MAX_REDUCED_STEPS = 2**52 steps of the lattice {L}, "
            "too far out for a float coset reduction"
        )
    x, y = p[..., 1], p[..., 2]
    t1 = _snap_frac(p[..., 0], steps[0])
    d = _snap_frac(t1, math.pi / 2)
    wx, wy = _rotate(-d, x, y)
    sx, sy = _rotate(d, -np.floor(wx + _BOX_SNAP), -np.floor(wy + _BOX_SNAP))
    z = _snap_frac(p[..., 3] + 0.5 * (x * sy - y * sx), steps[3])
    return np.stack([t1, x + sx, y + sy, z], axis=-1)


# ---------------------------------------------------------------------------
# coordinate metric and frames, (..., 4, 4) matrices
# ---------------------------------------------------------------------------

def _matrices(p, ones) -> np.ndarray:
    """Zero (..., 4, 4) matrices for the points p, with 1 at the (i, j) in ones."""
    m = np.zeros(np.shape(p)[:-1] + (4, 4))
    for i, j in ones:
        m[..., i, j] = 1.0
    return m


def metric_matrix_f(p) -> np.ndarray:
    """Float coordinate metric at (..., 4) points, rows/cols (dt, dx, dy, dz)."""
    p = np.asarray(p, dtype=float)
    m = _matrices(p, ((0, 3), (3, 0), (1, 1), (2, 2)))
    m[..., 0, 1] = m[..., 1, 0] = p[..., 2] / 2
    m[..., 0, 2] = m[..., 2, 0] = -p[..., 1] / 2
    return m


def x_frame_f(p) -> np.ndarray:
    """Columns are the frame fields X0..X3 of G in coordinates at (..., 4) points."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 1], p[..., 2]
    c, s = np.cos(p[..., 0]), np.sin(p[..., 0])
    m = _matrices(p, ((0, 0), (3, 3)))
    m[..., 1, 1] = m[..., 2, 2] = c
    m[..., 1, 2] = -s
    m[..., 2, 1] = s
    m[..., 3, 1] = 0.5 * (x * s - y * c)
    m[..., 3, 2] = 0.5 * (x * c + y * s)
    return m


def e_frame_f(p) -> np.ndarray:
    """Columns are the frame fields e0..e3 of N in coordinates at (..., 4) points."""
    p = np.asarray(p, dtype=float)
    m = _matrices(p, ((0, 0), (1, 1), (2, 2), (3, 3)))
    m[..., 3, 1] = -0.5 * p[..., 2]
    m[..., 3, 2] = 0.5 * p[..., 1]
    return m


# ---------------------------------------------------------------------------
# isometry maps and their numeric certification
# ---------------------------------------------------------------------------

def chi_f(g, x) -> np.ndarray:
    """Float conjugation chi_g(x) = g x g^-1 at any angles, as two products;
    g and x broadcast."""
    return g_mul_f(g_mul_f(g, x), g_inv_f(g))


def f1_f(p) -> np.ndarray:
    """f1(t, v, z) = (-t, S v, -z) with S(x, y) = (-x, y)."""
    return np.asarray(p, dtype=float) * np.array([-1.0, -1.0, 1.0, -1.0])


def f2_f(p) -> np.ndarray:
    """f2(t, v, z) = (-t, R(-t) v, -z)."""
    p = np.asarray(p, dtype=float)
    wx, wy = _rotate(-p[..., 0], p[..., 1], p[..., 2])
    return np.stack([-p[..., 0], wx, wy, -p[..., 3]], axis=-1)


def f3_f(p) -> np.ndarray:
    """f3 = f1 o f2: (t, v, z) -> (t, R(t) S v, z)."""
    return f1_f(f2_f(p))


def heis_action_f(vp, zp, p) -> np.ndarray:
    """(v', z') . (t, v, z) = (t, v - R(t)v', z - z' - v^T J R(t) v' / 2), the
    paper's formula at any angle, with v' of shape (..., 2); all three broadcast."""
    vp = np.asarray(vp, dtype=float)
    p = np.asarray(p, dtype=float)
    wx, wy = _rotate(p[..., 0], vp[..., 0], vp[..., 1])
    return _stack(
        p[..., 0],
        p[..., 1] - wx,
        p[..., 2] - wy,
        p[..., 3] - zp - 0.5 * (p[..., 1] * wy - p[..., 2] * wx),
    )


# central-difference step, the half-width of the cube points are drawn from,
# and the entrywise bound on the pulled-back metric's error
_FD_STEP = 1e-6
_SAMPLE_BOX = 2.0
_PULLBACK_TOL = 1e-6


def is_isometry_numeric(
    point_map: Callable[[np.ndarray], np.ndarray],
    samples: int = 50,
    seed: int = 0,
) -> bool:
    """Pull the metric back through a central-difference Jacobian.

    True iff J^T G(f(p)) J matches G(p) entrywise within _PULLBACK_TOL at every
    point sampled from the cube [-2, 2]^4.  point_map must broadcast over
    (..., 4): it is called once, on an array of every sample and its eight
    displaced copies.
    """
    rng = np.random.default_rng(seed)
    p = rng.uniform(-_SAMPLE_BOX, _SAMPLE_BOX, (samples, 4))
    # rows: p + h e_i, then p - h e_i for i = 0..3, then p itself
    shifts = np.concatenate([np.eye(4), -np.eye(4), np.zeros((1, 4))]) * _FD_STEP
    images = point_map(p[:, None, :] + shifts)
    jac = np.swapaxes(images[:, 0:4] - images[:, 4:8], -1, -2) / (2 * _FD_STEP)
    pulled = np.swapaxes(jac, -1, -2) @ metric_matrix_f(images[:, 8]) @ jac
    return not np.any(np.abs(pulled - metric_matrix_f(p)) > _PULLBACK_TOL)


# ---------------------------------------------------------------------------
# closed-form geodesics
# ---------------------------------------------------------------------------

def exp_map_packed_f(a) -> np.ndarray:
    """The packed form of exp at (..., 4) directions, independent of closed_form_batch.

    The middle coordinates are (R(a0)J - J)(a1, a2)^T / a0.
    """
    a = np.asarray(a, dtype=float)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    line = np.abs(a0) < _A0_FLOAT_CUTOFF
    b0 = np.where(line, 1.0, a0)
    c, s = np.cos(b0), np.sin(b0)
    rot = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    v = np.einsum("...ij,...j->...i", rot @ J - J, a[..., 1:3]) / b0[..., None]
    z = a3 + 0.5 * (a1 * a1 / b0 + a2 * a2 / b0) * (1.0 - s / b0)
    return np.stack([
        np.where(line, 0.0, a0),
        np.where(line, a1, v[..., 0]),
        np.where(line, a2, v[..., 1]),
        np.where(line, a3, z),
    ], axis=-1)


def closed_form_batch(a, s) -> np.ndarray:
    """Componentwise closed form exp(sX) from the identity, vectorized.

    a holds directions (a0, a1, a2, a3) along its last axis, shape (..., 4);
    s broadcasts against a[..., 0], and the result has the broadcast shape
    plus a last axis of 4.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    line = np.abs(a0) < _A0_FLOAT_CUTOFF
    b0 = np.where(line, 1.0, a0)
    sn, cs = np.sin(b0 * s), np.cos(b0 * s)
    sq = a1 * a1 + a2 * a2
    return np.stack([
        np.where(line, 0.0, b0 * s),
        np.where(line, a1 * s, (a1 / b0) * sn + (a2 / b0) * cs - a2 / b0),
        np.where(line, a2 * s, -(a1 / b0) * cs + (a2 / b0) * sn + a1 / b0),
        np.where(line, a3 * s, 0.5 * ((sq / b0 + 2 * a3) * s - (sq / (b0 * b0)) * sn)),
    ], axis=-1)


# ---------------------------------------------------------------------------
# RK4 oracle for the coordinate second-order system
# ---------------------------------------------------------------------------

# One kernel for a path and a batch, split by data dependence.  t'' = 0, so
# t' and every term built from t' alone are constants; a block builds them
# from the t' it starts with.  (Step 1 can turn a t' of -0.0 into 0.0, but
# the terms of -0.0 differ only in the signs of zero products that no state
# keeps; a test checks every pattern of signed zeros.)  The (x', y') update
# reads nothing but x', y' and those constants: the one recurrence that runs
# step by step, on floats for a path or on arrays for a batch.  The rest is
# vectorized over the block's steps: stage values from the velocity sequence,
# and x, y, then z', then z and t as a start value plus increments known by
# then, summed by np.add.accumulate strictly in order, fl(fl(start + inc_0) +
# inc_1) ..., not pairwise as np.sum; so every path has the classical bits.

# steps x paths per block: about 1 MB of working arrays, with the fixed cost of
# a block's ~40 numpy calls a few percent of the cost of its steps
_RK4_BLOCK = 4096


def _accumulate(column: np.ndarray, increments) -> np.ndarray:
    """column[i + 1] = column[i] + increments[i] in step order, in place; returns column[:-1]."""
    column[1:] = increments
    np.add.accumulate(column, axis=0, out=column)
    return column[:-1]


def _rk4_block(block: np.ndarray, h: float) -> None:
    """Fill rows 1..m of a (m + 1, ..., 8) block with RK4 steps from its row 0, the terms
    of t' held; each stage is the expression of k1 + 2 k2 + 2 k3 + k4 per column, in order."""
    start = block[0]
    vt, vx, vy = (start[..., k].item() if start.ndim == 1 else start[..., k] for k in (4, 5, 6))
    h2, h6 = h / 2, h / 6
    vt2, vt4 = vt + h2 * 0.0, vt + h * 0.0
    nvt, nvt2, nvt4 = -vt, -vt2, -vt4
    xs, ys = [vx], [vy]
    x_append, y_append = xs.append, ys.append
    # each one-use stage is nested where it is read, with every operation kept in
    # its order, so the bits do not change; 2.0 * b, unlike 2 * b, stays on
    # CPython's float * float fast path and is exactly the same product
    for _ in range(len(block) - 1):
        a5, a6 = nvt * vy, vt * vx
        b5, b6 = nvt2 * (vy + h2 * a6), vt2 * (vx + h2 * a5)
        c5, c6 = nvt2 * (vy + h2 * b6), vt2 * (vx + h2 * b5)
        vx, vy = (
            vx + h6 * (a5 + 2.0 * b5 + 2.0 * c5 + nvt4 * (vy + h * c6)),
            vy + h6 * (a6 + 2.0 * b6 + 2.0 * c6 + vt4 * (vx + h * c5)),
        )
        x_append(vx)
        y_append(vy)
    block[..., 5], block[..., 6] = np.array(xs, dtype=float), np.array(ys, dtype=float)
    vx, vy = block[:-1, ..., 5], block[:-1, ..., 6]
    a5, a6 = nvt * vy, vt * vx
    vx2, vy2 = vx + h2 * a5, vy + h2 * a6
    b5, b6 = nvt2 * vy2, vt2 * vx2
    vx3, vy3 = vx + h2 * b5, vy + h2 * b6
    c5, c6 = nvt2 * vy3, vt2 * vx3
    vx4, vy4 = vx + h * c5, vy + h * c6
    x = _accumulate(block[..., 1], h6 * (vx + 2 * vx2 + 2 * vx3 + vx4))
    y = _accumulate(block[..., 2], h6 * (vy + 2 * vy2 + 2 * vy3 + vy4))
    a7 = 0.5 * vt * (x * vx + y * vy)
    x2, y2 = x + h2 * vx, y + h2 * vy
    b7 = 0.5 * vt2 * (x2 * vx2 + y2 * vy2)
    x3, y3 = x + h2 * vx2, y + h2 * vy2
    c7 = 0.5 * vt2 * (x3 * vx3 + y3 * vy3)
    x4, y4 = x + h * vx3, y + h * vy3
    d7 = 0.5 * vt4 * (x4 * vx4 + y4 * vy4)
    vz = _accumulate(block[..., 7], h6 * (a7 + 2 * b7 + 2 * c7 + d7))
    _accumulate(block[..., 3], h6 * (vz + 2 * (vz + h2 * a7) + 2 * (vz + h2 * b7) + (vz + h * c7)))
    _accumulate(block[..., 0], h6 * (vt + 2 * vt2 + 2 * vt2 + vt4))
    block[1:, ..., 4] = vt + h6 * 0.0


def _rk4_spans(paths: int, n_steps: int) -> list[tuple[int, int]]:
    """(i, m) per block of steps i + 1..i + m: m * paths <= _RK4_BLOCK, or m = 1; n_steps = 0 is (0, 0)."""
    size = max(1, _RK4_BLOCK // max(1, paths))
    return [(i, min(size, n_steps - i)) for i in range(0, max(n_steps, 1), size)]


def rk4_blocks(state0: np.ndarray, n_steps: int, h: float) -> Iterator[np.ndarray]:
    """The (m + 1, ..., 8) RK4 blocks of one state (8,) or a batch (..., 8), per _rk4_spans (i, m).

    Row j of a block is the state after step i + j, so row 0 is state0 or the
    last row of the block before.  Each block is a fresh array that the stream
    does not touch again.  A path gets the same bits alone and in any batch.
    """
    state = np.asarray(state0, dtype=float)
    for _, m in _rk4_spans(state.size // 8, n_steps):
        block = np.empty((m + 1,) + state.shape)
        block[0] = state
        _rk4_block(block, float(h))
        state = block[-1].copy()
        yield block


def rk4_states(state0: np.ndarray, n_steps: int, h: float) -> np.ndarray:
    """Advance one state (8,) or a batch (..., 8) n_steps of size h; returns the final state."""
    for block in rk4_blocks(state0, n_steps, h):
        pass
    return block[-1].copy()


def initial_state(h, X) -> np.ndarray:
    """States (..., 8): positions h plus the frame vectors X pushed to coordinates at h.

    h and X are (..., 4) arrays, or a GroupElement and a TangentVector.
    """
    base, a = _floats(h), _floats(X)
    velocity = np.einsum("...ij,...j->...i", x_frame_f(base), a)
    return np.concatenate([np.broadcast_to(base, velocity.shape), velocity], axis=-1)


def speed_f(states: np.ndarray) -> np.ndarray:
    """<gamma', gamma'> of (..., 8) states (t, x, y, z, t', x', y', z')."""
    x, y = states[..., 1], states[..., 2]
    vt, vx, vy, vz = states[..., 4], states[..., 5], states[..., 6], states[..., 7]
    # v^T G(p) v expanded from the coordinate metric
    return vx * vx + vy * vy + vt * (y * vx - x * vy) + 2 * vt * vz


# ---------------------------------------------------------------------------
# the trace stream and its CSV/JSON serialization
# ---------------------------------------------------------------------------

def _step_count(s_end: float, step: float) -> int:
    if not 0 < step < math.inf:
        raise InvalidStep(f"step must be positive and finite, got {step}")
    ratio = s_end / step
    if not math.isfinite(ratio):
        raise InvalidStep(f"s_end / step must be finite, got {s_end} / {step}")
    n = max(int(round(ratio)), 0)
    if n > MAX_SAMPLES:
        raise InvalidStep(
            f"s_end / step asks for {n} steps, above the limit MAX_SAMPLES = {MAX_SAMPLES}"
        )
    return n


def trace_chunks(h, X, s_end: float, step: float, lattice: LatticeSpec | None = None,
                 rk4: bool = False, diff: bool = False) -> Iterator[np.ndarray]:
    """Rows (s, t, x, y, z[, diff]) of h exp(sX) at s = i * step, i = 0..round(s_end / step).

    A chunk is one RK4 span (_rk4_spans), the first with row 0 too.  It takes
    the closed form if written or diffed, the rows of the span's rk4_blocks
    block if rk4 or diff, diff, the sup distance of the unreduced paths,
    and the written path (RK4 if rk4) reduced to coset normal forms of lattice.
    The first chunk is computed before this returns, so a request refused
    within it (InvalidStep) raises here, a later chunk when it is reached.
    """
    n = _step_count(s_end, step)
    base, a = _floats(h), _floats(X)
    blocks = rk4_blocks(initial_state(base, a), n, step) if rk4 or diff else None

    # a path that leaves the float range goes on as inf and nan, with no warning per kernel line
    @np.errstate(over="ignore", invalid="ignore")
    def chunk(i: int, m: int) -> np.ndarray:
        lo = 1 if i else 0  # row i, the last chunk's end, is not repeated
        s = np.arange(i + lo, i + m + 1) * step
        if diff or not rk4:
            closed = g_mul_f(base, closed_form_batch(a, s))
        if rk4 or diff:
            integrated = next(blocks)[lo:, :4]
        path = integrated if rk4 else closed
        if lattice is not None:
            path = coset_normal_form_f(lattice, path)
        columns = [s, path, np.abs(closed - integrated).max(axis=1)] if diff else [s, path]
        return np.column_stack(columns)

    spans = _rk4_spans(1, n)
    return itertools.chain([chunk(*spans[0])], itertools.starmap(chunk, spans[1:]))


# %.17g on whole chunks of floats.  %.17g writes x as 17 digits D and an
# exponent E, x ~ D * 10**(E - 16) rounded half to even; inside this band of
# |x| every product and split below stays normal and finite.
_FAST_BAND = (1e-280, 1e280)
_E_MAX = 283  # tables cover |E| <= _E_MAX: the band's E and a log10 estimate one off

# The digits come from X = |x| * 10**(16 - E) as a double-double p + t:
# 10**k is the table pair hi + lo (hi = fl(10**k), lo = fl(10**k - hi)),
# p + e = |x| * hi is exact (Dekker's product of Veltkamp halves) and
# t = fl(e + fl(|x| * lo)).  The three roundings in that are each at most
# 2**-106 * X (table and |x| * lo) and 2**-105 * X (the sum), so
# |p + t - X| <= 2**-104 * X < 2**-47 for the X < 10**17 + 1 that is kept.
# A field whose fraction lies within _PRODUCT_ERR = 2**-46 of 1/2 goes to
# Python's own %.17g instead; so every byte is either proven or comes from
# %.  A floor that could lie on the other side of 10**16 or 10**17 needs
# no fallback, as the error stays below 2**-47: an X that close to 10**16
# prints 10**16 at E on either side, since below it the exponent is E - 1
# and the digits 10 X > 10**17 - 1/2 round up and carry to 10**16 at E;
# an X that close to 10**17 prints 10**16 at E + 1 on either side, since
# below it the digits round up to 10**17 and carry, and above it the
# exponent is E + 1 and the digits X / 10 round down to 10**16.
# Where 10**k is a double (0 <= k <= 22) lo = 0, the product is exact,
# its bound is 0 and an exact tie rounds half-even as dtoa does.
_PRODUCT_ERR = 2.0**-46
_SPLITTER = 2.0**27 + 1


def _veltkamp(a):
    """Halves (high, low) of a with high + low == a, each of at most 26 bits."""
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


def _pow10_table() -> np.ndarray:
    """Rows hi, hi's two Veltkamp halves, lo and the product bound for
    10**(16 - E), E = _E_MAX down to -_E_MAX; int / int rounds correctly."""
    hi, lo = [], []
    for k in range(16 - _E_MAX, 17 + _E_MAX):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    return np.stack([hi, *_veltkamp(hi), lo, np.where(lo == 0.0, 0.0, _PRODUCT_ERR)])


_POW10 = _pow10_table()


def _scaled(a, E):
    """Floor F, fraction and product bound of a * 10**(16 - E), elementwise."""
    row = _E_MAX - E
    hi, hh, hl, lo, err = (_POW10[i].take(row) for i in range(5))
    p = a * hi
    ah, al = _veltkamp(a)
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    t = e + a * lo
    ft = np.floor(t)
    # p is an integer once X >= 2**53; a smaller X gives F < 10**16 and falls out
    return p.astype(np.int64) + ft.astype(np.int64), t - ft, err


# Each field is first laid out in a row of _FIELD_WIDTH bytes, then the
# bytes its layout keeps are compacted out of the chunk in one pass.  Row
# bytes: 1 "-" before "0.000" at 2..6 (fixed notation, E < 0); 7 "-" before
# the digits; 8..24 the 17 digits; 27 "." before the same digits again at
# 28..44 (the fraction of fixed notation, the mantissa tail of exponent
# notation); 45 the separator of fixed notation; 48.. "e+dd" or "e+ddd"
# and the separator.  A fallback field is its text at 0..23 and the separator.
_FIELD_WIDTH = 56
_DIGITS4 = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
_E_ROW = np.arange(-_E_MAX, _E_MAX + 1)
_EXPONENT = np.frombuffer(
    b"".join((b"e%+03d" % e + sep).ljust(8, b"\0") for e in _E_ROW for sep in (b",", b"\n")), np.uint8
).reshape(-1, 8)
# significant digits left when the 17 lose their trailing zeros: 17 if the
# last is not 0, else the most that any of the four 4-digit groups gives
# (0 for an all-zero group; the value 0 keeps one digit)
_SIG_DIGITS = np.where(_DIGITS4 != ord("0"), np.arange(1, 5), 0).max(axis=1)
_SIG_DIGITS = np.where(_SIG_DIGITS > 0, np.arange(0, 16, 4)[:, None] + _SIG_DIGITS, 0).astype(np.int8)
_SIG_DIGITS[0, 0] = 1
# notation class of an exponent: E + 4 for fixed notation (-4 <= E < 17),
# 21 for a two-digit exponent, 22 for a three-digit one; 23 classes in all
_NOTATION = np.where((_E_ROW >= -4) & (_E_ROW <= 16), _E_ROW + 4, np.where(abs(_E_ROW) < 100, 21, 22))
_KEYS_PER_SIGN = 23 * 17


def _field_layouts() -> np.ndarray:
    """Kept bytes per (sign, notation, significant digits), then per fallback length 1..24."""
    rows = []
    for negative in (False, True):
        for notation in range(23):
            for digits in range(1, 18):
                keep = np.zeros(_FIELD_WIDTH, bool)
                E = notation - 4
                if notation > 20:
                    keep[7], keep[8] = negative, True
                    if digits > 1:
                        keep[27], keep[29:28 + digits] = True, True
                    keep[48:48 + (5 if notation == 21 else 6)] = True
                    rows.append(keep)
                    continue
                keep[45] = True
                if E < 0:
                    keep[1], keep[2:3 - E] = negative, True
                    keep[8:8 + digits] = True
                else:
                    keep[7], keep[8:9 + E] = negative, True
                    if digits > E + 1:
                        keep[27], keep[29 + E:28 + digits] = True, True
                rows.append(keep)
    for length in range(1, 25):
        keep = np.zeros(_FIELD_WIDTH, bool)
        keep[:length], keep[45] = True, True
        rows.append(keep)
    return np.array(rows)


_LAYOUTS = _field_layouts()
_ROW_START = np.frombuffer(b"\0-0.000-", np.uint8)


def _percent_fields(values: np.ndarray) -> np.ndarray:
    """Python's own "%.17g" of each value, as 24-byte strings: the fallback."""
    return np.array(["%.17g" % v for v in values.tolist()], dtype="S24")


def _format_fields(x: np.ndarray, seps: np.ndarray) -> bytes:
    """``b"".join(b"%.17g%c" % (v, s) for v, s in zip(x, seps))`` for a 1-D float64 x."""
    n = x.size
    a = np.abs(x)
    fast = (a >= _FAST_BAND[0]) & (a <= _FAST_BAND[1])
    a = np.where(fast, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    F, frac, err = _scaled(a, E)
    # the exponent follows the floor: log10 can be one off next to a power of ten
    low, high = F < 10**16, F >= 10**17
    off = np.flatnonzero(low | high)
    if off.size:
        E[off] += high[off].astype(np.int64) - low[off]
        F[off], frac[off], err[off] = _scaled(a[off], E[off])
    plain = fast & ~((F < 10**16) | (F >= 10**17) | (np.abs(frac - 0.5) < err))
    fallback = ~plain & (x != 0.0)
    D = F + ((frac > 0.5) | ((frac == 0.5) & (F & 1 == 1)))
    # a carry to 10**17 is the next exponent; it also moves the notation at 1e-4 and 1e17
    carry = D == 10**17
    D[carry] = 10**16
    E += carry
    D[~plain] = 0
    E[~plain] = 0
    groups = [D // 10**13, D // 10**9 % 10**4, D // 10**5 % 10**4, D // 10 % 10**4]
    rows = np.empty((n, _FIELD_WIDTH), np.uint8)
    rows.view("V8")[:, 0] = _ROW_START.view("V8")[0]
    rows[:, 27] = ord(".")
    quads, digits = rows.view("V4"), _DIGITS4.view("V4")[:, 0]
    last = D % 10
    sig = (last != 0) * np.int8(17)
    for j, q in enumerate(groups):
        quads[:, 2 + j] = quads[:, 7 + j] = digits.take(q)
        np.maximum(sig, _SIG_DIGITS[j].take(q), out=sig)
    rows[:, 24] = rows[:, 44] = last + ord("0")
    row = E + _E_MAX
    rows.view("V8")[:, 6] = _EXPONENT.view("V8")[:, 0].take(2 * row + (seps == ord("\n")))
    rows[:, 45] = seps
    key = np.signbit(x) * _KEYS_PER_SIGN + _NOTATION.take(row) * 17 + sig - 1
    where = np.flatnonzero(fallback)
    if where.size:
        text = _percent_fields(x[where])
        rows[where, :24] = text.view(np.uint8).reshape(-1, 24)
        key[where] = 2 * _KEYS_PER_SIGN - 1 + np.char.str_len(text)
    return rows[_LAYOUTS.take(key, axis=0)].tobytes()


def path_to_csv(chunks: Iterable[np.ndarray], stream: IO[str], header: str = "s,t,x,y,z") -> None:
    """CSV of the rows of float chunks in turn: dot decimals, LF endings, 17 significant digits.

    Every field is the text of ``"%.17g" % v``, byte for byte.  Rows go out
    _CHUNK_ROWS at a time, and a piece is formatted by numpy in a fixed
    number of array passes: the 17 digits come from |v| * 10**(16 - E) as
    a double-double with a proven error bound (_PRODUCT_ERR), rounded half
    to even, and fixed or exponent notation, the sign and the stripped
    trailing zeros follow %g; zeros are written directly.  A field the
    bound cannot decide (its fraction within the bound of 1/2), one outside
    _FAST_BAND, and inf and nan are formatted by Python's own ``%``
    instead, so the output is the same as a per-value ``%`` writer's.
    """
    stream.write(header + "\n")
    for rows in chunks:
        seps = np.tile(np.array([ord(",")] * (rows.shape[1] - 1) + [ord("\n")], np.uint8), _CHUNK_ROWS)
        for start in range(0, len(rows), _CHUNK_ROWS):
            piece = rows[start:start + _CHUNK_ROWS].ravel()
            stream.write(_format_fields(piece, seps[:piece.size]).decode("ascii"))


def path_to_json(chunks: Iterable[np.ndarray], stream: IO[str]) -> None:
    """The rows of nonempty float chunks as one JSON array, the bytes of json.dump of them all."""
    stream.write("[")
    for k, chunk in enumerate(chunks):
        stream.write((", " if k else "") + json.dumps(chunk.tolist())[1:-1])
    stream.write("]")
