"""Geodesics of the oscillator group: closed forms and an ODE oracle.

Because the metric is bi-invariant, geodesics through the identity are
the one-parameter subgroups, with explicit components branching on a0:

  a0 != 0:  t = a0 s
            x = (a1/a0) sin a0 s + (a2/a0) cos a0 s - a2/a0
            y = -(a1/a0) cos a0 s + (a2/a0) sin a0 s + a1/a0
            z = 1/2 [ (a1^2/a0 + a2^2/a0 + 2 a3) s
                      - ((a1^2 + a2^2)/a0^2) sin a0 s ]
  a0 == 0:  (0, a1 s, a2 s, a3 s), a straight line.

A geodesic through h is the left translate h exp(sX).  The exponential
map also has a packed vector form for the middle coordinates,
(1/a0)(R(a0)J - J)(a1, a2)^T, which agrees with the componentwise
formulas identically; both are exposed and cross-checked.

The independent oracle integrates the coordinate second-order system

  t'' = 0,  x'' = -t' y',  y'' = t' x',  z'' = 1/2 t' (x x' + y y')

with fixed-step classical RK4 (deterministic, no adaptivity).  Floats
never feed decisions; the exact layer evaluates only when a0 s is an
integer multiple of pi/2, where sin and cos are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .groups import (
    _QUARTER_TRIG,
    ExactRotationUnavailable,
    GroupElement,
    g_mul,
    g_mul_f,
)
from .metric import TangentVector, x_frame_f
from .scalar import Scalar, ScalarLike, quarter_turns

__all__ = [
    "MAX_SAMPLES",
    "InvalidStep",
    "GeodesicCurve",
    "geodesic_eval",
    "exp_map",
    "exp_map_packed_f",
    "integrate_geodesic",
    "integrate_states",
    "rk4_states",
    "initial_state",
    "closed_form_batch",
    "sample_geodesic",
    "speed_f",
    "path_to_csv",
    "path_to_json",
]

_A0_FLOAT_CUTOFF = 1e-12

# most steps one sampling or integration call may take: every sample is held
# in memory at once, so a larger request is refused instead of attempted
MAX_SAMPLES = 10**7


class InvalidStep(ValueError):
    """A sampling or integration step that is not positive and finite, or
    one that would take more than MAX_SAMPLES steps."""


@dataclass(frozen=True)
class GeodesicCurve:
    """gamma(s) = base * exp(s * direction)."""

    base: GroupElement
    direction: TangentVector


def _eval_from_identity(X: TangentVector, s: Scalar) -> GroupElement:
    a0, a1, a2, a3 = X.components
    if a0.is_zero():
        return GroupElement(Scalar(0), a1 * s, a2 * s, a3 * s)
    if a1.is_zero() and a2.is_zero():
        # every trigonometric coefficient vanishes; exact at any s
        return GroupElement(a0 * s, Scalar(0), Scalar(0), a3 * s)
    j = quarter_turns(a0 * s)
    if j is None:
        raise ExactRotationUnavailable(
            f"exact geodesic evaluation needs a0*s in (pi/2)Z, got {a0 * s}"
        )
    cos, sin = _QUARTER_TRIG[j % 4]
    # two divisions by a0 in all: (a1^2 + a2^2)/a0 = p a1 + q a2 and
    # (a1^2 + a2^2)/a0^2 = p^2 + q^2
    p, q = a1 / a0, a2 / a0
    x = p * sin + q * (cos - 1)
    y = q * sin - p * (cos - 1)
    z = ((p * a1 + q * a2 + 2 * a3) * s - (p * p + q * q) * sin) / 2
    return GroupElement(a0 * s, x, y, z)


def geodesic_eval(c: GeodesicCurve, s: ScalarLike) -> GroupElement:
    """Exact evaluation of the geodesic at parameter s."""
    return g_mul(c.base, _eval_from_identity(c.direction, Scalar.coerce(s)))


def exp_map(X: TangentVector) -> GroupElement:
    """Exact exponential map, the geodesic from the identity at s = 1."""
    return _eval_from_identity(X, Scalar(1))


# ---------------------------------------------------------------------------
# float layer
# ---------------------------------------------------------------------------

def exp_map_packed_f(a) -> np.ndarray:
    """The packed vector form of exp: middle coordinates via (R(a0)J - J)/a0."""
    a0, a1, a2, a3 = np.asarray(a, dtype=float)
    if abs(a0) < _A0_FLOAT_CUTOFF:
        return np.array([0.0, a1, a2, a3])
    c, s = math.cos(a0), math.sin(a0)
    rot = np.array([[c, -s], [s, c]])
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    v = (rot @ J - J) @ np.array([a1, a2]) / a0
    z = a3 + 0.5 * (a1 * a1 / a0 + a2 * a2 / a0) * (1.0 - s / a0)
    return np.array([a0, v[0], v[1], z])


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


def sample_geodesic(h: GroupElement, X: TangentVector, s_end: float, step: float) -> np.ndarray:
    """Closed-form samples (s, t, x, y, z) of h exp(sX) at s = i * step, i = 0..n.

    n = round(s_end / step), at least 0, so s_end <= 0 gives the single
    row at s = 0.
    """
    s = np.arange(_step_count(s_end, step) + 1) * step
    return np.column_stack([s, g_mul_f(h.to_float(), closed_form_batch(X.to_float(), s))])


# ---------------------------------------------------------------------------
# RK4 oracle for the coordinate second-order system
# ---------------------------------------------------------------------------

def _deriv(state: np.ndarray) -> np.ndarray:
    # state columns: t, x, y, z, t', x', y', z'
    d = np.empty_like(state)
    d[..., 0:4] = state[..., 4:8]
    d[..., 4] = 0.0
    d[..., 5] = -state[..., 4] * state[..., 6]
    d[..., 6] = state[..., 4] * state[..., 5]
    d[..., 7] = 0.5 * state[..., 4] * (
        state[..., 1] * state[..., 5] + state[..., 2] * state[..., 6]
    )
    return d


def rk4_states(state0: np.ndarray, n_steps: int, h: float, observer=None) -> np.ndarray:
    """Advance the first-order system n_steps of size h; returns final state.

    ``observer(i, state)`` is called after each step with the step index
    (1-based) and the current state; it lets callers accumulate running
    comparisons without storing the whole trajectory.
    """
    state = np.array(state0, dtype=float)
    for i in range(1, n_steps + 1):
        k1 = _deriv(state)
        k2 = _deriv(state + (h / 2) * k1)
        k3 = _deriv(state + (h / 2) * k2)
        k4 = _deriv(state + h * k3)
        state = state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if observer is not None:
            observer(i, state)
    return state


def initial_state(h, X) -> np.ndarray:
    """Position h plus the frame vector X pushed to coordinates at h."""
    base = h.to_float() if isinstance(h, GroupElement) else np.asarray(h, dtype=float)
    a = X.to_float() if isinstance(X, TangentVector) else np.asarray(X, dtype=float)
    state = np.empty(8)
    state[0:4] = base
    state[4:8] = x_frame_f(base) @ a
    return state


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


def integrate_states(h, X, s_end: float, step: float, every: int = 1) -> np.ndarray:
    """Sampled states (s, t, x, y, z, t', x', y', z') every ``every`` steps."""
    n = _step_count(s_end, step)
    rows = [np.concatenate(([0.0], initial_state(h, X)))]

    def observer(i, state):
        if i % every == 0 or i == n:
            rows.append(np.concatenate(([i * step], state)))

    rk4_states(rows[0][1:], n, step, observer)
    return np.vstack(rows)


def integrate_geodesic(h, X, s_end: float, step: float, every: int = 1) -> np.ndarray:
    """Sampled path (s, t, x, y, z) of the RK4-integrated geodesic."""
    return integrate_states(h, X, s_end, step, every)[:, 0:5]


def speed_f(states: np.ndarray) -> np.ndarray:
    """<gamma', gamma'> of (..., 8) states (t, x, y, z, t', x', y', z')."""
    x, y = states[..., 1], states[..., 2]
    vt, vx, vy, vz = states[..., 4], states[..., 5], states[..., 6], states[..., 7]
    # v^T G(p) v expanded from the coordinate metric
    return vx * vx + vy * vy + vt * (y * vx - x * vy) + 2 * vt * vz


# ---------------------------------------------------------------------------
# serialization of sampled paths
# ---------------------------------------------------------------------------

def path_to_csv(samples: np.ndarray, stream: IO[str], header: str = "s,t,x,y,z") -> None:
    """CSV with dot decimals, LF endings and 17 significant digits."""
    stream.write(header + "\n")
    for row in samples:
        stream.write(",".join(format(v, ".17g") for v in row) + "\n")


def path_to_json(samples: np.ndarray, stream: IO[str]) -> None:
    json.dump([[float(v) for v in row] for row in samples], stream)
