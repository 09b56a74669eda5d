"""Reference answers written independently of oscigeo.

The benchmark checks every output against these.  They use only the
standard library and numpy, never a function of the package under test:
the closed-form geodesic and the group law are re-derived here from the
formulas of the oscillator group, and lattice membership is tested in
float with an explicit tolerance.
"""

from __future__ import annotations

import math

import numpy as np

# t-step of each twist family, in quarter turns
QUARTERS = {"full": 4, "half": 2, "quarter": 1}

# a float lattice coordinate is accepted within this distance of an integer
LATTICE_TOL = 1e-6


def t_step(twist: str) -> float:
    return QUARTERS[twist] * math.pi / 2


def closed_form(a, s: np.ndarray) -> np.ndarray:
    """exp(s X) from the identity for direction a = (a0, a1, a2, a3); rows (t, x, y, z)."""
    a0, a1, a2, a3 = (float(c) for c in a)
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape + (4,))
    if a0 == 0.0:
        out[..., 0] = 0.0
        out[..., 1] = a1 * s
        out[..., 2] = a2 * s
        out[..., 3] = a3 * s
        return out
    sn, cs = np.sin(a0 * s), np.cos(a0 * s)
    sq = a1 * a1 + a2 * a2
    out[..., 0] = a0 * s
    out[..., 1] = (a1 * sn + a2 * (cs - 1.0)) / a0
    out[..., 2] = (a2 * sn - a1 * (cs - 1.0)) / a0
    out[..., 3] = 0.5 * ((sq / a0 + 2.0 * a3) * s - sq * sn / (a0 * a0))
    return out


def group_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(t, v, z)(t', v', z') = (t + t', v + R(t) v', z + z' + cross(v, R(t) v') / 2)."""
    c, s = np.cos(p[..., 0]), np.sin(p[..., 0])
    wx = c * q[..., 1] - s * q[..., 2]
    wy = s * q[..., 1] + c * q[..., 2]
    out = np.empty(np.broadcast(p, q).shape)
    out[..., 0] = p[..., 0] + q[..., 0]
    out[..., 1] = p[..., 1] + wx
    out[..., 2] = p[..., 2] + wy
    out[..., 3] = p[..., 3] + q[..., 3] + 0.5 * (p[..., 1] * wy - p[..., 2] * wx)
    return out


def group_inv(p: np.ndarray) -> np.ndarray:
    """(t, v, z)^-1 = (-t, -R(-t) v, -z)."""
    c, s = np.cos(p[..., 0]), np.sin(p[..., 0])
    out = np.empty(p.shape)
    out[..., 0] = -p[..., 0]
    out[..., 1] = -(c * p[..., 1] + s * p[..., 2])
    out[..., 2] = -(-s * p[..., 1] + c * p[..., 2])
    out[..., 3] = -p[..., 3]
    return out


def coset_error(twist: str, k: int, g: np.ndarray, n: np.ndarray) -> float:
    """Largest distance of g^-1 n from the lattice t_step Z x Z x Z x (1/2k) Z.

    g and n lie in the same right coset g Lam exactly when this is 0; the
    test does not depend on which fundamental domain n was reduced into.
    """
    lam = group_mul(group_inv(np.asarray(g, dtype=float)), np.asarray(n, dtype=float))
    scaled = np.stack(
        [lam[..., 0] / t_step(twist), lam[..., 1], lam[..., 2], lam[..., 3] * (2 * k)], axis=-1
    )
    return float(np.max(np.abs(scaled - np.round(scaled)), initial=0.0))

