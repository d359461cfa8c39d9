"""The outer piece: the vector-valued Green-type map

    G(x) = sum_j alpha_j R_j (x - x_j)/|x - x_j|^n  +  A_0 x,

its graph x -> x + i eps G(x) as an immersion patch, and the balancing
identity at a marked point x_j0,

    G(x_j0 + rho Theta) . R_j0 Theta  integrates to
        alpha_j0 rho^{1-n} + (1/omega_n)(sum_{j != j0} gamma_j0j alpha_j
                                          - lambda_j0) rho  (exactly),

whose linear coefficient vanishes iff alpha solves Gamma alpha = Lambda
(balancing).  Each Green term is harmonic, so the Laplacian of the graph
height vanishes identically and the graph's mean curvature is carried by
the cubic nonlinearity alone.

The expansion is exact because R_j0 Theta has degree 1 and every other
degree of the harmonic field is orthogonal to it on the sphere (Dai and
Xu 2013, section 1.5).  Only the linear Taylor term of F = G minus its j0
summand meets R_j0 Theta, and the sphere's second moment is omega_n I / n,
so the linear coefficient is tr(R_j0^T DF(x_j0)) / n: balance_residual
reads it at the one point x_j0, from DF evaluated term by term (no
cancellation against the singular term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Configuration
from .geometry import ImmersionPatch, metric_inverse

__all__ = [
    "GreenData",
    "balance_residual",
    "default_outer_box",
    "graph_mean_curvature",
    "graph_patch",
    "green_eval",
    "green_gradient",
    "green_laplacian",
]

SINGULAR_CLEARANCE = 1e-12
_CHUNK_POINTS = 8192  # points per block of graph_mean_curvature; bounds its working set


@dataclass(frozen=True)
class GreenData:
    """Configuration plus the neck scales weighting the singular terms."""

    config: Configuration
    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        if alpha.shape != (self.config.k,):
            raise ValueError("alpha must have one entry per marked point")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha must be finite")


def _ends(data: GreenData, x: np.ndarray, skip: int = None):
    """(j, u = x - x_j, r = |u| on a kept axis) for every end but `skip`;
    x is (..., n).  Refuses a point within SINGULAR_CLEARANCE of an end."""
    cfg = data.config
    for j in range(cfg.k):
        if j == skip:
            continue
        u = x - cfg.points[j]
        r = np.sqrt(np.sum(u * u, axis=-1, keepdims=True))
        if np.any(r < SINGULAR_CLEARANCE):
            raise ValueError(f"evaluation point touches the singular point x_{j}")
        yield j, u, r


def green_eval(data: GreenData, x, skip: int = None) -> np.ndarray:
    """G(x), optionally omitting one end's term, for an n-vector or (..., n)
    batch x; at x_j with skip=j, the regular part (neck translation c_j)."""
    x = np.asarray(x, dtype=float)
    cfg = data.config
    out = x @ cfg.A0.T
    for j, u, r in _ends(data, x, skip):
        out = out + data.alpha[j] * (u / r**cfg.n) @ cfg.rotations[j].T
    return out


def green_gradient(data: GreenData, x, skip: int = None) -> np.ndarray:
    """Jacobian dG_i/dx_l (optionally omitting one term), shape (..., n, n);
    per end, with u = x - x_j, d(R_j u / r^n)/du = R_j / r^n - n (R_j u) u^T / r^{n+2}."""
    x = np.asarray(x, dtype=float)
    cfg = data.config
    n = cfg.n
    out = np.broadcast_to(cfg.A0, x.shape[:-1] + (n, n)).copy()
    for j, u, r in _ends(data, x, skip):
        r = r[..., None]
        Ru = u @ cfg.rotations[j].T
        out += data.alpha[j] * (cfg.rotations[j] / r**n
                                - n * Ru[..., :, None] * u[..., None, :] / r ** (n + 2))
    return out


def green_laplacian(data: GreenData, x, ginv) -> np.ndarray:
    """g^{lm} d_l d_m G_i for a symmetric (..., n, n) ginv, shape (..., n),
    with no Hessian formed: per end, with u = x - x_j and r = |u|,
        g^{lm} d_l d_m (u / r^n) = -n (2 g^{-1} u + tr(g^{-1}) u) / r^{n+2}
                                   + n (n+2) u (u^T g^{-1} u) / r^{n+4}.
    ginv = I gives the Laplacian, which vanishes (each term is harmonic)."""
    x = np.asarray(x, dtype=float)
    ginv = np.asarray(ginv, dtype=float)
    cfg = data.config
    n = cfg.n
    tr = np.trace(ginv, axis1=-2, axis2=-1)[..., None]
    out = np.zeros(np.broadcast_shapes(x.shape, tr.shape))
    for j, u, r in _ends(data, x):
        gu = (ginv @ u[..., None])[..., 0]
        q = np.sum(u * gu, axis=-1, keepdims=True)
        lap = -n * (2 * gu + tr * u) / r ** (n + 2) + n * (n + 2) * q * u / r ** (n + 4)
        out += data.alpha[j] * lap @ cfg.rotations[j].T
    return out


# ----------------------------------------------------------------------
# Balancing
# ----------------------------------------------------------------------

def balance_residual(data: GreenData) -> np.ndarray:
    """|linear coefficient| (Gamma alpha - Lambda)_j0 / omega_n of the
    expansion at every end, tr(R_j0^T DF(x_j0)) / n with F = G minus its j0
    term; all entries vanish iff alpha solves Gamma alpha = Lambda."""
    cfg = data.config
    return np.array([abs(np.sum(cfg.rotations[j0] * green_gradient(data, cfg.points[j0], skip=j0)))
                     / cfg.n for j0 in range(cfg.k)])


# ----------------------------------------------------------------------
# The graph as an immersion, with analytic curvature
# ----------------------------------------------------------------------

def default_outer_box(config: Configuration) -> float:
    """Half-width 2/rho_0 of the outer sampling box, with rho_0 the largest
    radius keeping the balls B(x_j, rho_0) disjoint and inside B(0, 1/rho_0)."""
    rho0 = 0.5 * config.min_separation
    M = float(np.max(np.linalg.norm(config.points, axis=1)))
    rho0 = min(rho0, 0.5 * (math.sqrt(M * M + 4.0) - M))
    return 2.0 / rho0


def graph_patch(data: GreenData, spacing: float) -> ImmersionPatch:
    """Sample x + i eps G(x) on a uniform box grid of step `spacing` and
    half-width default_outer_box, minus the balls of radius rho_* about the ends."""
    cfg = data.config
    n = cfg.n
    half_width = default_outer_box(cfg)
    axis = np.arange(-half_width, half_width + spacing / 2, spacing)
    samples = np.zeros((len(axis),) * n + (2 * n,))
    for i, coordinate in enumerate(np.meshgrid(*[axis] * n, indexing="ij", sparse=True)):
        samples[..., i] = coordinate
    base = samples[..., :n]
    mask = np.ones(samples.shape[:-1], dtype=bool)
    for j in range(cfg.k):
        mask &= np.linalg.norm(base - cfg.points[j], axis=-1) > cfg.rho_star
    samples[..., n:][mask] = cfg.epsilon * green_eval(data, base[mask])
    return ImmersionPatch(spacings=(spacing,) * n, samples=samples, mask=mask)


def graph_mean_curvature(data: GreenData, x) -> np.ndarray:
    """Mean-curvature vector of the graph x + i eps G(x) from the exact
    derivatives of G, shape (..., 2n), streamed in blocks of _CHUNK_POINTS.

    With J = [I; eps DG] and g = I + eps^2 DG^T DG,
        H = W - J g^{-1} J^T W,   W = (0, eps g^{lm} d_l d_m G).
    G is harmonic, so g^{lm} d_l d_m G = (g^{-1} - I)^{lm} d_l d_m G, and
    g^{-1} - I = -eps^2 g^{-1} DG^T DG (symmetric: g^{-1} commutes with
    DG^T DG) gives W_y = -eps^3 (g^{-1} DG^T DG)^{lm} d_l d_m G without the
    O(eps^2) cancellation of contracting g^{-1} itself.
    """
    x = np.asarray(x, dtype=float)
    n = data.config.n
    eps = data.config.epsilon
    flat = x.reshape(-1, n)
    out = np.empty((flat.shape[0], 2 * n))
    for start in range(0, flat.shape[0], _CHUNK_POINTS):
        xb = flat[start:start + _CHUNK_POINTS]
        DG = green_gradient(data, xb)          # (B, n, n) rows dG_i
        # columns J_l = (e_l, eps d_l G); g >= I, so every LDL^T pivot is >= 1
        J = [np.concatenate([np.broadcast_to(e, xb.shape), eps * DG[:, :, l]], axis=-1)
             for l, e in enumerate(np.eye(n))]
        ginv = np.array(metric_inverse(J)[0]).transpose(2, 0, 1)
        Wy = -eps**3 * green_laplacian(data, xb, ginv @ (DG.transpose(0, 2, 1) @ DG))
        # g^{-1} J^T W, with J^T W = eps DG^T Wy since W = (0, Wy)
        coeff = (ginv @ (eps * Wy[:, None, :] @ DG)[:, 0, :, None])[:, :, 0]
        out[start:start + len(xb), :n] = -coeff
        out[start:start + len(xb), n:] = Wy - eps * (DG @ coeff[:, :, None])[:, :, 0]
    return out.reshape(x.shape[:-1] + (2 * n,))
