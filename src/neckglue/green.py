"""The outer piece: the vector-valued Green-type map

    G(x) = sum_j alpha_j R_j (x - x_j)/|x - x_j|^n  +  A_0 x,

its graph x -> x + i eps G(x) as an immersion patch, and the numerical
verification of the expansion of G near a marked point x_j0,

    G(x_j0 + rho Theta) . R_j0 Theta  integrates to
        alpha_j0 rho^{1-n} + (1/omega_n)(sum_{j != j0} gamma_j0j alpha_j
                                          - lambda_j0) rho  (exactly),

whose linear coefficient vanishes iff alpha solves Gamma alpha = Lambda
(balancing).  Each Green term is harmonic, so the Laplacian of the graph
height vanishes identically and the graph's mean curvature is carried by
the cubic nonlinearity alone.

The probe separates the singular term exactly: G minus its j0 summand is
evaluated term by term (no cancellation), so the linear coefficient is
resolvable far below the float noise of the full field, which is that sum
plus the j0 summand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Configuration
from .geometry import ImmersionPatch, _metric_inverse
from .quadrature import QuadratureRule, omega_n, product_gauss_rule

__all__ = [
    "GreenData",
    "balance_residual",
    "expansion_probe",
    "graph_mean_curvature",
    "graph_patch",
    "green_eval",
    "green_gradient",
    "green_laplacian",
    "regular_part",
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


def _green_term(data: GreenData, j: int, x: np.ndarray) -> np.ndarray:
    """The Green term alpha_j R_j (x - x_j)/|x - x_j|^n of end j; x is (..., n)."""
    cfg = data.config
    u = x - cfg.points[j]
    r = np.linalg.norm(u, axis=-1, keepdims=True)
    if np.any(r < SINGULAR_CLEARANCE):
        raise ValueError(f"evaluation point touches the singular point x_{j}")
    return data.alpha[j] * (u / r**cfg.n) @ cfg.rotations[j].T


def _green_terms(data: GreenData, x: np.ndarray, skip: int = None) -> np.ndarray:
    """Sum of Green terms (optionally omitting one) plus A_0 x; x is (..., n)."""
    out = x @ data.config.A0.T
    for j in range(data.config.k):
        if j != skip:
            out = out + _green_term(data, j, x)
    return out


def green_eval(data: GreenData, x) -> np.ndarray:
    """G(x); x may be a single n-vector or an (..., n) batch."""
    x = np.asarray(x, dtype=float)
    return _green_terms(data, x)


def green_gradient(data: GreenData, x) -> np.ndarray:
    """Jacobian dG_i/dx_l, shape (..., n, n); per end, with u = x - x_j,
    d(R_j u / r^n)/du = R_j / r^n - n (R_j u) u^T / r^{n+2}."""
    x = np.asarray(x, dtype=float)
    cfg = data.config
    n = cfg.n
    out = np.broadcast_to(cfg.A0, x.shape[:-1] + (n, n)).copy()
    for j in range(cfg.k):
        u = x - cfg.points[j]
        r = np.sqrt(np.sum(u * u, axis=-1))[..., None, None]
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
    for j in range(cfg.k):
        u = x - cfg.points[j]
        r = np.sqrt(np.sum(u * u, axis=-1))[..., None]
        gu = (ginv @ u[..., None])[..., 0]
        q = np.sum(u * gu, axis=-1, keepdims=True)
        lap = -n * (2 * gu + tr * u) / r ** (n + 2) + n * (n + 2) * q * u / r ** (n + 4)
        out += data.alpha[j] * lap @ cfg.rotations[j].T
    return out


def regular_part(data: GreenData, j0: int) -> np.ndarray:
    """G minus its own singular term, evaluated at x_j0: the neck translation
    constant c_j0 = sum_{j != j0} alpha_j R_j (x_j0-x_j)/|x_j0-x_j|^n + A_0 x_j0."""
    return _green_terms(data, data.config.points[j0], skip=j0)


# ----------------------------------------------------------------------
# Expansion probe and balancing
# ----------------------------------------------------------------------

def _fit(design: np.ndarray, values: np.ndarray, cond_limit: float = 1e8):
    """Least squares with column equilibration and a conditioning gate."""
    scales = np.linalg.norm(design, axis=0)
    if np.any(scales == 0):
        raise ValueError("degenerate fit basis")
    A = design / scales
    cond = np.linalg.cond(A)
    if cond > cond_limit:
        raise ValueError(
            f"radii not separated enough for a stable fit (cond {cond:.3e})"
        )
    sol, *_ = np.linalg.lstsq(A, values, rcond=None)
    return sol / scales


def expansion_probe(data: GreenData, j0: int, radii, rule: QuadratureRule = None):
    """Measure the expansion of G at the end j0 over decreasing radii.

    Fits the collinear projection p(rho) = (1/omega_n) int G(x_j0+rho Theta)
    . R_j0 Theta dtheta against {rho^{1-n}, 1, rho, rho^2} for the singular
    coefficient, refits the exactly-desingularized projection against
    {1, rho, rho^2} for the linear coefficient, and recovers the constant
    vector from the sphere average of the regular field (mean-value
    property).  Returns a dict with keys singular_coeff, linear_coeff,
    constant_vec, plus the raw fitted coefficient arrays.
    """
    cfg = data.config
    n = cfg.n
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 4:
        raise ValueError("need at least four probe radii")
    others = [j for j in range(cfg.k) if j != j0]
    if others:
        dmin = min(np.linalg.norm(cfg.points[j0] - cfg.points[j]) for j in others)
        if np.max(radii) > 0.5 * dmin:
            raise ValueError("probe radii must stay below half the separation")
    if rule is None:
        rule = product_gauss_rule(n)
    om = omega_n(n)
    nodes, w = rule.nodes, rule.weights
    rtheta = nodes @ cfg.rotations[j0].T

    proj_full = np.empty(radii.size)
    proj_reg = np.empty(radii.size)
    mean_reg = np.empty((radii.size, n))
    for i, rho in enumerate(radii):
        pts = cfg.points[j0] + rho * nodes
        reg = _green_terms(data, pts, skip=j0)
        full = reg + _green_term(data, j0, pts)
        proj_full[i] = float(w @ np.sum(full * rtheta, axis=1)) / om
        proj_reg[i] = float(w @ np.sum(reg * rtheta, axis=1)) / om
        mean_reg[i] = (w[:, None] * reg).sum(axis=0) / om

    design_full = np.stack([radii ** (1 - n), np.ones_like(radii), radii, radii**2], axis=1)
    coeff_full = _fit(design_full, proj_full)
    design_reg = np.stack([np.ones_like(radii), radii, radii**2], axis=1)
    coeff_reg = _fit(design_reg, proj_reg)
    design_mean = np.stack([np.ones_like(radii), radii**2], axis=1)
    const_vec = np.stack([_fit(design_mean, mean_reg[:, c])[0] for c in range(n)])

    return {
        "singular_coeff": float(coeff_full[0]),
        "linear_coeff": float(coeff_reg[1]),
        "constant_vec": const_vec,
        "full_fit": coeff_full,
        "regular_fit": coeff_reg,
    }


def balance_residual(data: GreenData, base_radius: float = None,
                     rule: QuadratureRule = None) -> np.ndarray:
    """|linear coefficient| of the expansion at every end; all entries vanish
    (to fit accuracy) iff alpha solves Gamma alpha = Lambda."""
    cfg = data.config
    if base_radius is None:
        base_radius = min(1e-3, 0.25 * cfg.min_separation)
    radii = base_radius * 0.5 ** np.arange(4)
    out = np.empty(cfg.k)
    for j0 in range(cfg.k):
        out[j0] = abs(expansion_probe(data, j0, radii, rule=rule)["linear_coeff"])
    return out


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


def graph_patch(data: GreenData, half_width: float = None, spacing: float = None,
                exclusion: float = None) -> ImmersionPatch:
    """Sample x + i eps G(x) on a uniform box grid minus the end balls."""
    cfg = data.config
    n = cfg.n
    if half_width is None:
        half_width = default_outer_box(cfg)
    if spacing is None:
        spacing = cfg.rho_star / 4.0
    if exclusion is None:
        exclusion = cfg.rho_star
    axis = np.arange(-half_width, half_width + spacing / 2, spacing)
    samples = np.zeros((len(axis),) * n + (2 * n,))
    for i, coordinate in enumerate(np.meshgrid(*[axis] * n, indexing="ij", sparse=True)):
        samples[..., i] = coordinate
    base = samples[..., :n]
    mask = np.ones(samples.shape[:-1], dtype=bool)
    for j in range(cfg.k):
        mask &= np.linalg.norm(base - cfg.points[j], axis=-1) > exclusion
    samples[..., n:][mask] = cfg.epsilon * green_eval(data, base[mask])
    return ImmersionPatch(spacings=(spacing,) * n, samples=samples, mask=mask)


def graph_mean_curvature(data: GreenData, x) -> np.ndarray:
    """Mean-curvature vector of the graph x + i eps G(x) from the exact
    derivatives of G, shape (..., 2n), streamed in blocks of _CHUNK_POINTS.

    With J = [I; eps DG] and g = I + eps^2 DG^T DG,
        H = W - J g^{-1} J^T W,   W = (0, eps g^{lm} d_l d_m G).
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
        ginv = np.array(_metric_inverse(J)[0]).transpose(2, 0, 1)
        Wy = eps * green_laplacian(data, xb, ginv)
        # g^{-1} J^T W, with J^T W = eps DG^T Wy since W = (0, Wy)
        coeff = (ginv @ (eps * Wy[:, None, :] @ DG)[:, 0, :, None])[:, :, 0]
        out[start:start + len(xb), :n] = -coeff
        out[start:start + len(xb), n:] = Wy - eps * (DG @ coeff[:, :, None])[:, :, 0]
    return out.reshape(x.shape[:-1] + (2 * n,))
