"""Harmonic boundary calculus on S^{n-1}, for every n >= 2, and the
leading-order matching solve, for every n >= 3.

R^n-valued boundary data Phi on the unit sphere S^{n-1} are expanded per
Cartesian component in one orthonormal basis of H_0 + ... + H_L, where H_k
holds the spherical harmonics of degree k.  Harmonic extensions multiply
degree-k coefficients by r^k inside and r^{2-n-k} outside; the
Dirichlet-to-Neumann maps are therefore diagonal,

    P_int = k,    P_ext = -(k+n-2),    P_ext - P_int = -(2k+n-2),

strictly negative for every degree when n >= 3, which witnesses the
invertibility of the matching operator.  At n = 2 the difference vanishes
on the constants, the matching operator is singular and match_boundaries
refuses to solve.

The basis is the classical separated one (Dai and Xu, Approximation Theory
and Harmonic Analysis on Spheres and Balls, 2013, sec. 1.5): a chain L >= k_1
>= ... >= k_{n-2} >= m >= 0 (cos and sin for m > 0) labels the degree-k_1
solid harmonic Re/Im (x_1 + i x_2)^m prod_j r_j^{d_j} p_{d_j}(x_{n+1-j}/r_j),
r_j = |(x_1, ..., x_{n+1-j})|, d_j = k_j - k_{j+1} (k_{n-1} = m), with p the
orthonormal Gegenbauer polynomials of parameter k_{j+1} + (n-1-j)/2 and the
circle factor over sqrt(pi), or sqrt(2 pi) at m = 0 (at n = 2 the circle
factor is the whole basis).  The recurrence runs homogeneously in
(x, r_j^2), so every factor is a polynomial.

The leading-order matching couples, per end j0, the value gap and the
rho_* - scaled conormal gap of the outer piece against the neck piece.
Orthogonal-to-Theta parts solve

    Phi_j - tilde Phi_j = g1,    P_ext Phi_j - P_int tilde Phi_j = g2

via (P_ext - P_int) Phi_j = g2 - P_int g1.  Theta-collinear parts carry the
scale unknowns.  The gap is outer minus neck, whose singular terms
eps alpha_j rho^{1-n} and eps beta_j rho^{1-n} enter it with opposite signs;
with the corrections delta = current - solved,
u_j = eps (delta_alpha_j - delta_beta_j) rho_*^{1-n} and
w_j = (eps/omega_n) sum_{j'!=j} gamma_jj' delta_alpha_j' rho_*,
the two projections give u_j + w_j = c1 and (1-n) u_j + w_j = c2 (the
conormal weights are the radial derivatives of rho^{1-n} and rho), a 2x2
system of determinant n, after which Gamma delta_alpha = (omega_n w)/(eps
rho_*) is a single dense solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import green
from .config import Configuration
from .quadrature import QuadratureRule, gegenbauer_recurrence, omega_n

__all__ = [
    "MatchCorrection",
    "SHExpansion",
    "SphereGrid",
    "dtn_solve",
    "match_boundaries",
    "p_ext",
    "p_int",
    "sh_analyze",
    "split_theta",
]


class SphereGrid:
    """An orthonormal basis of H_0 + ... + H_L on S^{n-1}, in closed form.

    degrees (dim,) holds the degree of each slot, ascending; basis_at
    evaluates the basis at any unit vectors.
    """

    def __init__(self, n: int, L: int):
        if n < 2:
            raise ValueError(f"the harmonic basis on S^{{n-1}} needs n >= 2, got n = {n}")
        self.n, self.L = int(n), int(L)
        # dims[q - 2][k] = dim H_k on S^{q-1}: cos and sin on the circle,
        # then a Gegenbauer factor times each degree k' <= k in q - 1 variables
        dims = [np.array([1] + [2] * self.L)]
        for _ in range(3, self.n + 1):
            dims.append(np.cumsum(dims[-1]))
        self._starts = [np.concatenate([[0], np.cumsum(d)]) for d in dims]
        self.degrees = np.repeat(np.arange(self.L + 1), dims[-1])

    def basis_at(self, points) -> np.ndarray:
        """The basis at unit vectors points (..., n), shape (..., dim); its
        transpose is C-contiguous for (N, n) points."""
        points = np.asarray(points, dtype=float)
        x = points.reshape(-1, self.n)
        L = self.L
        table = np.empty((2 * L + 1, len(x)))    # one row per slot
        table[0] = 1.0 / math.sqrt(2.0 * math.pi)
        power = np.full(len(x), 1.0 / math.sqrt(math.pi), dtype=complex)
        for m in range(1, L + 1):
            power = power * (x[:, 0] + 1j * x[:, 1])
            table[2 * m - 1], table[2 * m] = power.real, power.imag
        r2 = x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]
        for q in range(3, self.n + 1):
            t = x[:, q - 1]
            r2 = r2 + t * t
            below, here = self._starts[q - 3], self._starts[q - 2]
            level = np.empty((here[-1], len(x)))
            for kp in range(L + 1):   # Gegenbauer factor over each degree-k' harmonic below
                b, mass = gegenbauer_recurrence(kp + 0.5 * (q - 2), L - kp + 1)
                lower = table[below[kp]:below[kp + 1]]
                prev, p = 0.0, np.full(len(x), 1.0 / math.sqrt(mass))
                for d in range(L - kp + 1):
                    row = here[kp + d] + below[kp]
                    np.multiply(p, lower, out=level[row:row + len(lower)])
                    # x p_d = b_{d+1} p_{d+1} + b_d p_{d-1}, times r^{d+1}
                    prev, p = p, (t * p - (b[d - 1] * r2 * prev if d else 0.0)) / b[d]
            table = level
        return table.T.reshape(points.shape[:-1] + (len(table),))

    @functools.cached_property
    def theta(self) -> "SHExpansion":
        """The identity map Theta, exactly degree 1: its coefficient on a
        degree-1 slot Y is int Theta Y dtheta = (omega_n / n) grad Y."""
        coeffs = omega_n(self.n) / self.n * self.basis_at(np.eye(self.n))
        coeffs[:, self.degrees != 1] = 0.0
        return SHExpansion(self, coeffs)


@dataclass
class SHExpansion:
    """Coefficients (n, dim) of an R^n-valued sphere map in grid's basis."""

    grid: SphereGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        want = (self.grid.n, self.grid.degrees.size)
        if self.coeffs.shape != want:
            raise ValueError(f"coefficients must have shape {want}")

    def scaled(self, factors: np.ndarray) -> "SHExpansion":
        return SHExpansion(self.grid, self.coeffs * factors[None, :])

    def norm(self) -> float:
        """L^2 norm on the sphere; unlike a coefficient sup it does not
        depend on the choice of orthonormal basis inside each degree."""
        return float(np.sqrt(np.sum(self.coeffs * self.coeffs)))

    def __add__(self, other):
        return SHExpansion(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return SHExpansion(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, c):
        return SHExpansion(self.grid, self.coeffs * float(c))

    __rmul__ = __mul__


def sh_analyze(sample, grid: SphereGrid, rule: QuadratureRule) -> list:
    """Project m R^n-valued maps onto grid's basis.  `sample` takes a block of
    the rule's nodes (B, n) to their values (B, m, n); the nodes are streamed
    in blocks (of at most green._CHUNK_POINTS), with one basis evaluation per
    block.  Returns a list of m SHExpansions."""
    nodes, weights, dim = rule.nodes, rule.weights, grid.degrees.size
    # at most 1024 basis rows of _CHUNK_POINTS values (64 MB) per block
    block = max(1, min(green._CHUNK_POINTS, green._CHUNK_POINTS * 1024 // dim))
    coeffs = 0.0
    for start in range(0, len(nodes), block):
        rows = slice(start, start + block)
        part = np.asarray(sample(nodes[rows]), dtype=float)
        coeffs = coeffs + grid.basis_at(nodes[rows]).T @ (
            weights[rows, None] * part.reshape(len(part), -1))
    coeffs = np.moveaxis(coeffs.reshape((dim,) + part.shape[1:]), 0, -1)
    return [SHExpansion(grid, c) for c in coeffs]


def p_int(expansion: SHExpansion) -> SHExpansion:
    """Radial derivative at r = 1 of the interior harmonic extension."""
    return expansion.scaled(expansion.grid.degrees.astype(float))


def p_ext(expansion: SHExpansion) -> SHExpansion:
    """Radial derivative at r = 1 of the decaying exterior harmonic extension."""
    return expansion.scaled(-(expansion.grid.degrees + expansion.grid.n - 2.0))


def dtn_solve(rhs: SHExpansion) -> SHExpansion:
    """Solve (P_ext - P_int) Phi = rhs; divide degree-k slots by -(2k+n-2)."""
    return rhs.scaled(-1.0 / (2.0 * rhs.grid.degrees + rhs.grid.n - 2.0))


def split_theta(expansion: SHExpansion):
    """Split Phi into its Theta-collinear coefficient and orthogonal rest.

    Returns (c, orthogonal) with c = (1/omega_n) int Phi . Theta dtheta and
    orthogonal = Phi - c Theta, whose Theta-projection vanishes.
    """
    theta_exp = expansion.grid.theta
    # L^2 pairing of orthonormal coefficients equals the sphere integral;
    # int |Theta|^2 = omega_n is evaluated through the same coefficients so
    # the split is an exact projector in floating point
    denom = float(np.sum(theta_exp.coeffs * theta_exp.coeffs))
    c = float(np.sum(expansion.coeffs * theta_exp.coeffs)) / denom
    return c, expansion - c * theta_exp


@dataclass
class MatchCorrection:
    """Solution of the leading-order matching: per-end boundary corrections
    (outer side Phi, neck side tilde Phi, both Theta-orthogonal) plus the
    scale updates delta_alpha and delta_beta, each current - solved: the
    solved scales are alpha_star - delta_alpha and alpha_star - delta_beta."""

    phi: list
    phi_tilde: list
    delta_alpha: np.ndarray
    delta_beta: np.ndarray
    residual_norm: float


def match_boundaries(config: Configuration, alpha_star: np.ndarray,
                     discrepancies, gamma: np.ndarray) -> MatchCorrection:
    """Solve the linear skeleton of the matching equations.

    discrepancies: per end j, a pair (value_gap, conormal_gap) of
    SHExpansions; the conormal entry is already scaled by rho_*.  The
    orthogonal parts are eliminated per end through the diagonal DtN
    difference; the collinear parts yield the per-end 2x2 systems and one
    global solve with the configuration's Gamma (invertible: H2 holds).
    The surface is the one built at alpha = beta = alpha_star; the returned
    delta_alpha and delta_beta are current - solved, relative to it.
    """
    if config.n < 3:
        raise ValueError(f"the DtN difference -(2k+n-2) vanishes on constants at "
                         f"n = {config.n}, so the matching operator is singular; it needs n >= 3")
    alpha_star = np.asarray(alpha_star, dtype=float)
    k = config.k
    if alpha_star.shape != (k,):
        raise ValueError("alpha_star must have one entry per end")
    if len(discrepancies) != k:
        raise ValueError("one discrepancy pair per end required")
    eps, rho, n = config.epsilon, config.rho_star, config.n
    om = omega_n(n)

    phi, phi_tilde = [], []
    u, w = np.empty(k), np.empty(k)
    resid = 0.0   # post-solve residual of all four equation blocks
    for j, (value_gap, conormal_gap) in enumerate(discrepancies):
        c1, g1o = split_theta(value_gap)
        c2, g2o = split_theta(conormal_gap)
        # collinear 2x2: u + w = c1, (1-n) u + w = c2
        u[j] = (c1 - c2) / n
        w[j] = c1 - u[j]
        # orthogonal elimination
        pj = dtn_solve(g2o - p_int(g1o))
        phi.append(pj)
        phi_tilde.append(pj - g1o)
        resid = max(resid, (pj - phi_tilde[j] - g1o).norm(),
                    (p_ext(pj) - p_int(phi_tilde[j]) - g2o).norm())

    delta_alpha = np.linalg.solve(gamma, om * w / (eps * rho))
    delta_beta = delta_alpha - u * rho ** (n - 1) / eps
    w_back = (eps / om) * (gamma @ delta_alpha) * rho
    u_back = eps * (delta_alpha - delta_beta) * rho ** (1 - n)
    resid = max(resid, np.max(np.abs(u_back + w_back - (u + w))),
                np.max(np.abs((1 - n) * u_back + w_back - ((1 - n) * u + w))))

    return MatchCorrection(
        phi=phi, phi_tilde=phi_tilde, delta_alpha=delta_alpha,
        delta_beta=delta_beta, residual_norm=float(resid),
    )
