"""Harmonic boundary calculus on S^{n-1} and the leading-order matching
solve, for every n >= 3.

R^n-valued boundary data Phi on the unit sphere S^{n-1} are expanded per
Cartesian component in one orthonormal basis of H_0 + ... + H_L, where H_k
holds the spherical harmonics of degree k.  Harmonic extensions multiply
degree-k coefficients by r^k inside and r^{2-n-k} outside; the
Dirichlet-to-Neumann maps are therefore diagonal,

    P_int = k,    P_ext = -(k+n-2),    P_ext - P_int = -(2k+n-2),

strictly negative for every degree when n >= 3, which witnesses the
invertibility of the matching operator.  At n = 2 the difference vanishes
on the constants, the matching operator is singular and no solve is made.

The basis follows P_k = H_k + |x|^2 P_{k-2} (Axler, Bourdon and Ramey,
Harmonic Function Theory, ch. 5): on the sphere the degree-k monomials span
H_k plus the lower harmonics of the same parity, so orthogonalizing them
against the blocks already built leaves H_k, of dimension
C(k+n-1, n-1) - C(k+n-3, n-1).  Everything is orthonormal on the product
Gauss rule with 2L+2 nodes per angle, which integrates the degree-2L
products exactly.

The leading-order matching couples, per end j0, the value gap and the
rho_* - scaled conormal gap of the outer piece against the neck piece.
Orthogonal-to-Theta parts solve

    Phi_j - tilde Phi_j = g1,    P_ext Phi_j - P_int tilde Phi_j = g2

via (P_ext - P_int) Phi_j = g2 - P_int g1.  Theta-collinear parts carry the
scale unknowns: with u_j = eps (beta_j - alpha_j) rho_*^{1-n} and
w_j = (eps/omega_n) sum_{j'!=j} gamma_jj' (alpha_j' - alpha*_j') rho_*,
the two projections give u_j + w_j = c1 and (1-n) u_j + w_j = c2 (the
conormal weights are the radial derivatives of rho^{1-n} and rho), a 2x2
system of determinant n, after which Gamma delta_alpha = (omega_n w)/(eps
rho_*) is a single dense solve.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import Configuration
from .quadrature import omega_n, product_gauss_rule

__all__ = [
    "MatchCorrection",
    "SHExpansion",
    "SphereGrid",
    "dtn_solve",
    "harmonic_extension",
    "match_boundaries",
    "p_ext",
    "p_int",
    "sh_analyze",
    "sh_synthesize",
    "split_theta",
]


class SphereGrid:
    """The product Gauss rule on S^{n-1} resolving degree L, with an
    orthonormal basis of H_0 + ... + H_L on its nodes.

    basis (N, dim) holds the basis at the nodes, degrees (dim,) the degree
    of each slot; basis_at evaluates it at any unit vectors.
    """

    def __init__(self, n: int, L: int):
        if n < 3:
            raise ValueError(f"the DtN difference -(2k+n-2) vanishes on constants at n = {n}, "
                             "so the matching operator is singular; it needs n >= 3")
        self.n, self.L = int(n), int(L)
        rule = product_gauss_rule(self.n, 2 * self.L + 2)
        self.nodes, self.weights = rule.nodes, rule.weights
        self._exponents = np.array([e for e in itertools.product(range(self.L + 1), repeat=n)
                                    if sum(e) <= self.L])
        order = self._exponents.sum(axis=1)
        root_w = np.sqrt(self.weights)[:, None]
        monomials = root_w * self._monomials(self.nodes)
        # basis = monomials @ coef; q = root_w * basis is orthonormal
        q = np.empty((len(self.nodes), 0))
        coef = np.empty((len(order), 0))
        degrees = []
        for k in range(self.L + 1):
            block = order == k
            m, c = monomials[:, block], np.eye(len(order))[:, block]
            for _ in range(2):  # twice is enough (Kahan-Parlett)
                proj = q.T @ m
                m, c = m - q @ proj, c - coef @ proj
            u, s, vt = np.linalg.svd(m, full_matrices=False)
            dim = math.comb(k + n - 1, n - 1) - math.comb(k + n - 3, n - 1)
            q = np.hstack([q, u[:, :dim]])
            coef = np.hstack([coef, c @ (vt[:dim].T / s[:dim])])
            degrees += [k] * dim
        self.basis = q / root_w
        self._coef = coef
        self.degrees = np.array(degrees)

    def _monomials(self, points) -> np.ndarray:
        powers = points[..., None] ** np.arange(self.L + 1)   # (..., n, L+1)
        out = powers[..., 0, self._exponents[:, 0]]
        for axis in range(1, self.n):
            out *= powers[..., axis, self._exponents[:, axis]]
        return out

    def basis_at(self, points) -> np.ndarray:
        """The basis at unit vectors points (..., n), shape (..., dim).

        It goes through monomial coefficients that grow with L, so it agrees
        with `basis` to ~1e-12 up to L = 12 and loses digits beyond (3e-9
        at n = 3, L = 20); analysis and the DtN maps never use it.
        """
        return self._monomials(np.asarray(points, dtype=float)) @ self._coef

    @functools.cached_property
    def theta(self) -> "SHExpansion":
        """The identity map Theta, exactly degree 1."""
        return sh_analyze(self.nodes, self)


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

    @staticmethod
    def zero(grid: SphereGrid) -> "SHExpansion":
        return SHExpansion(grid, np.zeros((grid.n, grid.degrees.size)))

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


def sh_analyze(values, grid: SphereGrid) -> SHExpansion:
    """Project R^n samples at the grid nodes (or a callable on unit vectors)
    onto the basis by quadrature; exact for band-limited inputs."""
    if callable(values):
        values = values(grid.nodes)
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise ValueError("samples must live on the analysis grid (under-resolved input?)")
    return SHExpansion(grid, (grid.weights[:, None] * values).T @ grid.basis)


def sh_synthesize(expansion: SHExpansion, points) -> np.ndarray:
    """Evaluate the expansion at unit vectors points (..., n)."""
    return expansion.grid.basis_at(points) @ expansion.coeffs.T


def p_int(expansion: SHExpansion) -> SHExpansion:
    """Radial derivative at r = 1 of the interior harmonic extension."""
    return expansion.scaled(expansion.grid.degrees.astype(float))


def p_ext(expansion: SHExpansion) -> SHExpansion:
    """Radial derivative at r = 1 of the decaying exterior harmonic extension."""
    grid = expansion.grid
    return expansion.scaled(-(grid.degrees + grid.n - 2.0))


def dtn_solve(rhs: SHExpansion) -> SHExpansion:
    """Solve (P_ext - P_int) Phi = rhs; divide degree-k slots by -(2k+n-2)."""
    grid = rhs.grid
    return rhs.scaled(-1.0 / (2.0 * grid.degrees + grid.n - 2.0))


def harmonic_extension(expansion: SHExpansion, side: str, points) -> np.ndarray:
    """Evaluate the harmonic extension at points x (..., n) of R^n.

    side "interior" uses |x|^k (|x| <= 1); "exterior" uses |x|^{2-n-k}
    (|x| >= 1), the unique extension decaying at infinity.
    """
    points = np.asarray(points, dtype=float)
    r = np.linalg.norm(points, axis=-1, keepdims=True)
    grid = expansion.grid
    if side == "interior":
        if np.any(r > 1.0 + 1e-12):
            raise ValueError("interior extension needs |x| <= 1")
        radial = r ** grid.degrees
    elif side == "exterior":
        if np.any(r < 1.0 - 1e-12):
            raise ValueError("exterior extension needs |x| >= 1")
        radial = r ** (2.0 - grid.n - grid.degrees)
    else:
        raise ValueError("side must be 'interior' or 'exterior'")
    # at the origin only the constant survives r^k; any direction serves
    direction = points / np.where(r > 0.0, r, 1.0)
    return (radial * grid.basis_at(direction)) @ expansion.coeffs.T


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
    scale updates delta_alpha = alpha - alpha* and delta_beta = beta - beta*."""

    phi: list
    phi_tilde: list
    delta_alpha: np.ndarray
    delta_beta: np.ndarray
    residual_norm: float


def match_boundaries(config: Configuration, alpha_star: np.ndarray,
                     discrepancies, gamma: np.ndarray = None) -> MatchCorrection:
    """Solve the linear skeleton of the matching equations.

    discrepancies: per end j, a pair (value_gap, conormal_gap) of
    SHExpansions; the conormal entry is already scaled by rho_*.  The
    orthogonal parts are eliminated per end through the diagonal DtN
    difference; the collinear parts yield the per-end 2x2 systems and one
    global Gamma solve (Gamma must be invertible, i.e. H2 holds; it is
    recomputed from the configuration unless supplied).  The returned
    delta_alpha/delta_beta are corrections relative to alpha_star.
    """
    from .config import gamma_matrix

    alpha_star = np.asarray(alpha_star, dtype=float)
    k = config.k
    if alpha_star.shape != (k,):
        raise ValueError("alpha_star must have one entry per end")
    if len(discrepancies) != k:
        raise ValueError("one discrepancy pair per end required")
    if gamma is None:
        gamma = gamma_matrix(config)
    eps = config.epsilon
    rho = config.rho_star
    n = config.n
    om = omega_n(n)

    phi = []
    phi_tilde = []
    u = np.empty(k)
    w = np.empty(k)
    c1o = []
    c2o = []
    for j, (value_gap, conormal_gap) in enumerate(discrepancies):
        c1, g1o = split_theta(value_gap)
        c2, g2o = split_theta(conormal_gap)
        # collinear 2x2: u + w = c1, (1-n) u + w = c2
        u[j] = (c1 - c2) / n
        w[j] = c1 - u[j]
        # orthogonal elimination
        rhs = g2o - p_int(g1o)
        pj = dtn_solve(rhs)
        phi.append(pj)
        phi_tilde.append(pj - g1o)
        c1o.append(g1o)
        c2o.append(g2o)

    delta_alpha = np.linalg.solve(gamma, om * w / (eps * rho))
    delta_beta = delta_alpha + u * rho ** (n - 1) / eps

    # post-solve residual of all four equation blocks
    resid = 0.0
    w_back = (eps / om) * (gamma @ delta_alpha) * rho
    u_back = eps * (delta_beta - delta_alpha) * rho ** (1 - n)
    for j in range(k):
        r1 = (phi[j] - phi_tilde[j] - c1o[j]).norm()
        r2 = (p_ext(phi[j]) - p_int(phi_tilde[j]) - c2o[j]).norm()
        r3 = abs(u_back[j] + w_back[j] - (u[j] + w[j]))
        r4 = abs((1 - n) * u_back[j] + w_back[j] - ((1 - n) * u[j] + w[j]))
        resid = max(resid, r1, r2, r3, r4)

    return MatchCorrection(
        phi=phi, phi_tilde=phi_tilde, delta_alpha=delta_alpha,
        delta_beta=delta_beta, residual_norm=float(resid),
    )
