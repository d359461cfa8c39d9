"""Quadrature on S^{n-1}.

One rule family, for every n >= 2: product Gauss in hyperspherical angles.
Each polar angle theta_j is Gauss-Gegenbauer in cos(theta_j) with parameter
(n-2-j)/2, whose weight (1 - x^2)^{(n-3-j)/2} is the area factor
sin^{n-2-j}(theta_j), so N nodes integrate polynomials of degree 2N-1
exactly.  Every parameter takes the same Golub-Welsch route (Golub and
Welsch, Math. Comp. 23, 1969) with an extended-precision Newton polish.
The azimuth uses the uniform rule (exact for trigonometric polynomials
below the node count).  A rule on S^{n-1} has N^{n-1} nodes; configurations
keep that count within MAX_RULE_NODES.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import sphere_chart

__all__ = [
    "QuadratureRule",
    "gegenbauer_recurrence",
    "gegenbauer_rule",
    "integrate",
    "omega_n",
    "product_gauss_rule",
]

# 2^20 nodes: at n = 5 and 32 nodes per angle the one boundary-gap pass (both
# sups and the gap expansion, streamed in blocks) takes ~2.8 s at degree 1 and,
# with the matching solve, ~8.2 s at sh_degree 8 on 2 cores; either peaks at
# ~240 MB, most of it the rule itself; the count grows like N^{n-1}
MAX_RULE_NODES = 2**20


def omega_n(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    if n < 2:
        raise ValueError("omega_n requires n >= 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes on S^{n-1} with positive weights summing to omega_n."""

    n: int
    nodes: np.ndarray    # (N, n), unit vectors
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


def gegenbauer_recurrence(lam: float, count: int, dtype=float):
    """The recurrence x p_k = b_{k+1} p_{k+1} + b_k p_{k-1} of the orthonormal
    polynomials for the weight (1 - x^2)^{lam - 1/2} on [-1, 1], lam > 0:
    (b_1..b_count in dtype, the weight's mass), so that p_0 = 1 / sqrt(mass).
    """
    if not lam > 0:
        raise ValueError(f"no Gegenbauer recurrence for parameter {lam}; it must be positive")
    k = np.arange(1, count + 1, dtype=dtype)
    b = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    try:
        return b, math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1)
    except OverflowError:
        # lam + 1 > 171.6: the Stirling series of log Gamma(lam + 1/2) -
        # log Gamma(lam + 1), whose next term is below 1e-22 there
        z = 1.0 / (lam * lam)
        return b, math.sqrt(math.pi / lam) * math.exp(
            (-1 / 8 + z * (1 / 192 + z * (-1 / 640 + z * 17 / 14336))) / lam)


def gegenbauer_rule(nodes: int, lam: float):
    """N-node Gauss rule for the weight (1 - x^2)^{lam - 1/2} on [-1, 1],
    lam > 0; nodes ascending.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix with the off-diagonal b_k of gegenbauer_recurrence.  They get two
    Newton steps on the orthonormal three-term recurrence in extended
    precision, where the weights are the Christoffel numbers 1 / sum_{k<N}
    p_k(x)^2.  Against a 40-digit rule at N = 64 the weights are 1.1e-12
    relative off without the polish, 7e-14 with it in double precision and
    3e-16 in extended precision.
    """
    b, mass = gegenbauer_recurrence(lam, nodes, np.longdouble)
    x = np.linalg.eigvalsh(np.diag(b[:-1].astype(float), 1), UPLO="U").astype(np.longdouble)

    def recurrence(x):
        # p_N, p_N' and sum_{k<N} p_k^2, with p_0 = 1 (the mass is applied last)
        prev, cur = np.zeros_like(x), np.ones_like(x)
        dprev, dcur = np.zeros_like(x), np.zeros_like(x)
        squares = np.zeros_like(x)
        for j in range(nodes):
            squares += cur * cur
            below = b[j - 1] if j else 0
            prev, cur, dprev, dcur = (cur, (x * cur - below * prev) / b[j],
                                      dcur, (cur + x * dcur - below * dprev) / b[j])
        return cur, dcur, squares

    for _ in range(2):
        p, dp, _ = recurrence(x)
        x = x - p / dp
    return x.astype(float), (mass / recurrence(x)[2]).astype(float)


@functools.cache
def product_gauss_rule(n: int, nodes_per_angle: int) -> QuadratureRule:
    """Tensor Gauss rule in hyperspherical angles: Gauss-Gegenbauer in each
    polar cosine, uniform in the azimuth; cached, so its arrays are read-only."""
    if n < 2:
        raise ValueError("product rule requires n >= 2")
    grids = []
    wgrids = []
    for j in range(n - 2):
        x, w = gegenbauer_rule(nodes_per_angle, 0.5 * (n - 2 - j))
        grids.append(np.arccos(x))
        wgrids.append(w)
    phi = 2.0 * math.pi * np.arange(nodes_per_angle) / nodes_per_angle
    grids.append(phi)
    wgrids.append(np.full(nodes_per_angle, 2.0 * math.pi / nodes_per_angle))

    mesh = np.meshgrid(*grids, indexing="ij")
    angles = np.stack([g.ravel() for g in mesh], axis=-1)
    weights = functools.reduce(np.multiply.outer, wgrids).ravel()
    rule = QuadratureRule(n=n, nodes=sphere_chart(angles), weights=weights)
    rule.nodes.flags.writeable = rule.weights.flags.writeable = False
    return rule


def integrate(rule: QuadratureRule, f) -> float:
    """Integrate f over S^{n-1}; f maps an (N, n) node array to N values
    (or is constant-broadcastable)."""
    vals = np.asarray(f(rule.nodes), dtype=float)
    vals = np.broadcast_to(vals, rule.weights.shape)
    return float(np.sum(rule.weights * vals))  # pairwise summation: bit-stable

