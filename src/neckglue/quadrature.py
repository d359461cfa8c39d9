"""Quadrature and closed-form moment identities on S^{n-1}.

Two rule families:

* product Gauss in hyperspherical angles (n <= 4): each polar angle
  theta_j is Gauss-Gegenbauer in cos(theta_j) with parameter (n-2-j)/2,
  whose weight (1 - x^2)^{(n-3-j)/2} is the area factor
  sin^{n-2-j}(theta_j), so N nodes integrate polynomials of degree 2N-1
  exactly.  For n <= 4 only two parameters occur, and both rules need
  numpy alone: Gauss-Legendre (parameter 1/2: numpy's Golub-Welsch
  ``leggauss``, Newton-polished) and Gauss-Chebyshev of the second kind
  (parameter 1: x_k = cos(k pi/(N+1)), w_k = pi/(N+1) sin^2(k pi/(N+1))).
  The azimuth uses the uniform rule (exact for trigonometric polynomials
  below the node count);
* Monte Carlo via normalized Gaussian samples (any n), with the standard
  sigma/sqrt(N) error estimate.

The closed forms used throughout:

    omega_n = |S^{n-1}| = 2 pi^{n/2} / Gamma(n/2),
    int (Theta.u)(Theta.v) dtheta = (omega_n / n) (u.v).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import sphere_chart

__all__ = [
    "QuadratureRule",
    "gegenbauer_rule",
    "integrate",
    "monte_carlo_rule",
    "omega_n",
    "product_gauss_rule",
    "second_moment",
    "sphere_rule",
]

PRODUCT_RULE_MAX_DIM = 4
DEFAULT_NODES_PER_ANGLE = 32
DEFAULT_MC_SAMPLES = 200_000


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
    kind: str            # "product-gauss" | "monte-carlo"
    seed: int = None     # monte-carlo only

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


def _legendre_pair(N: int, x):
    """(P_{N-1}(x), P_N(x)) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for k in range(2, N + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return prev, cur


def gegenbauer_rule(nodes: int, lam: float):
    """N-node Gauss rule for the weight (1 - x^2)^{lam - 1/2} on [-1, 1],
    lam = 1/2 (Legendre) or 1 (Chebyshev, second kind); nodes ascending.

    The Legendre nodes of numpy's Golub-Welsch ``leggauss`` get two Newton
    steps in extended precision, and the weights 2(1 - x^2)/(N P_{N-1})^2
    are formed there: in double precision the end weights inherit the
    rounding of x near +-1 (1.3e-12 relative at N = 64, against 1e-15).
    """
    if lam == 0.5:
        x = np.polynomial.legendre.leggauss(nodes)[0].astype(np.longdouble)
        for _ in range(2):
            prev, cur = _legendre_pair(nodes, x)
            x = x - cur * (x * x - 1) / (nodes * (x * cur - prev))
        prev, _ = _legendre_pair(nodes, x)
        return x.astype(float), (2 * (1 - x * x) / (nodes * prev) ** 2).astype(float)
    if lam == 1.0:
        angle = np.arange(nodes, 0, -1) * (math.pi / (nodes + 1))
        return np.cos(angle), math.pi / (nodes + 1) * np.sin(angle) ** 2
    raise ValueError(f"no Gauss-Gegenbauer rule for parameter {lam}; supported: 0.5, 1")


@functools.cache
def product_gauss_rule(n: int, nodes_per_angle: int = DEFAULT_NODES_PER_ANGLE) -> QuadratureRule:
    """Tensor Gauss rule in hyperspherical angles (n <= 4): Gauss-Gegenbauer in
    each polar cosine, uniform in the azimuth; cached, so its arrays are read-only."""
    if not 2 <= n <= PRODUCT_RULE_MAX_DIM:
        raise ValueError(f"product rule supports 2 <= n <= {PRODUCT_RULE_MAX_DIM}")
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
    wmesh = np.meshgrid(*wgrids, indexing="ij")
    weights = np.prod(np.stack([w.ravel() for w in wmesh], axis=-1), axis=-1)
    rule = QuadratureRule(n=n, nodes=sphere_chart(angles), weights=weights, kind="product-gauss")
    rule.nodes.flags.writeable = rule.weights.flags.writeable = False
    return rule


def monte_carlo_rule(n: int, samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> QuadratureRule:
    """Uniform sphere samples from normalized Gaussians; weights omega_n/N."""
    if n < 2:
        raise ValueError("monte_carlo_rule requires n >= 2")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, n))
    nodes = g / np.linalg.norm(g, axis=1, keepdims=True)
    weights = np.full(samples, omega_n(n) / samples)
    return QuadratureRule(n=n, nodes=nodes, weights=weights, kind="monte-carlo", seed=seed)


def sphere_rule(n: int, nodes_per_angle: int = DEFAULT_NODES_PER_ANGLE,
                mc_samples: int = DEFAULT_MC_SAMPLES, seed: int = 0) -> QuadratureRule:
    """Product rule for n <= 4, Monte Carlo beyond (node count blows up)."""
    if n <= PRODUCT_RULE_MAX_DIM:
        return product_gauss_rule(n, nodes_per_angle)
    return monte_carlo_rule(n, mc_samples, seed)


def integrate(rule: QuadratureRule, f, return_sigma: bool = False):
    """Integrate f over S^{n-1}.

    f maps an (N, n) node array to N values (or is constant-broadcastable).
    For Monte Carlo rules the standard error sigma/sqrt(N) of the estimate
    is available via return_sigma.
    """
    vals = np.asarray(f(rule.nodes), dtype=float)
    vals = np.broadcast_to(vals, rule.weights.shape)
    est = float(np.sum(rule.weights * vals))  # pairwise summation: bit-stable
    if not return_sigma:
        return est
    if rule.kind == "monte-carlo":
        om = omega_n(rule.n)
        sigma = om * float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
    else:
        sigma = 0.0
    return est, sigma


def second_moment(u: np.ndarray, v: np.ndarray) -> float:
    """Closed form of int (Theta.u)(Theta.v) dtheta over S^{n-1}."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be equal-length vectors")
    n = u.size
    return omega_n(n) / n * float(u @ v)
