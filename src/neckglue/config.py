"""Plane-configuration data and the interaction system Gamma alpha = Lambda.

A configuration is the data (n, x_1..x_k, R_1..R_k, A_0, epsilon, rho_*)
describing k tilted n-planes through the marked points x_j plus the
horizontal plane perturbed by A_0.  The pairwise interaction matrix is

    gamma_jj' = |x_j - x_j'|^{-n} int_{S^{n-1}}
                ( R_j Theta . R_j' Theta
                  - n (Theta . R_j xi_jj')(Theta . R_j' xi_jj') ) dtheta,

with xi_jj' = (x_j - x_j')/|x_j - x_j'| and zero diagonal, and the load
vector is lambda_j = -int A_0 Theta . R_j Theta dtheta.  Both reduce to
trace identities through the sphere second moment:

    gamma_jj' = (omega_n / (n d^n)) ( tr(R_j'^T R_j) - n (R_j xi).(R_j' xi) ),
    lambda_j  = -(omega_n / n) tr(A_0^T R_j).

Hypotheses:
  H1  xi_jj' not in Im(I - R_j'^{-1} R_j) for every pair (planes meet only
      at the marked points), decided by an SVD rank cut and a least-squares
      membership residual;
  H2  Gamma invertible (reciprocal condition number above threshold);
  H3  alpha = Gamma^{-1} Lambda is entrywise positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import check_orthogonal
from .quadrature import QuadratureRule, integrate, omega_n

__all__ = [
    "Configuration",
    "H1PairResult",
    "InteractionSystem",
    "build_interaction_system",
    "check_h1",
    "gamma_entry_quadrature",
    "gamma_matrix",
    "lambda_entry_quadrature",
    "lambda_vector",
    "neck_scales",
]

ORTHOGONALITY_TOL = 1e-10
DISTINCTNESS_TOL = 1e-9
H1_RANK_CUT = 1e-10
H1_RESIDUAL_CUT = 1e-8
H2_RCOND_CUT = 1e-10


@dataclass
class Configuration:
    """Validated input data for a desingularizable plane configuration."""

    n: int
    points: np.ndarray      # (k, n)
    rotations: np.ndarray   # (k, n, n), each in O(n)
    A0: np.ndarray          # (n, n)
    epsilon: float
    rho_star: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.rotations = np.asarray(self.rotations, dtype=float)
        self.A0 = np.asarray(self.A0, dtype=float)
        n = int(self.n)
        if n < 2:
            raise ValueError("dimension n must be >= 2")
        for key in ("points", "rotations", "A0", "epsilon", "rho_star"):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ValueError(f"{key} must be finite (got NaN or inf)")
        if self.points.ndim != 2 or self.points.shape[1] != n:
            raise ValueError(f"points must be a (k, {n}) array")
        k = self.points.shape[0]
        if k < 1:
            raise ValueError("at least one marked point is required")
        if self.rotations.shape != (k, n, n):
            raise ValueError(f"rotations must be a ({k}, {n}, {n}) array")
        if self.A0.shape != (n, n):
            raise ValueError(f"A0 must be ({n}, {n})")
        for j in range(k):
            defect = check_orthogonal(self.rotations[j])
            if defect > ORTHOGONALITY_TOL:
                raise ValueError(
                    f"rotations[{j}] orthogonality defect {defect:.3e} exceeds "
                    f"{ORTHOGONALITY_TOL:.0e}"
                )
        for _ in self.pairs():   # refuses coincident points
            pass
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.rho_star > 0:
            raise ValueError("rho_star must be positive")

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def min_separation(self) -> float:
        """Smallest distance |x_j - x_j'| between two marked points (inf if k = 1)."""
        return min((d for _, _, d, _ in self.pairs()), default=np.inf)

    def pairs(self):
        """Yield (j, j', d, xi) for every pair j < j': the distance
        d = |x_j - x_j'| and the unit direction xi_jj' = (x_j - x_j')/d.
        Refuses two points within DISTINCTNESS_TOL of each other."""
        for j in range(self.k):
            for jp in range(j + 1, self.k):
                diff = self.points[j] - self.points[jp]
                d = float(np.linalg.norm(diff))
                if d <= DISTINCTNESS_TOL:
                    raise ValueError(f"points[{j}] and points[{jp}] coincide (distance {d:.3e})")
                yield j, jp, d, diff / d


@dataclass
class H1PairResult:
    j: int
    jp: int
    residual: float
    holds: bool


@dataclass
class InteractionSystem:
    """Gamma, Lambda, the neck scales alpha, and the hypothesis verdicts."""

    gamma: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray          # None when Gamma is numerically singular
    rcond: float
    h1: list                   # per-pair H1PairResult
    h2: bool
    h3: bool

    @property
    def h1_holds(self) -> bool:
        return all(r.holds for r in self.h1)


def check_h1(config: Configuration) -> list:
    """Decide xi_jj' not in Im(I - R_j'^{-1} R_j) for every pair j < j'.

    The image is the span of the left singular vectors of M = I - R_j'^{-1}R_j
    above the rank cut 1e-10 sigma_max; the reported residual is the norm of
    xi minus its projection onto that span.  H1 holds for the pair when the
    residual exceeds 1e-8.
    """
    out = []
    for j, jp, _, xi in config.pairs():
        M = np.eye(config.n) - config.rotations[jp].T @ config.rotations[j]
        U, S, _ = np.linalg.svd(M)
        Ur = U[:, :int(np.sum(S > H1_RANK_CUT * S[0]))]   # M = 0: rank 0, residual |xi|
        residual = float(np.linalg.norm(xi - Ur @ (Ur.T @ xi)))
        out.append(H1PairResult(j, jp, residual, residual > H1_RESIDUAL_CUT))
    return out


def gamma_entry_quadrature(config: Configuration, j: int, jp: int,
                           rule: QuadratureRule):
    """Direct sphere quadrature of the gamma_jj' integrand (the independent cross-check)."""
    if j == jp:
        raise ValueError("gamma_jj is identically zero")
    diff = config.points[j] - config.points[jp]
    d = float(np.linalg.norm(diff))
    xi = diff / d
    Rj, Rjp = config.rotations[j], config.rotations[jp]
    n = config.n

    def integrand(nodes):
        a = nodes @ Rj.T
        b = nodes @ Rjp.T
        return np.sum(a * b, axis=1) - n * (nodes @ (Rj @ xi)) * (nodes @ (Rjp @ xi))

    return integrate(rule, integrand) / d**n


def gamma_matrix(config: Configuration) -> np.ndarray:
    """Closed-form Gamma: each gamma_jj' = gamma_j'j once per pair, zero diagonal."""
    n = config.n
    G = np.zeros((config.k, config.k))
    for j, jp, d, xi in config.pairs():
        Rj, Rjp = config.rotations[j], config.rotations[jp]
        tr = float(np.trace(Rjp.T @ Rj))
        cross = float((Rj @ xi) @ (Rjp @ xi))
        G[j, jp] = G[jp, j] = omega_n(n) / (n * d**n) * (tr - n * cross)
    return G


def lambda_vector(config: Configuration) -> np.ndarray:
    """lambda_j = -(omega_n/n) tr(A0^T R_j), the closed form of the load integral."""
    n = config.n
    scale = -omega_n(n) / n
    return np.array(
        [scale * float(np.trace(config.A0.T @ config.rotations[j]))
         for j in range(config.k)]
    )


def lambda_entry_quadrature(config: Configuration, j: int, rule: QuadratureRule):
    """Quadrature cross-check of lambda_j."""
    A0, Rj = config.A0, config.rotations[j]

    def integrand(nodes):
        return -np.sum((nodes @ A0.T) * (nodes @ Rj.T), axis=1)

    return integrate(rule, integrand)


def neck_scales(gamma: np.ndarray, lam: np.ndarray):
    """Solve Gamma alpha = Lambda and report (alpha, h2, h3, rcond).

    h2 holds when 1/cond_2(Gamma) exceeds 1e-10; alpha is None otherwise.
    h3 holds when the solve succeeded and every alpha_j is positive.
    """
    gamma = np.asarray(gamma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise ValueError("gamma must be square")
    if lam.shape != (gamma.shape[0],):
        raise ValueError("lambda length must match gamma")
    sv = np.linalg.svd(gamma, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    h2 = rcond > H2_RCOND_CUT
    if not h2:
        return None, False, False, rcond
    alpha = np.linalg.solve(gamma, lam)
    h3 = bool(np.min(alpha) > 0)
    return alpha, h2, h3, rcond


def build_interaction_system(config: Configuration) -> InteractionSystem:
    gamma = gamma_matrix(config)
    lam = lambda_vector(config)
    alpha, h2, h3, rcond = neck_scales(gamma, lam)
    return InteractionSystem(
        gamma=gamma, lam=lam, alpha=alpha, rcond=rcond,
        h1=check_h1(config), h2=h2, h3=h3,
    )
