"""Mode-reduced spectral theory of the conjugated linearized operator on the
neck cylinder R x S^{n-1}.

Separating a normal field over sphere eigendata reduces the conjugated
operator to scalar ODE systems in the cylindrical variable t.  With
K = k(n-2+k) the exact-mode system for k >= 1 reads

    a'' = (K + n^2/4) a + 2 K tanh(nt) b - (3n^2/4) sech^2(nt) a
    b'' = (K + (n-4)^2/4) b + 2 tanh(nt) a - ((16-n^2)/4) sech^2(nt) b,

for k = 0 only the scalar equation  a'' = (n^2/4) a - (3n^2/4) sech^2(nt) a
remains, solved exactly by f_0(t) = (cosh nt)^{-1/2}, and the coexact modes
(k >= 1) obey  a'' = ((n-2)/2 + k)^2 a - ((16-n^2)/4) sech^2(nt) a.

Freezing tanh -> +-1, sech -> 0 at the cylinder ends yields constant
coefficients whose characteristic exponents are the indicial roots

    gamma_k = +-((n-2)/2 + k)   (coexact),
    mu_k    = +-(n/2 + k),  nu_k = +-((n-4)/2 + k)   (exact, k >= 1),
    mu_0    = +-n/2.

The frozen systems are mode_system_matrix at t = -+inf, where tanh and sech
take these limits exactly.  The t -> -infinity one restricted to the first
exact eigenspace solves in closed form with decay rates
(n+2)/2 along the direction (n-1, -1) and (n-2)/2 along (1, 1); the
boundary-value coefficients are n A = a0 - b0, n B = a0 + (n-1) b0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


__all__ = [
    "IndicialTable",
    "ModeSolution",
    "decay_rate",
    "explicit_n3_residual",
    "explicit_n3_solution",
    "exterior_mode_solve",
    "frozen_characteristic_roots",
    "indicial_roots",
    "integrate_mode_system",
    "mode_system_matrix",
    "verify_f0",
]

BLOWUP_LIMIT = 1e12
# decay_rate fits the outer third of the samples, and at least 50 of them
FIT_WINDOW_FRAC = 1.0 / 3.0
FIT_MIN_POINTS = 50


@dataclass(frozen=True)
class IndicialTable:
    """Exact indicial roots for sphere-eigenvalue index k (Fractions)."""

    n: int
    k: int
    coexact: tuple      # (gamma_k^+, gamma_k^-); None for k = 0
    exact_mu: tuple     # (mu_k^+, mu_k^-)
    exact_nu: tuple     # (nu_k^+, nu_k^-); None for k = 0


def indicial_roots(n: int, k: int) -> IndicialTable:
    """Closed-form indicial roots; the coexact family starts at k = 1."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    mu = Fraction(n, 2) + k
    if k == 0:
        return IndicialTable(n=n, k=0, coexact=None, exact_mu=(mu, -mu), exact_nu=None)
    gamma = Fraction(n - 2, 2) + k
    nu = Fraction(n - 4, 2) + k
    return IndicialTable(
        n=n, k=k, coexact=(gamma, -gamma), exact_mu=(mu, -mu), exact_nu=(nu, -nu)
    )


# ----------------------------------------------------------------------
# Per-mode systems
# ----------------------------------------------------------------------

def mode_system_matrix(n: int, k: int, t: float, family: str = "exact") -> np.ndarray:
    """Coefficient matrix M(t) of the second-order system z'' = M(t) z.

    At t = -inf or +inf, tanh(nt) is exactly -1 or +1 and sech^2(nt) exactly
    0: the constant-coefficient system frozen at that end of the cylinder.
    """
    if family not in ("exact", "coexact"):
        raise ValueError("family must be 'exact' or 'coexact'")
    th = math.tanh(n * t)
    sech2 = 1.0 / math.cosh(n * t) ** 2

    if family == "coexact":
        if k < 1:
            raise ValueError("coexact modes require k >= 1")
        return np.array([[((n - 2) / 2.0 + k) ** 2 - (16 - n * n) / 4.0 * sech2]])

    if k == 0:
        return np.array([[n * n / 4.0 - 3.0 * n * n / 4.0 * sech2]])
    K = k * (n - 2 + k)
    return np.array(
        [
            [K + n * n / 4.0 - 3.0 * n * n / 4.0 * sech2, 2.0 * K * th],
            [2.0 * th, K + (n - 4) ** 2 / 4.0 - (16 - n * n) / 4.0 * sech2],
        ]
    )


def _companion(M: np.ndarray) -> np.ndarray:
    """First-order companion [[0, I], [M, 0]] of z'' = M z."""
    d = M.shape[0]
    comp = np.zeros((2 * d, 2 * d))
    comp[:d, d:] = np.eye(d)
    comp[d:, :d] = M
    return comp


def frozen_characteristic_roots(n: int, k: int, side: int = -1,
                                family: str = "exact") -> np.ndarray:
    """Sorted characteristic exponents of the system frozen at t -> side*inf:
    the eigenvalues of the first-order companion of mode_system_matrix at
    t = side * inf, which are the indicial roots.
    """
    if side not in (-1, 1):
        raise ValueError("side must be -1 or +1")
    M = mode_system_matrix(n, k, side * math.inf, family=family)
    roots = np.linalg.eigvals(_companion(M))
    return np.sort_complex(roots).real if np.allclose(roots.imag, 0, atol=1e-10) \
        else np.sort_complex(roots)


@dataclass
class ModeSolution:
    """Sampled (a, b) mode amplitudes along the cylinder."""

    n: int
    k: int
    t: np.ndarray
    a: np.ndarray
    b: np.ndarray = None  # absent for scalar modes


def integrate_mode_system(n: int, k: int, kind: str, initial, t_span,
                          num: int = 801, family: str = "exact") -> ModeSolution:
    """Solution of the frozen mode system z'' = M z, M = mode_system_matrix at
    t = -inf, sampled at num points of t_span.

    kind names that system and must be "asymptotic".  M is constant and its
    eigenvalues are the squared indicial roots, so the exact flow is
    evaluated in closed form at every sample, on numpy alone.

    initial is (a0, da0) for scalar modes and (a0, b0, da0, db0) for the
    coupled ones; it and t_span must be finite.  Raises on blow-up of
    |a| + |b| past 1e12 with the location.
    """
    initial = np.asarray(initial, dtype=float)
    scalar = (family == "coexact") or (k == 0)
    d = 1 if scalar else 2
    if initial.shape != (2 * d,):
        raise ValueError(f"initial data must have length {2 * d}")
    if not np.all(np.isfinite(initial)):
        raise ValueError(f"initial data must be finite, got {initial.tolist()}")
    t_span = np.asarray(t_span, dtype=float)
    if t_span.shape != (2,) or not np.all(np.isfinite(t_span)):
        raise ValueError(f"t_span must be two finite times, got {t_span.tolist()}")
    t_eval = np.linspace(t_span[0], t_span[1], num)

    M0 = mode_system_matrix(n, k, -math.inf, family=family)
    if kind != "asymptotic":
        raise ValueError(f"kind must be 'asymptotic' (the frozen system), got {kind!r}")

    def magnitude(z):
        return np.sum(np.abs(z[..., :d]), axis=-1)

    # M0 = P diag(s^2) P^-1 with s the indicial roots and P's columns the
    # null vectors (-w01, w00) of W = M0 - s^2 I, both exact; eigenmode u
    # is c+ e^{s tau} + c- e^{-s tau}, c+- = (u0 +- u0'/s)/2, or u0 + u0' tau
    # where s = 0 (n = 2, k = 1, nu = 0)
    roots = indicial_roots(n, k)
    first = roots.coexact if family == "coexact" else roots.exact_mu
    s = np.array([float(first[0])] + ([] if scalar else [float(roots.exact_nu[0])]))
    P = np.ones((1, 1)) if scalar else np.stack([np.full(2, -M0[0, 1]), M0[0, 0] - s**2])
    u0, du0 = np.linalg.solve(P, initial.reshape(2, d).T).T
    nonzero = s > 0
    s_or_1 = np.where(nonzero, s, 1.0)
    cp, cm = 0.5 * (u0 + du0 / s_or_1), 0.5 * (u0 - du0 / s_or_1)

    def flow(t):
        # e^{+-s tau} saturates below the float limit, so that a vanishing
        # c+- keeps its term 0 rather than 0 * inf = nan
        tau = np.expand_dims(t - t_span[0], -1)
        grow, fall = (np.exp(np.minimum(x, 709.0)) for x in (s * tau, -s * tau))
        u = np.where(nonzero, cp * grow + cm * fall, u0 + du0 * tau)
        return u @ P.T

    z = flow(t_eval)
    over = np.flatnonzero(magnitude(z) > BLOWUP_LIMIT)
    if over.size:
        # bisect the first sample interval that crosses, to the last bit
        i = over[0]
        lo, hi = t_eval[max(i - 1, 0)], t_eval[i]
        mid = 0.5 * (lo + hi)
        while min(lo, hi) < mid < max(lo, hi):
            if magnitude(flow(mid)) > BLOWUP_LIMIT:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        raise ValueError(f"mode solution blew up past {BLOWUP_LIMIT:g} at t = {hi:.4f}")
    return ModeSolution(n=n, k=k, t=t_eval, a=z[:, 0], b=None if scalar else z[:, 1])


# ----------------------------------------------------------------------
# Explicit objects
# ----------------------------------------------------------------------

def _sech(n: int, t) -> np.ndarray:
    """sech(nt) = 2 e / (1 + e^2) with e = exp(-|nt|): no overflow at any nt."""
    e = np.exp(-np.abs(n * np.asarray(t, dtype=float)))
    return 2.0 * e / (1.0 + e * e)


def f0_profile(n: int, t):
    """The exact k = 0 kernel element f_0(t) = (cosh nt)^{-1/2}."""
    return np.sqrt(_sech(n, t))


def f0_second_derivative(n: int, t):
    """Closed-form f_0'' = (n^2/4) (cosh nt)^{-1/2} - (3n^2/4) (cosh nt)^{-5/2}."""
    sech = _sech(n, t)
    return n * n / 4.0 * np.sqrt(sech) - 3.0 * n * n / 4.0 * sech ** 2.5


def verify_f0(n: int, t_grid) -> float:
    """Sup residual of f_0 in the k = 0 equation with analytic derivatives."""
    f = f0_profile(n, t_grid)
    resid = f0_second_derivative(n, t_grid) - n * n / 4.0 * f \
        + 3.0 * n * n / 4.0 * f * _sech(n, t_grid) ** 2
    return float(np.max(np.abs(resid)))


def explicit_n3_solution(t):
    """The exact (a_1, b_1) solution of the n = 3, k = 1 system:

        a_1 = (sin 3s)^{-1/6} (sin 3s cos s - sin s cos 3s),
        b_1 = -(sin 3s)^{-1/6} sin s,          s = s(t).

    Evaluated through sin(3s) = sech(3t), cos(3s) = -tanh(3t); the direct
    route through s loses all relative precision in sin(3s) once 3s is
    within float epsilon of pi.  A floating t keeps its dtype (long double
    for explicit_n3_residual); anything else is taken as float64.
    """
    t = np.asarray(t)
    if t.dtype.kind != "f":
        t = t.astype(float)
    one = t.dtype.type(1)
    s = 2 * one / 3 * np.arctan(np.exp(3 * t))    # t_to_s, in t's dtype
    w = np.cosh(3 * t) ** (one / 6)
    a = w * (np.cos(s) / np.cosh(3 * t) + np.tanh(3 * t) * np.sin(s))
    b = -w * np.sin(s)
    return a, b


def explicit_n3_residual(t_grid, h: float = 1e-3) -> float:
    """Sup residual of (a_1, b_1) in the n = 3, k = 1 system under 5-point
    FD second derivatives at step h.

    Evaluated in extended precision: at h = 1e-3 the stencil amplifies
    float64 rounding past the 1e-8 scale, while the truncation error itself
    is O(h^4) ~ 1e-10.
    """
    ld = np.longdouble
    t = np.asarray(t_grid, dtype=ld)
    hh = ld(h)
    vals = [explicit_n3_solution(t + k * hh) for k in (-2, -1, 0, 1, 2)]
    stencil = np.array([-1, 16, -30, 16, -1], dtype=ld) / (12 * hh * hh)
    app = sum(c * v[0] for c, v in zip(stencil, vals))
    bpp = sum(c * v[1] for c, v in zip(stencil, vals))
    a, b = vals[2]
    th = np.tanh(3 * t)
    sech2 = 1 / np.cosh(3 * t) ** 2
    Ma = (2 + ld(9) / 4) * a + 4 * th * b - ld(27) / 4 * a * sech2
    Mb = (2 + ld(1) / 4) * b + 2 * th * a - ld(7) / 4 * b * sech2
    return float(max(np.max(np.abs(app - Ma)), np.max(np.abs(bpp - Mb))))


def exterior_mode_solve(n: int, a0: float, b0: float):
    """Decaying closed-form solution of the frozen system on the first exact
    eigenspace, as (A, B, rates, directions) with

        a(tau) = (n-1) A e^{-(n+2)/2 tau} + B e^{-(n-2)/2 tau},
        b(tau) =   -   A e^{-(n+2)/2 tau} + B e^{-(n-2)/2 tau},

    n A = a0 - b0 and n B = a0 + (n-1) b0, so a(0) = a0 and b(0) = b0.
    """
    if n < 3:
        raise ValueError("the exterior decaying family requires n >= 3")
    A = (a0 - b0) / n
    B = (a0 + (n - 1) * b0) / n
    rates = (-(n + 2) / 2.0, -(n - 2) / 2.0)
    directions = (np.array([n - 1.0, -1.0]), np.array([1.0, 1.0]))

    def evaluate(tau):
        tau = np.asarray(tau, dtype=float)
        fast = np.exp(rates[0] * tau)
        slow = np.exp(rates[1] * tau)
        return (n - 1) * A * fast + B * slow, -A * fast + B * slow

    return A, B, rates, directions, evaluate


# ----------------------------------------------------------------------
# Decay-rate fitting
# ----------------------------------------------------------------------

def decay_rate(solution: ModeSolution, end: int):
    """Least-squares slope of log(|a|+|b|) against t over the outer window.

    end = -1 fits toward the left end of the grid, +1 toward the right.
    Returns (slope, r_squared).  Raises when the magnitude vanishes on the
    whole window.
    """
    if end not in (-1, 1):
        raise ValueError("end must be -1 or +1")
    mag = np.abs(solution.a)
    if solution.b is not None:
        mag = mag + np.abs(solution.b)
    npts = max(FIT_MIN_POINTS, int(round(FIT_WINDOW_FRAC * solution.t.size)))
    npts = min(npts, solution.t.size)
    sl = slice(0, npts) if end == -1 else slice(-npts, None)
    t = solution.t[sl]
    m = mag[sl]
    if np.all(m <= 0) or np.any(~np.isfinite(np.log(m[m > 0]))):
        raise ValueError("magnitude vanishes or is non-finite on the fit window")
    keep = m > 0
    if keep.sum() < 2:
        raise ValueError("not enough positive samples in the fit window")
    t, logm = t[keep], np.log(m[keep])
    coeffs = np.polyfit(t, logm, 1)
    slope = float(coeffs[0])
    pred = np.polyval(coeffs, t)
    ss_res = float(np.sum((logm - pred) ** 2))
    ss_tot = float(np.sum((logm - logm.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2
