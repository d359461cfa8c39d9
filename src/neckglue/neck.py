"""Model neck geometry: the hyperbola-type minimal n-submanifold of C^n,

    X(s, theta) = e^{is} (sin ns)^{-1/n} Theta(theta),   s in (0, pi/n),

its O(n)-twisted variant x + iy -> x + i R y, coordinate changes, the
lower-end asymptotic graph, the five closed-form Jacobi-field families and
the linearized mean-curvature operator in the (s, theta) chart.

Coordinates.  The cylindrical variable t is defined by dt = ds / sin(ns),
t(pi/2n) = 0, equivalently e^{-nt} = sin(ns)/(1 - cos(ns)); then

    sin(ns) = sech(nt),   cos(ns) = -tanh(nt).

The lower-end radius of the neck scaled by (n beta eps)^{1/n} is

    r(s) = (n beta eps)^{1/n} cos(s) (sin ns)^{-1/n},

decreasing on the lower branch (0, pi/(2(n-1))] from +infinity to its waist
minimum at s = pi/(2(n-1)) for n >= 3.  At n = 2 there is no waist: r falls
to 0 as s -> pi/2.

Evaluation.  NeckParams.evaluate is the one place the scaled, twisted neck

    (x, y) = (n beta eps)^{1/n} (sin ns)^{-1/n} (cos s Theta, sin s R Theta)

is written out; its s-derivative is taken in closed form,

    d(x, y)/ds = (n beta eps)^{1/n} (sin ns)^{-1/n-1}
                 (-cos((n-1)s) Theta, sin((n-1)s) R Theta),

so dr/ds = -(n beta eps)^{1/n} (sin ns)^{-1/n-1} cos((n-1)s), which for n >= 3
vanishes at the waist s = pi/(2(n-1)).

Linearized operator.  A normal field V = i e^{i(1-n)s} f Theta + i e^{is} T
(f scalar, T tangent to S^{n-1}) is mapped to the pair

    F  = (sin ns)^{2-2/n} d_s((sin ns)^{2/n} d_s f) + Lap_S f - (n-1) f
         + (n^2-1) sin^2(ns) f - 2 cos(ns) div_S T,
    T' = (sin ns)^{2-2/n} d_s((sin ns)^{2/n} d_s T) + Lap^tau_S T - T
         + 3 sin^2(ns) T + 2 cos(ns) grad_S f,

i.e. (sin ns)^{-2/n} L_H V expressed in the same (f, T) splitting.  Sphere
operators are realized by central differences of ambient components plus
tangent projection in the hyperspherical chart; the result is second-order
accurate and annihilates every closed-form Jacobi field at rate h^2.  One
application takes each of the m = n - 1 frame derivatives of f, T and P D_j T
once, projects m + 1 times, and meets the connection only through per-grid
scalars, the closed form of what central differences of the frame read (see
SphereGridOps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AmbientPoint, ImmersionPatch, central_difference, check_orthogonal, \
    sphere_chart

__all__ = [
    "NeckParams",
    "NormalField",
    "SphereGridOps",
    "asymptote_residual",
    "jacobi_field",
    "linearized_apply",
    "neck_patch",
    "radius_of_s",
    "s_of_radius",
    "s_to_t",
    "t_to_s",
    "waist_radius",
]


@dataclass(frozen=True)
class NeckParams:
    """Scaled, twisted, translated neck: (n beta eps)^{1/n} (cos s Theta,
    sin s R Theta) + translation."""

    n: int
    beta: float
    epsilon: float
    rotation: np.ndarray = None
    translation: AmbientPoint = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("neck dimension n must be >= 2")
        if not (0 < self.beta < math.inf and 0 < self.epsilon < math.inf):
            raise ValueError(f"beta and epsilon must be positive and finite, got beta = "
                             f"{self.beta}, epsilon = {self.epsilon}")
        R = np.eye(self.n) if self.rotation is None else np.asarray(self.rotation, float)
        if check_orthogonal(R) > 1e-10:
            raise ValueError("neck rotation is not orthogonal")
        object.__setattr__(self, "rotation", R)
        if self.translation is None:
            zero = np.zeros(self.n)
            object.__setattr__(self, "translation", AmbientPoint(zero, zero))
        elif self.translation.n != self.n:
            raise ValueError("translation dimension mismatch")

    @property
    def scale(self) -> float:
        return (self.n * self.beta * self.epsilon) ** (1.0 / self.n)

    def evaluate(self, s, theta, with_ds: bool = False):
        """Neck point (x, y) over unit vectors theta (..., n); s broadcasts
        against theta's leading axes.  With with_ds also the closed-form
        tangent (dx/ds, dy/ds), returned as (x, y, dx, dy)."""
        n = self.n
        s = np.asarray(s, dtype=float)[..., None]
        rtheta = theta @ self.rotation.T
        sin_ns = np.sin(n * s)
        rad = self.scale * sin_ns ** (-1.0 / n)
        x = rad * np.cos(s) * theta + self.translation.x
        y = rad * np.sin(s) * rtheta + self.translation.y
        if not with_ds:
            return x, y
        rate = rad / sin_ns
        return x, y, -rate * np.cos((n - 1) * s) * theta, rate * np.sin((n - 1) * s) * rtheta


# ----------------------------------------------------------------------
# Coordinate changes
# ----------------------------------------------------------------------

def s_to_t(s, n: int):
    """t(s) with e^{-nt} = sin(ns)/(1-cos(ns)), i.e. t = log(tan(ns/2))/n."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0) or np.any(s >= math.pi / n):
        raise ValueError("s must lie in (0, pi/n)")
    return np.log(np.tan(n * s / 2.0)) / n


def t_to_s(t, n: int):
    """Inverse of s_to_t: s = (2/n) arctan(e^{nt})."""
    t = np.asarray(t, dtype=float)
    return 2.0 / n * np.arctan(np.exp(n * t))


def radius_of_s(params: NeckParams, s):
    """Scaled lower-end radius r(s) = (n beta eps)^{1/n} cos s (sin ns)^{-1/n}."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0) or np.any(s >= math.pi / params.n):
        raise ValueError("s must lie in (0, pi/n)")
    return params.scale * np.cos(s) * np.sin(params.n * s) ** (-1.0 / params.n)


def waist_radius(params: NeckParams) -> float:
    """Infimum of r(s), the smallest reachable boundary radius: r at the waist
    s = pi/(2(n-1)) for n >= 3; 0 at n = 2, where r falls to 0 as s -> pi/2."""
    if params.n == 2:
        return 0.0
    return float(radius_of_s(params, math.pi / (2 * (params.n - 1))))


def s_of_radius(params: NeckParams, r_target: float) -> float:
    """Invert r(s) on the lower branch (0, pi/(2(n-1))] by bisection to the
    last bit: r is strictly decreasing there and unbounded as s -> 0.

    Raises when r_target is below the waist radius: the neck is too large
    for the requested boundary radius.
    """
    r_min = waist_radius(params)
    if r_target < r_min * (1.0 - 1e-12):
        raise ValueError(
            f"neck too large for requested radius: r={r_target:.6g} < waist {r_min:.6g}"
        )
    lo, hi = 0.0, math.pi / (2 * (params.n - 1))
    mid = 0.5 * hi
    while lo < mid < hi:
        if float(radius_of_s(params, mid)) > r_target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi


# ----------------------------------------------------------------------
# Parametrization
# ----------------------------------------------------------------------

def polar_angle_grid(count: int, margin: float):
    """Uniform open grid of a polar angle on [margin, pi - margin]."""
    return np.linspace(margin, math.pi - margin, count)


def azimuth_grid(count: int):
    """Uniform periodic grid on [0, 2 pi)."""
    return 2.0 * math.pi * np.arange(count) / count


def default_angle_grids(n: int, counts, margin: float):
    """Polar grids away from the chart poles plus a full periodic azimuth."""
    counts = list(counts)
    if len(counts) != n - 1:
        raise ValueError("one node count per angle required")
    grids = [polar_angle_grid(c, margin) for c in counts[:-1]]
    grids.append(azimuth_grid(counts[-1]))
    return tuple(grids)


def neck_patch(params: NeckParams, angle_grids, t_grid) -> ImmersionPatch:
    """ImmersionPatch of the neck over t_grid x angle_grids.

    t_grid must be uniform.  The t-chart suits truncated necks reaching into
    the ends, where s-derivatives of the immersion blow up while
    t-derivatives stay uniformly moderate.  The azimuth is periodic.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    step = float(t_grid[1] - t_grid[0])
    s_values = t_to_s(t_grid, params.n)
    angles_mesh = np.stack(np.meshgrid(*angle_grids, indexing="ij"), axis=-1)
    theta = sphere_chart(angles_mesh)
    s_col = s_values.reshape((-1,) + (1,) * (theta.ndim - 1))
    samples = np.concatenate(params.evaluate(s_col, theta), axis=-1)
    spacings = [step] + [float(g[1] - g[0]) for g in angle_grids]
    periodic = (False,) + (False,) * (len(angle_grids) - 1) + (True,)
    return ImmersionPatch(spacings=tuple(spacings), samples=samples, periodic=periodic)


def asymptote_residual(params: NeckParams, rho_values, angle_grids):
    """Sup distance between the exact lower end and its leading graph.

    The graph is rho Theta + i eps beta rho^{1-n} R Theta (+ translation);
    the exact point sits at s = s_of_radius(rho).  Returns (sup, per_rho)
    with per_rho the sup over angles at each radius.
    """
    rho_values = np.atleast_1d(np.asarray(rho_values, dtype=float))
    if np.any(rho_values < 2.0 * params.scale):
        raise ValueError("rho too small: enters the waist region (need rho >= 2 (n beta eps)^{1/n})")
    angles_mesh = np.stack(np.meshgrid(*angle_grids, indexing="ij"), axis=-1)
    theta = sphere_chart(angles_mesh)
    rtheta = theta @ params.rotation.T
    per_rho = np.empty(rho_values.size)
    n, eps, beta = params.n, params.epsilon, params.beta
    for i, rho in enumerate(rho_values):
        exact_x, exact_y = params.evaluate(s_of_radius(params, float(rho)), theta)
        graph_x = rho * theta + params.translation.x
        graph_y = eps * beta * rho ** (1 - n) * rtheta + params.translation.y
        gap = np.sqrt(
            np.sum((exact_x - graph_x) ** 2, axis=-1)
            + np.sum((exact_y - graph_y) ** 2, axis=-1)
        )
        per_rho[i] = float(np.max(gap))
    return float(np.max(per_rho)), per_rho


# ----------------------------------------------------------------------
# Sphere operators on an angle grid (FD in ambient components + projection)
# ----------------------------------------------------------------------

def _dot(a, b):
    """Contraction of the trailing ambient axis."""
    return np.einsum("...c,...c->...", a, b)


class SphereGridOps:
    """Frame derivatives and the sphere operators of L_H on an S^{n-1} angle grid.

    Fields are shaped (..., *grid) for scalars and (..., *grid, n) for
    ambient-component tangent fields; derivative axes are the trailing grid
    axes.  The last angle is periodic; polar angles must stay away from the
    chart poles.  `sphere_terms` builds the frame-based

        grad f = sum_j (e_j f) e_j,          div T = sum_j (D_j T).e_j,
        Lap f  = sum_j e_j(e_j f) - kappa_j (e_j f),
        Lap^tau T = P sum_j (D_j (P D_j T) - kappa_j D_j T)

    from one central difference of f and of T per angle, with P the tangent
    projection.  The connection terms enter only through the per-grid
    scalars kappa_k = sum_j u_j.e_k, u_j = nabla^tau_{e_j} e_j, as central
    differences of the frame read them.  Each frame vector turns at unit
    rate in its own angle, so its central difference is exactly sin(h)/h
    times its derivative, and

        kappa_k = -(cot theta_k / |dTheta/dtheta_k|) sum_{j>k} sin(h_j)/h_j,

    0 for the azimuth: the FD connection in closed form (it agrees with the
    differenced frame to ~1e-13).  The exact Christoffel terms, without the
    sin(h)/h factors, would raise the Jacobi residuals on the n = 3,
    201 x 400 grid by up to 30 % (o2n_boost x1.29).
    """

    def __init__(self, angle_grids):
        self.angle_grids = tuple(np.asarray(g, dtype=float) for g in angle_grids)
        self.m = len(self.angle_grids)
        self.spacings = tuple(float(g[1] - g[0]) for g in self.angle_grids)
        for g, h in zip(self.angle_grids, self.spacings):
            if not np.allclose(np.diff(g), h, rtol=0, atol=1e-12):
                raise ValueError("angle grids must be uniform")
        mesh = np.stack(np.meshgrid(*self.angle_grids, indexing="ij"), axis=-1)
        theta, jac = sphere_chart(mesh, with_jacobian=True)
        self.theta = theta                                  # grid + (n,)
        norms = np.linalg.norm(jac, axis=-2)                # grid + (m,)
        self.norms = norms
        self.frame = jac / norms[..., None, :]              # grid + (n, m)
        sinc = [math.sin(h) / h for h in self.spacings]
        self.kappa = [-sum(sinc[k + 1:]) / (np.tan(mesh[..., k]) * norms[..., k])
                      for k in range(self.m - 1)] + [np.zeros(norms.shape[:-1])]

    def d(self, field, j, vector=False):
        """Unit-speed derivative along the j-th frame direction."""
        axis = field.ndim - self.m - (1 if vector else 0) + j
        norm = self.norms[..., j]
        if vector:
            norm = norm[..., None]
        return central_difference(field, axis, self.spacings[j]) / norm

    def project(self, v):
        """Tangential projection v - (v.Theta) Theta."""
        return v - _dot(v, self.theta)[..., None] * self.theta

    def sphere_terms(self, f, T):
        """(Lap f, div T, grad f, Lap^tau T) of a scalar f and a tangent T."""
        lap_f = div_T = grad_f = rough = 0.0
        for j in range(self.m):
            e_j = self.frame[..., :, j]
            df = self.d(f, j)
            dT = self.d(T, j, vector=True)
            grad_f = grad_f + df[..., None] * e_j
            div_T = div_T + _dot(dT, e_j)
            lap_f = lap_f + (self.d(df, j) - self.kappa[j] * df)
            rough = rough + (self.d(self.project(dT), j, vector=True)
                             - self.kappa[j][..., None] * dT)
        return lap_f, div_T, grad_f, self.project(rough)


# ----------------------------------------------------------------------
# Normal fields and Jacobi fields
# ----------------------------------------------------------------------

@dataclass
class NormalField:
    """Normal field V = i e^{i(1-n)s} f Theta + i e^{is} T on an s x angles grid."""

    n: int
    s: np.ndarray            # (Ns,)
    angle_grids: tuple
    f: np.ndarray            # (Ns, *grid)
    T: np.ndarray            # (Ns, *grid, n)
    valid: np.ndarray = None  # (Ns, *grid)

    def __post_init__(self):
        if self.valid is None:
            self.valid = np.ones(self.f.shape, dtype=bool)


def jacobi_field(kind: str, n: int, s, angle_grids, *,
                 a=None, alpha: float = 0.0, delta: float = None,
                 A=None) -> NormalField:
    """Sample one of the closed-form Jacobi-field families as an (f, T) pair.

    kind:
      "translation"  needs a (n-vector) and phase alpha:
                     f = sin((n-1)s + alpha) (a.Theta),
                     T = sin(alpha - s) (a - (a.Theta) Theta)
      "dilation"     needs delta:  f = delta (sin ns)^{1-1/n}, T = 0
      "su"           needs symmetric A:
                     f = (sin ns)^{-1/n} cos(ns) (A Theta . Theta),
                     T = (sin ns)^{-1/n} (A Theta - (A Theta . Theta) Theta)
      "o2n_rot"      needs antisymmetric A: T = (sin ns)^{-1/n} sin(2s) A Theta
      "o2n_boost"    needs antisymmetric A: T = (sin ns)^{-1/n} cos(2s) A Theta
    """
    s = np.asarray(s, dtype=float)
    mesh = np.stack(np.meshgrid(*angle_grids, indexing="ij"), axis=-1)
    theta = sphere_chart(mesh)            # grid + (n,)
    grid_shape = theta.shape[:-1]
    Ns = s.size
    s_col = s.reshape((Ns,) + (1,) * len(grid_shape))
    sin_ns = np.sin(n * s_col)

    f = np.zeros((Ns,) + grid_shape)
    T = np.zeros((Ns,) + grid_shape + (n,))

    if kind == "translation":
        a = np.asarray(a, dtype=float)
        if a.shape != (n,):
            raise ValueError("translation requires an n-vector a")
        adot = theta @ a
        tang = a - adot[..., None] * theta
        f = np.sin((n - 1) * s_col + alpha) * adot[None]
        T = np.sin(alpha - s_col)[..., None] * tang[None]
    elif kind == "dilation":
        if delta is None:
            raise ValueError("dilation requires delta")
        f = delta * sin_ns ** (1.0 - 1.0 / n) * np.ones((1,) + grid_shape)
    elif kind == "su":
        A = np.asarray(A, dtype=float)
        if np.max(np.abs(A - A.T)) > 1e-10:
            raise ValueError("su family requires a symmetric matrix")
        atheta = theta @ A.T
        quad = np.sum(atheta * theta, axis=-1)
        f = sin_ns ** (-1.0 / n) * np.cos(n * s_col) * quad[None]
        T = sin_ns[..., None] ** (-1.0 / n) * (atheta - quad[..., None] * theta)[None]
    elif kind in ("o2n_rot", "o2n_boost"):
        A = np.asarray(A, dtype=float)
        if np.max(np.abs(A + A.T)) > 1e-10:
            raise ValueError(f"{kind} family requires an antisymmetric matrix")
        atheta = theta @ A.T
        rad = np.sin(2 * s_col) if kind == "o2n_rot" else np.cos(2 * s_col)
        T = sin_ns[..., None] ** (-1.0 / n) * rad[..., None] * atheta[None]
    else:
        raise ValueError(f"unknown Jacobi family {kind!r}")

    return NormalField(n=n, s=s, angle_grids=tuple(angle_grids), f=f, T=T)


def linearized_apply(field: NormalField) -> NormalField:
    """Apply the (s, theta)-chart linearized mean-curvature operator.

    Returns the (f, T) components of (sin ns)^{-2/n} L_H V sampled on the
    grid; valid nodes lose two layers along s and each polar angle.  Only
    the s-rows 2 .. Ns-3 that keep valid nodes are computed: F and T are
    exactly 0 on the two rows at either end.  Closed-form Jacobi fields are
    annihilated to O(h^2).
    """
    n = field.n
    ops = SphereGridOps(field.angle_grids)
    s = field.s
    if s.size < 5:
        raise ValueError("s grid too coarse for nested second differences")
    hs = float(s[1] - s[0])
    if not np.allclose(np.diff(s), hs, rtol=0, atol=1e-12):
        raise ValueError("s grid must be uniform")
    s_col = s.reshape((s.size,) + (1,) * ops.m)
    sin_ns = np.sin(n * s_col)
    cos_ns = np.cos(n * s_col)[2:-2]

    def sturm(arr, sin_col):
        # (sin ns)^{2-2/n} d_s( (sin ns)^{2/n} d_s arr ) on rows 2 .. Ns-3, each
        # difference taken only where the next one reads it
        inner = sin_col[1:-1] ** (2.0 / n) * ((arr[2:] - arr[:-2]) / (2 * hs))
        return sin_col[2:-2] ** (2.0 - 2.0 / n) * ((inner[2:] - inner[:-2]) / (2 * hs))

    # each sphere term reads only its own s-row
    f, T = field.f[2:-2], field.T[2:-2]
    lap_f, div_T, grad_f, lap_T = ops.sphere_terms(f, T)
    F = np.zeros_like(field.f)
    F[2:-2] = (
        sturm(field.f, sin_ns)
        + lap_f
        - (n - 1) * f
        + (n * n - 1) * sin_ns[2:-2] ** 2 * f
        - 2.0 * cos_ns * div_T
    )
    TT = np.zeros_like(field.T)
    TT[2:-2] = (
        sturm(field.T, sin_ns[..., None])
        + lap_T
        - T
        + 3.0 * sin_ns[2:-2, ..., None] ** 2 * T
        + 2.0 * cos_ns[..., None] * grad_f
    )

    # two nested central differences: rows 2 .. Ns-3 along s and each polar
    # angle keep valid nodes (the azimuth is periodic)
    valid = np.zeros(field.f.shape, dtype=bool)
    valid[(slice(2, -2),) * ops.m] = True
    valid &= field.valid
    return NormalField(n=n, s=s, angle_grids=field.angle_grids, f=F, T=TT, valid=valid)
