"""Dimension-generic ambient geometry and a finite-difference engine for
sampled immersions into R^{2n} ~ C^n.

A point x + iy of C^n is the real 2n-vector (x_1 .. x_n, y_1 .. y_n), one
trailing axis of length 2n in every array of points or tangents.
Immersions are sampled on rectangular parameter grids; the first fundamental
form and the mean-curvature vector are obtained from second-order central
differences.  The mean-curvature vector is the normal projection of the
metric-contracted second derivatives,

    H = g^{ij} (d_i d_j X)^perp,

which coincides with g^{ij}(d_i d_j X - Gamma^k_ij d_k X) and is exactly
orthogonal to the FD tangent space by construction.

The sphere chart is the hyperspherical one: theta_1 .. theta_{n-2} in [0, pi]
are polar angles, theta_{n-1} in [0, 2pi) is the azimuth, and

    Theta = (sin t1 ... sin t_{n-2} cos t_{n-1},
             sin t1 ... sin t_{n-2} sin t_{n-1}, ..., sin t1 cos t2, cos t1).

Its coordinate directions are mutually orthogonal, |dTheta/dtheta_k| =
prod_{i<k} sin t_i, and the unit one e_k is the chart turned a quarter:
Theta with t_i -> pi/2 for i < k and t_k -> t_k + pi/2.

Chart poles (any polar angle at 0 or pi) are masked, never evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImmersionPatch",
    "central_difference",
    "check_orthogonal",
    "mean_curvature_field",
    "metric_inverse",
    "sphere_chart",
]


def check_orthogonal(M: np.ndarray) -> float:
    """Orthogonality defect max-norm |M^T M - I|; 0 for M in O(n)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    return float(np.max(np.abs(M.T @ M - np.eye(M.shape[0]))))


# ----------------------------------------------------------------------
# Hyperspherical chart
# ----------------------------------------------------------------------

def sphere_chart(angles: np.ndarray) -> np.ndarray:
    """Theta(angles) on S^{n-1} from (..., n-1) chart angles (the last one
    the azimuth), broadcasting over leading axes; built from the azimuth
    outward, one polar angle at a time."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] < 1:
        raise ValueError("need at least one angle (dimension >= 2)")
    theta = np.stack([np.cos(angles[..., -1]), np.sin(angles[..., -1])], axis=-1)
    for k in range(angles.shape[-1] - 2, -1, -1):
        a = angles[..., k]
        theta = np.concatenate([np.sin(a)[..., None] * theta, np.cos(a)[..., None]], axis=-1)
    return theta


# ----------------------------------------------------------------------
# Immersion patches and the FD engine
# ----------------------------------------------------------------------

@dataclass
class ImmersionPatch:
    """Immersion samples on a rectangular parameter grid.

    samples has shape dims + (2n,); mask flags usable nodes (poles and
    excluded regions are False).  periodic marks axes with wraparound
    topology (the azimuth); central differences never cross a non-periodic
    boundary, so edge nodes of such axes are simply not evaluable.
    """

    spacings: tuple
    samples: np.ndarray
    mask: np.ndarray = None
    periodic: tuple = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        m = self.samples.ndim - 1
        self.spacings = tuple(float(h) for h in self.spacings)
        if len(self.spacings) != m:
            raise ValueError("one spacing per parameter axis required")
        if any(h <= 0 for h in self.spacings):
            raise ValueError("spacings must be positive")
        if self.samples.shape[-1] % 2:
            raise ValueError("ambient dimension must be even (R^{2n})")
        if self.mask is None:
            self.mask = np.ones(self.samples.shape[:-1], dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.samples.shape[:-1]:
                raise ValueError("mask shape must match the parameter grid")
        if self.periodic is None:
            self.periodic = (False,) * m
        else:
            self.periodic = tuple(bool(p) for p in self.periodic)
            if len(self.periodic) != m:
                raise ValueError("one periodic flag per parameter axis required")

    @property
    def param_dims(self) -> tuple:
        return self.samples.shape[:-1]

    @property
    def m(self) -> int:
        return self.samples.ndim - 1

    @property
    def ambient_dim(self) -> int:
        return self.samples.shape[-1]


def _wrapped_rows(a, out, axis):
    """Matching slices (out[i], a[i+1], a[i], a[i-1]) along axis: the
    interior block, then the two end rows, whose neighbours wrap around."""
    src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    size = src.shape[0]
    yield dst[1:-1], src[2:], src[1:-1], src[:-2]
    for i in {0, size - 1}:
        j, k = (i + 1) % size, (i - 1) % size
        yield dst[i : i + 1], src[j : j + 1], src[i : i + 1], src[k : k + 1]


def _three_point(plus, centre, minus, h, order, out):
    """3-point stencil into out: (plus - minus) / 2h or (plus - 2 centre + minus) / h^2."""
    if order == 1:
        np.subtract(plus, minus, out=out)
        out /= 2 * h
    else:
        np.multiply(centre, 2, out=out)
        np.subtract(plus, out, out=out)
        out += minus
        out /= h**2
    return out


def central_difference(a: np.ndarray, axis: int, h: float, order: int = 1) -> np.ndarray:
    """Second-order central difference of a along axis, from slices.

    order 1 gives (a[i+1] - a[i-1]) / 2h, order 2 gives
    (a[i+1] - 2 a[i] + a[i-1]) / h^2.  Neighbours wrap around at both ends,
    so rows whose stencil crosses a non-periodic edge hold wrapped values
    that the caller must mask.
    """
    out = np.empty_like(a)
    for d, plus, centre, minus in _wrapped_rows(a, out, axis):
        _three_point(plus, centre, minus, h, order, d)
    return out


def _stencil_valid(mask: np.ndarray, periodic) -> np.ndarray:
    """Nodes whose full 3^m neighbourhood is in-grid and masked valid: the
    hypercube is a product of 3-node stencils, so erode one axis at a time."""
    valid = mask
    for ax in range(mask.ndim):
        eroded = np.empty_like(valid)
        for d, plus, centre, minus in _wrapped_rows(valid, eroded, ax):
            np.logical_and(plus, minus, out=d)
            d &= centre
        if not periodic[ax]:
            edges = np.moveaxis(eroded, ax, 0)
            edges[0] = edges[-1] = False
        valid = eroded
    return valid


def metric_inverse(J):
    """Entries ginv[a][b] of the inverse of g_ab = J_a . J_b, per node.

    Unpivoted LDL^T over the m x m entries, then g^{-1} = L^{-T} D^{-1} L^{-1}.
    ok is False where a pivot is not positive and finite (g not positive
    definite or not finite); such pivots are replaced by 1 so every entry
    stays finite.
    """
    m = len(J)
    g = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            g[a][b] = g[b][a] = np.einsum("...c,...c->...", J[a], J[b])
    L = [[None] * m for _ in range(m)]
    D = []
    ok = np.ones(g[0][0].shape, dtype=bool)
    for j in range(m):
        d = g[j][j] - sum(L[j][k] ** 2 * D[k] for k in range(j))
        good = np.isfinite(d) & (d > 0)
        ok &= good
        D.append(np.where(good, d, 1.0))
        for i in range(j + 1, m):
            L[i][j] = (g[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
    # M = L^{-1}, unit lower triangular, by forward substitution
    M = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i):
            M[i][j] = -sum(L[i][k] * M[k][j] for k in range(j, i))
    ginv = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            ginv[a][b] = ginv[b][a] = sum(M[k][a] * M[k][b] / D[k] for k in range(b, m))
    return ginv, ok


# Bytes of samples per row block of mean_curvature_field (at least one row).
# Sweep, best of 5 (2 cores, numpy 2.4.6, one BLAS thread), the flagship's
# three patches | the neck_modes n = 4 patches (a row is 1.8 MB at h = 0.1),
# with the tracemalloc peak: 0.25 MiB 0.161 s 12 MB | 0.712 s 68 MB;
# 0.5 MiB .137/15 | .627/68; 1 MiB .149/20 | .626/68; 2 MiB .152/30 | .635/68;
# 4 MiB .170/51 | .699/88; 8 MiB .204/91 | .863/126.  The old 16-row blocks
# with halo rows: .174/39 | .960/362.
_BLOCK_BYTES = 1 << 20


def _mean_curvature_block(rows, spacings):
    """(H, ok) on the middle rows of rows (its first and last rows are axis-0
    neighbours only); wraps along other axes are garbage, validity is the
    caller's job.  ok is False where the FD metric is not positive definite."""
    m = rows.ndim - 1
    plus, centre, minus = rows[2:], rows[1:-1], rows[:-2]

    def diff(a, order=1):
        # only the axis-0 terms J_0 and d_0^2 X read the neighbour rows
        if a == 0:
            return _three_point(plus, centre, minus, spacings[0], order, np.empty_like(centre))
        return central_difference(centre, a, spacings[a], order)

    J = [diff(a) for a in range(m)]
    ginv, ok = metric_inverse(J)
    # W = g^{ab} d_a d_b X, one mixed difference d_b(d_a X) per pair a < b
    for a in range(m):
        d2 = diff(a, 2)
        d2 *= ginv[a][a][..., None]
        W = d2 if a == 0 else np.add(W, d2, out=W)
        for b in range(a + 1, m):
            dab = central_difference(J[a], b, spacings[b])
            dab *= 2 * ginv[a][b][..., None]
            W += dab
    # subtract the tangential part: W - J g^{-1} J^T W
    JtW = [np.einsum("...c,...c->...", J[a], W) for a in range(m)]
    for a in range(m):
        coeff = sum(ginv[a][b] * JtW[b] for b in range(m))
        W -= J[a] * coeff[..., None]
    return W, ok


def mean_curvature_field(patch: ImmersionPatch):
    """Mean-curvature vector at every evaluable node.

    Returns (H, valid): H has the shape of samples (zero where invalid) and
    valid flags nodes with a complete, in-mask second-order stencil and a
    positive definite FD metric.  Axis 0 runs in blocks of about
    _BLOCK_BYTES of samples, which bounds the working set on 4-d grids.  A
    block computes its own rows only: its two neighbour rows, taken with
    wrap-around, feed just J_0 and d_0^2 X.
    """
    valid = _stencil_valid(patch.mask, patch.periodic)
    H = np.zeros_like(patch.samples)
    n0 = patch.samples.shape[0]
    chunk = max(1, _BLOCK_BYTES // patch.samples[0].nbytes)
    first, stop = (0, n0) if patch.periodic[0] else (1, n0 - 1)
    for lo in range(first, stop, chunk):
        hi = min(lo + chunk, stop)
        rows = patch.samples.take(np.arange(lo - 1, hi + 1), axis=0, mode="wrap")
        H[lo:hi], ok = _mean_curvature_block(rows, patch.spacings)
        valid[lo:hi] &= ok
    H[~valid] = 0.0
    return H, valid
