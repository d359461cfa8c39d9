"""Assembly of the approximate desingularized submanifold: the outer Green
graph with the end balls removed, plus one truncated, rescaled, twisted neck
per marked point, glued along circles of radius rho_*.

Per neck j the truncation parameters solve

    rho_* = (n beta_j eps)^{1/n} cos(s_*) (sin n s_*)^{-1/n}       (lower branch)
    e^{-n t_*} = sin(n s_*) / (1 - cos(n s_*)),

so the lower boundary circle sits at radius rho_* exactly; the neck is
translated by x_j + i eps c_j with c_j the regular part of G at x_j.  The
upper half of the neck is the image of the lower half under the exact
symmetry s -> pi/n - s composed with y-conjugation and the e^{i pi/n}
rotation, so its boundary is a rho_* circle in the rotated frame.

Boundary gaps compare the neck boundary circle against the outer graph at
the same angular nodes; curvature reports use the FD engine on neck patches
and the exact-derivative route on the outer graph (whose FD truncation,
proportional to eps h^2, would bury the eps^3 nonlinear residual at small
eps; the two routes are cross-checked at moderate eps in the test suite).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .config import Configuration
from .geometry import AmbientPoint, ImmersionPatch, mean_curvature_field, sphere_chart
from .green import GreenData, graph_mean_curvature, graph_patch, green_eval, \
    green_gradient, regular_part
from .neck import NeckParams, default_angle_grids, neck_patch, s_of_radius, s_to_t
from .quadrature import omega_n, sphere_rule

__all__ = [
    "GluedSurface",
    "GridSpec",
    "assemble",
    "boundary_gap",
    "curvature_report",
    "export",
    "export_csv",
    "export_ply",
    "hausdorff_to_planes",
    "scales_from",
]


def scales_from(epsilon: float, rho_star: float, beta: float, n: int):
    """Solve for the truncation parameters (s_*, t_*) of one neck."""
    params = NeckParams(n=n, beta=beta, epsilon=epsilon)
    s_star = s_of_radius(params, rho_star)  # raises when rho_* is unreachable
    t_star = float(s_to_t(s_star, n))
    return s_star, t_star


@dataclass
class GridSpec:
    """Resolution knobs for assembly."""

    neck_s_nodes: int = 48
    neck_angle_nodes: tuple = None     # per-angle counts; default set by n
    outer_spacing: float = None        # default rho_*/4
    outer_half_width: float = None     # default 2/rho_0
    boundary_angle_nodes: tuple = None
    polar_margin: float = 0.4

    def neck_angles(self, n: int) -> tuple:
        if self.neck_angle_nodes is not None:
            return tuple(self.neck_angle_nodes)
        return (24,) * (n - 2) + (48,)

    def boundary_angles(self, n: int) -> tuple:
        if self.boundary_angle_nodes is not None:
            return tuple(self.boundary_angle_nodes)
        return (24,) * (n - 2) + (64,)


@dataclass
class GluedSurface:
    """The assembled approximate solution plus its construction data."""

    config: Configuration
    alpha: np.ndarray
    outer: ImmersionPatch
    necks: list              # per end: ImmersionPatch
    neck_params: list        # per end: NeckParams
    scales: list             # per end: dict(s_star, t_star, rho_star)
    regular_parts: np.ndarray  # (k, n) translation constants c_j
    provenance: dict

    @property
    def green(self) -> GreenData:
        return GreenData(self.config, self.alpha)


def config_digest(config: Configuration, options: dict = None) -> str:
    """Short sha256 of the geometry and the resolved options."""
    payload = {
        "n": config.n,
        "points": config.points.tolist(),
        "rotations": config.rotations.tolist(),
        "A0": config.A0.tolist(),
        "epsilon": config.epsilon,
        "rho_star": config.rho_star,
        "options": options,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def assemble(config: Configuration, alpha, grid: GridSpec = None) -> GluedSurface:
    """Build the outer patch and the k truncated necks (beta_j = alpha_j)."""
    if grid is None:
        grid = GridSpec()
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (config.k,) or np.min(alpha) <= 0:
        raise ValueError("assembly requires positive neck scales (H3)")
    data = GreenData(config, alpha)
    n = config.n
    eps = config.epsilon
    rho_star = config.rho_star

    cjs = np.stack([regular_part(data, j) for j in range(config.k)])
    necks = []
    params_list = []
    scales = []
    for j in range(config.k):
        params = NeckParams(
            n=n, beta=float(alpha[j]), epsilon=eps,
            rotation=config.rotations[j],
            translation=AmbientPoint(config.points[j], eps * cjs[j]),
        )
        s_star, t_star = scales_from(eps, rho_star, float(alpha[j]), n)
        t_grid = np.linspace(t_star, -t_star, grid.neck_s_nodes)
        angle_grids = default_angle_grids(n, grid.neck_angles(n), margin=grid.polar_margin)
        necks.append(neck_patch(params, angle_grids=angle_grids, t_grid=t_grid))
        params_list.append(params)
        scales.append({"s_star": s_star, "t_star": t_star, "rho_star": rho_star})

    outer = graph_patch(
        data,
        half_width=grid.outer_half_width,
        spacing=grid.outer_spacing,
        exclusion=rho_star,
    )
    provenance = {"config_digest": config_digest(config), "alpha": alpha.tolist()}
    return GluedSurface(
        config=config, alpha=alpha, outer=outer, necks=necks,
        neck_params=params_list, scales=scales, regular_parts=cjs,
        provenance=provenance,
    )


# ----------------------------------------------------------------------
# Boundary gaps
# ----------------------------------------------------------------------

def _boundary_samples(surface: GluedSurface, j: int, angle_grids):
    """Neck lower-boundary samples and matching outer-graph samples."""
    cfg = surface.config
    n = cfg.n
    params = surface.neck_params[j]
    s_star = surface.scales[j]["s_star"]
    mesh = np.stack(np.meshgrid(*angle_grids, indexing="ij"), axis=-1)
    theta = sphere_chart(mesh)
    rad = params.scale * math.sin(n * s_star) ** (-1.0 / n)
    neck_x = rad * math.cos(s_star) * theta + params.translation.x
    neck_y = rad * math.sin(s_star) * (theta @ params.rotation.T) + params.translation.y
    base_x = cfg.points[j] + surface.scales[j]["rho_star"] * theta
    data = surface.green
    outer_y = cfg.epsilon * green_eval(data, base_x)
    return theta, neck_x, neck_y, base_x, outer_y


def boundary_gap(surface: GluedSurface, angle_grids=None):
    """Per-end boundary mismatch at the matching circles.

    Reports the sup position gap, the sup conormal angle gap, and the
    Theta-collinear L^2 projection of the height gap.  The x-parts agree
    exactly by construction of s_*, so the position gap is the height
    mismatch; its sup is dominated by the part of the outer field's linear
    term orthogonal to R_j Theta and decays like eps, while the collinear
    projection is killed by balancing and decays like eps^3.
    """
    cfg = surface.config
    n = cfg.n
    if angle_grids is None:
        angle_grids = default_angle_grids(n, GridSpec().boundary_angles(n), margin=0.4)
    data = surface.green
    rule = sphere_rule(n) if n <= 4 else None
    out = []
    for j in range(cfg.k):
        theta, neck_x, neck_y, base_x, outer_y = _boundary_samples(surface, j, angle_grids)
        pos_gap = np.sqrt(
            np.sum((neck_x - base_x) ** 2, axis=-1) + np.sum((neck_y - outer_y) ** 2, axis=-1)
        )
        collinear = _collinear_gap(surface, j, rule) if rule is not None else None

        # outer radial tangent d/dr (x_j + r Theta, eps G)
        DG = green_gradient(data, base_x)
        w_out = np.concatenate(
            [theta, cfg.epsilon * np.einsum("...il,...l->...i", DG, theta)], axis=-1
        )
        # neck radial tangent: d(neck)/ds / (dr/ds); dr/ds < 0 on the lower
        # branch, so -d/ds points away from the waist like the outer radial
        params = surface.neck_params[j]
        s_star = surface.scales[j]["s_star"]
        h = 1e-6
        def point(s):
            rad = params.scale * np.sin(n * s) ** (-1.0 / n)
            px = rad * np.cos(s) * theta
            py = rad * np.sin(s) * (theta @ params.rotation.T)
            return np.concatenate([px, py], axis=-1)
        w_neck = -(point(s_star + h) - point(s_star - h)) / (2 * h)
        cosang = np.sum(w_out * w_neck, axis=-1) / (
            np.linalg.norm(w_out, axis=-1) * np.linalg.norm(w_neck, axis=-1)
        )
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        out.append({
            "position_gap_sup": float(np.max(pos_gap)),
            "conormal_angle_sup": float(np.max(ang)),
            "collinear_gap_abs": collinear,
        })
    return out


def _collinear_gap(surface: GluedSurface, j: int, rule) -> float:
    """|(1/omega_n) int (y_outer - y_neck) . R_j Theta dtheta| at the circle;
    quadrature nodes carry explicit unit vectors, so no chart poles arise."""
    cfg = surface.config
    n = cfg.n
    params = surface.neck_params[j]
    s_star = surface.scales[j]["s_star"]
    nodes, w = rule.nodes, rule.weights
    rad = params.scale * math.sin(n * s_star) ** (-1.0 / n)
    rtheta = nodes @ params.rotation.T
    neck_y = rad * math.sin(s_star) * rtheta + params.translation.y
    base_x = cfg.points[j] + surface.scales[j]["rho_star"] * nodes
    outer_y = cfg.epsilon * green_eval(surface.green, base_x)
    proj = w @ np.sum((outer_y - neck_y) * rtheta, axis=1)
    return abs(float(proj)) / omega_n(n)


# ----------------------------------------------------------------------
# Curvature report
# ----------------------------------------------------------------------

def curvature_report(surface: GluedSurface, histogram_bins: int = 12):
    """Per-patch mean-curvature statistics.

    Neck patches: FD engine sup and histogram (the model is exactly minimal,
    so this is the h^2 discretization floor).  Outer patch: sup from the
    exact-derivative route (the eps^3 nonlinear residual) plus the FD sup
    for reference.
    """
    report = {"necks": [], "outer": {}}
    for j, patch in enumerate(surface.necks):
        H, valid = mean_curvature_field(patch)
        mags = np.linalg.norm(H, axis=-1)[valid]
        hist, edges = np.histogram(mags, bins=histogram_bins)
        report["necks"].append({
            "sup": float(mags.max()) if mags.size else 0.0,
            "histogram_counts": hist.tolist(),
            "histogram_edges": edges.tolist(),
        })
    data = surface.green
    outer = surface.outer
    n = surface.config.n
    base = outer.samples[..., :n][outer.mask]
    Ha = graph_mean_curvature(data, base)
    mags_a = np.linalg.norm(Ha, axis=-1)
    Hfd, valid = mean_curvature_field(outer)
    mags_fd = np.linalg.norm(Hfd, axis=-1)[valid]
    hist, edges = np.histogram(mags_a, bins=histogram_bins)
    report["outer"] = {
        "sup_analytic": float(mags_a.max()) if mags_a.size else 0.0,
        "sup_fd": float(mags_fd.max()) if mags_fd.size else 0.0,
        "histogram_counts": hist.tolist(),
        "histogram_edges": edges.tolist(),
    }
    return report


def hausdorff_to_planes(surface: GluedSurface, exclusion: float) -> float:
    """Sampled one-sided Hausdorff distance from the surface (outside balls
    around the marked points) to the union of the k+1 limit planes."""
    cfg = surface.config
    n = cfg.n
    eps = cfg.epsilon
    pts = []
    outer_pts = surface.outer.samples[surface.outer.mask]
    pts.append(outer_pts)
    for patch in surface.necks:
        pts.append(patch.samples[patch.mask])
    pts = np.concatenate(pts, axis=0)
    x_part = pts[..., :n]
    keep = np.ones(len(pts), dtype=bool)
    for j in range(cfg.k):
        keep &= np.linalg.norm(x_part - cfg.points[j], axis=-1) > exclusion
    pts = pts[keep]

    # plane Pi_0 = {y = 0}; plane Pi_j spanned by (cos(pi/n) u, sin(pi/n) R_j u)
    dists = [np.linalg.norm(pts[:, n:], axis=1)]
    c, s = math.cos(math.pi / n), math.sin(math.pi / n)
    for j in range(cfg.k):
        base = np.concatenate([cfg.points[j], np.zeros(n)])
        rel = pts - base
        # orthonormal basis of the plane: rows (c e_i, s R_j e_i)
        B = np.concatenate([c * np.eye(n), s * cfg.rotations[j].T], axis=1)  # (n, 2n)
        proj = rel @ B.T  # coordinates in the plane basis (orthonormal rows)
        dists.append(np.linalg.norm(rel - proj @ B, axis=1))
    return float(np.max(np.min(np.stack(dists), axis=0)))


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

def _patch_list(surface_or_patches):
    if isinstance(surface_or_patches, GluedSurface):
        return [surface_or_patches.outer] + list(surface_or_patches.necks)
    return list(surface_or_patches)


def _point_rows(patches, m: int, ambient: int):
    """Flatten all valid nodes to (patch_id, params..., coords...) rows."""
    rows = []
    for pid, patch in enumerate(patches):
        if patch.m != m or patch.ambient_dim != ambient:
            raise ValueError("patches disagree on parameter or ambient dimension")
        dims = patch.param_dims
        grids = [np.arange(d) * h for d, h in zip(dims, patch.spacings)]
        mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
        sel = patch.mask
        coords = patch.samples[sel]
        pars = mesh[sel]
        ids = np.full((coords.shape[0], 1), pid, dtype=float)
        rows.append(np.concatenate([ids, pars, coords], axis=1))
    return np.concatenate(rows, axis=0) if rows else np.empty((0, 1 + m + ambient))


_CHUNK_ROWS = 250  # rows per block; larger blocks are no faster and leave more heap resident


def _write_point_cloud(patches, ply_path=None, csv_path=None) -> None:
    """Write the valid nodes as ASCII PLY and/or CSV in one chunked pass: per
    block of _CHUNK_ROWS rows one `%` renders "patch_id params" and one the
    coordinates, each value once to 17 significant (lossless) digits; PLY
    lines are "coords id params", CSV lines "id,params,coords"."""
    patches = _patch_list(patches)
    if not patches:
        raise ValueError("nothing to export")
    m, ambient = patches[0].m, patches[0].ambient_dim
    rows = _point_rows(patches, m, ambient)
    names = (["x", "y", "z"] + [f"c{i}" for i in range(3, ambient)])[:ambient]
    ply_header = (
        "ply\nformat ascii 1.0\ncomment ambient space is R^{2n}; x y z are the "
        f"first three ambient coordinates (projection)\nelement vertex {len(rows)}\n"
        + "".join(f"property double {name}\n" for name in names) + "property int patch_id\n"
        + "".join(f"property double p{i}\n" for i in range(m)) + "end_header\n"
    )
    csv_header = ",".join(["patch_id"] + [f"p{i}" for i in range(m)]
                          + [f"c{i}" for i in range(ambient)]) + "\n"
    sinks = [(label, path, header) for label, path, header in
             (("PLY", ply_path, ply_header), ("CSV", csv_path, csv_header)) if path]
    lead_row = " ".join(["%d"] + ["%.17g"] * m)
    coord_row = " ".join(["%.17g"] * ambient)
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "w")) for _, path, _ in sinks]
            for fh, (_, _, header) in zip(files, sinks):
                fh.write(header)
            for start in range(0, len(rows), _CHUNK_ROWS):
                block = rows[start:start + _CHUNK_ROWS]
                lead = ("\n".join([lead_row] * len(block))
                        % tuple(block[:, :1 + m].ravel().tolist()))
                coords = ("\n".join([coord_row] * len(block))
                          % tuple(block[:, 1 + m:].ravel().tolist()))
                for fh, (label, _, _) in zip(files, sinks):
                    sep, parts = (" ", (coords, lead)) if label == "PLY" else (",", (lead, coords))
                    lines = zip(*(part.replace(" ", sep).split("\n") for part in parts))
                    fh.write("\n".join(map(sep.join, lines)) + "\n")
    except OSError as exc:
        where = " and ".join(f"{label} export to {path!r}" for label, path, _ in sinks)
        raise OSError(f"{where} failed: {exc}") from exc


def export_ply(surface_or_patches, path: str, csv_path: str = None) -> None:
    """ASCII PLY point cloud: x y z from the first three ambient coordinates
    (a projection for viewers), then the remaining coordinates, patch id and
    parameter coordinates as extra properties.  With csv_path, the CSV file
    of export_csv is written in the same pass."""
    _write_point_cloud(surface_or_patches, ply_path=path, csv_path=csv_path)


def export(surface_or_patches, format: str, path: str) -> None:
    """Write the point cloud in the requested format ('ply' or 'csv')."""
    if format not in ("ply", "csv"):
        raise ValueError(f"unknown export format {format!r} (use 'ply' or 'csv')")
    _write_point_cloud(surface_or_patches, **{f"{format}_path": path})


def export_csv(surface_or_patches, path: str) -> None:
    """CSV point cloud, one header row, 17-significant-digit (lossless) values."""
    _write_point_cloud(surface_or_patches, csv_path=path)
