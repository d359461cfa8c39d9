"""Assembly of the approximate desingularized submanifold: the outer Green
graph with the end balls removed, plus one truncated, rescaled, twisted neck
per marked point, glued along circles of radius rho_*.

The glued surface is closed-form data: the Green data of the outer scales
alpha and, per end j, a neck of its own scale beta_j (default alpha_j)
truncated where

    rho_* = (n beta_j eps)^{1/n} cos(s_*) (sin n s_*)^{-1/n}       (lower branch)
    e^{-n t_*} = sin(n s_*) / (1 - cos(n s_*)),

so the lower boundary circle sits at radius rho_* exactly; the neck is
translated by x_j + i eps c_j with c_j the regular part of G at x_j.  The
upper half of the neck is the image of the lower half under the exact
symmetry s -> pi/n - s composed with y-conjugation and the e^{i pi/n}
rotation, so its boundary is a rho_* circle in the rotated frame.  Its
gridded patches are built on first use (curvature report, export) and kept.

Everything measured on the rho_* spheres goes through one sampler: at unit
vectors Theta it returns the neck and outer-graph points and their radial
tangents d/drho, the neck's from the closed-form d/ds of NeckParams.evaluate.
boundary_gap calls it once per end and block of rule nodes, in one pass that
compares the two sides and analyzes the value and rho_*-scaled conormal gaps
in each end's frame (gap @ R_j, where the neck is collinear with Theta); the
matching step runs one linear matching solve on that analysis; neither
builds a patch.  Curvature reports use the FD engine on neck patches and the
exact-derivative route on the outer graph (whose FD truncation, proportional
to eps h^2, would bury the eps^3 nonlinear residual at small eps; the two
routes are cross-checked at moderate eps in the test suite).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .config import Configuration
from .geometry import AmbientPoint, ImmersionPatch, mean_curvature_field
from .green import GreenData, graph_mean_curvature, graph_patch, green_eval, \
    green_gradient, regular_part
from .matching import SphereGrid, match_boundaries, sh_analyze, split_theta
from .neck import NeckParams, default_angle_grids, neck_patch, s_of_radius, s_to_t
from .quadrature import QuadratureRule

__all__ = [
    "GluedSurface",
    "GridSpec",
    "assemble",
    "boundary_gap",
    "curvature_report",
    "export_csv",
    "export_ply",
    "matching_step",
]

POLAR_MARGIN = 0.4         # polar angle grids stay this far from the chart poles
HISTOGRAM_BINS = 12        # curvature-report histogram bins


@dataclass
class GridSpec:
    """Resolution of the patches a GluedSurface builds on first use: t and
    per-angle node counts per neck, and the outer box spacing."""

    neck_s_nodes: int
    neck_angle_nodes: tuple
    outer_spacing: float


@dataclass
class GluedSurface:
    """The approximate solution as closed-form data: the Green data of the
    outer scales alpha, and per end its NeckParams (scale beta_j, twist and
    translation) and truncation scales.  The patches on `grid` are built on
    first use and then kept."""

    green: GreenData
    grid: GridSpec
    neck_params: list        # per end: NeckParams
    scales: list             # per end: dict(s_star, t_star, rho_star)

    @property
    def config(self) -> Configuration:
        return self.green.config

    @property
    def alpha(self) -> np.ndarray:
        return self.green.alpha

    @functools.cached_property
    def necks(self) -> list:
        """Per end, the neck on the t grid from t_* to -t_* and the angle grids."""
        angle_grids = default_angle_grids(self.config.n, self.grid.neck_angle_nodes,
                                          margin=POLAR_MARGIN)
        return [neck_patch(params, angle_grids=angle_grids, t_grid=np.linspace(
                    scales["t_star"], -scales["t_star"], self.grid.neck_s_nodes))
                for params, scales in zip(self.neck_params, self.scales)]

    @functools.cached_property
    def outer(self) -> ImmersionPatch:
        """The outer graph on its box grid, minus the rho_* balls."""
        return graph_patch(self.green, self.grid.outer_spacing)


def config_digest(config: Configuration, options: dict) -> str:
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


def assemble(config: Configuration, alpha, grid: GridSpec, beta=None) -> GluedSurface:
    """The glued surface with outer scales alpha and neck scales beta
    (default: beta_j = alpha_j), as closed-form data; no patch is built."""
    alpha = np.asarray(alpha, dtype=float)
    beta = alpha if beta is None else np.asarray(beta, dtype=float)
    for given in (alpha, beta):
        if given.shape != (config.k,) or np.min(given) <= 0:
            raise ValueError("assembly requires positive neck scales (H3)")
    green = GreenData(config, alpha)
    eps, rho_star = config.epsilon, config.rho_star
    params_list, scales = [], []
    for j in range(config.k):
        params = NeckParams(
            n=config.n, beta=float(beta[j]), epsilon=eps, rotation=config.rotations[j],
            translation=AmbientPoint(config.points[j], eps * regular_part(green, j)),
        )
        s_star = s_of_radius(params, rho_star)  # raises when rho_* is unreachable
        params_list.append(params)
        scales.append({"s_star": s_star, "t_star": float(s_to_t(s_star, config.n)),
                       "rho_star": rho_star})
    return GluedSurface(green=green, grid=grid, neck_params=params_list, scales=scales)


# ----------------------------------------------------------------------
# Boundary gaps
# ----------------------------------------------------------------------

def _boundary_samples(surface: GluedSurface, j: int, theta):
    """Both sides of end j's rho_* sphere at unit vectors theta (..., n).

    Returns (neck, neck_dr, outer, outer_dr), each (..., 2n) as (x, y): the
    neck's lower-boundary point and the outer-graph point x_j + rho_* Theta
    + i eps G, each with its radial tangent d/drho.  The neck's is its
    closed-form d/ds over dr/ds (< 0 on the lower branch, so it points away
    from the waist like the outer (Theta, eps DG Theta)).
    """
    cfg = surface.config
    x, y, dx, dy = surface.neck_params[j].evaluate(surface.scales[j]["s_star"], theta,
                                                   with_ds=True)
    drds = np.sum(dx * theta, axis=-1, keepdims=True)   # dx/ds = (dr/ds) Theta
    base_x = cfg.points[j] + surface.scales[j]["rho_star"] * theta
    data = surface.green
    outer_dy = cfg.epsilon * np.einsum("...il,...l->...i", green_gradient(data, base_x), theta)
    return (np.concatenate([x, y], axis=-1),
            np.concatenate([dx, dy], axis=-1) / drds,
            np.concatenate([base_x, cfg.epsilon * green_eval(data, base_x)], axis=-1),
            np.concatenate([theta, outer_dy], axis=-1))


def boundary_gap(surface: GluedSurface, rule: QuadratureRule, degree: int):
    """One pass over the rho_* spheres at the nodes of `rule`, streamed in
    sh_analyze's blocks and sampling each end once per block.  Returns
    (rows, discrepancies).

    rows[j] holds the sup position gap and the sup conormal angle gap over
    the nodes, and |c1|, the Theta-collinear projection (1/omega_n) int
    (y_outer - y_neck) . R_j Theta dtheta that the matching solve uses (Theta
    is exactly degree 1, so c1 is the rule's weighted sum at any degree).
    The x-parts agree by construction of s_*, so the position gap is the
    height mismatch; its sup decays like eps, while the collinear projection
    is killed by balancing and decays like eps^3.  discrepancies[j] pairs
    the height gap and the rho_*-scaled conormal gap rho_* d/drho (y_outer -
    y_neck), in the end's frame (gap @ R_j: the neck is collinear with R_j
    Theta there) and expanded up to `degree`.
    """
    cfg = surface.config
    n, rho = cfg.n, cfg.rho_star
    position, angle = np.zeros(cfg.k), np.zeros(cfg.k)

    def gaps(nodes):   # (B, 2k, n): per end the value gap, then the conormal gap
        out = []
        for j, params in enumerate(surface.neck_params):
            neck, neck_dr, outer, outer_dr = _boundary_samples(surface, j, nodes)
            cosang = np.sum(outer_dr * neck_dr, axis=-1) / (
                np.linalg.norm(outer_dr, axis=-1) * np.linalg.norm(neck_dr, axis=-1))
            position[j] = np.maximum(position[j], np.max(np.linalg.norm(neck - outer, axis=-1)))
            angle[j] = np.maximum(angle[j], np.max(np.arccos(np.clip(cosang, -1.0, 1.0))))
            out += [(outer[:, n:] - neck[:, n:]) @ params.rotation,
                    rho * (outer_dr[:, n:] - neck_dr[:, n:]) @ params.rotation]
        return np.stack(out, axis=1)

    expansions = sh_analyze(gaps, SphereGrid(n, degree), rule)
    discrepancies = list(zip(expansions[0::2], expansions[1::2]))
    rows = [{"position_gap_sup": float(p), "conormal_angle_sup": float(a),
             "collinear_gap_abs": abs(split_theta(value)[0])}
            for p, a, (value, _) in zip(position, angle, discrepancies)]
    return rows, discrepancies


def matching_step(surface: GluedSurface, gamma, discrepancies, rule: QuadratureRule) -> dict:
    """Run one linear matching solve (n >= 3) on the per-end discrepancies
    of boundary_gap, analyzed on `rule` (recorded by its node count).
    max_relative_delta = max_j max(|delta alpha_j|, |delta beta_j|) / alpha_j
    measures how far the measured surface sits from the solved scales.
    """
    corr = match_boundaries(surface.config, surface.alpha, discrepancies, gamma=gamma)
    relative = np.maximum(np.abs(corr.delta_alpha), np.abs(corr.delta_beta)) / surface.alpha
    return {
        "sh_degree": discrepancies[0][0].grid.L,
        "rule_nodes": len(rule.nodes),
        "delta_alpha": corr.delta_alpha,
        "delta_beta": corr.delta_beta,
        "max_relative_delta": float(np.max(relative)),
        "phi_l2": [p.norm() for p in corr.phi],
        "phi_tilde_l2": [p.norm() for p in corr.phi_tilde],
        "residual_norm": corr.residual_norm,
    }


# ----------------------------------------------------------------------
# Curvature report
# ----------------------------------------------------------------------

def curvature_report(surface: GluedSurface):
    """Per-patch mean-curvature statistics (HISTOGRAM_BINS-bin histograms).

    Neck patches: FD engine sup and histogram (the model is exactly minimal,
    so this is the h^2 discretization floor).  Outer patch: sup from the
    exact-derivative route (the eps^3 nonlinear residual) plus the FD sup
    for reference.
    """
    def stats(mags, sup="sup"):
        hist, edges = np.histogram(mags, bins=HISTOGRAM_BINS)
        return {sup: float(mags.max()) if mags.size else 0.0,
                "histogram_counts": hist.tolist(), "histogram_edges": edges.tolist()}

    report = {"necks": []}
    for patch in surface.necks:
        H, valid = mean_curvature_field(patch)
        report["necks"].append(stats(np.linalg.norm(H, axis=-1)[valid]))
    outer = surface.outer
    Ha = graph_mean_curvature(surface.green, outer.samples[..., :surface.config.n][outer.mask])
    Hfd, valid = mean_curvature_field(outer)
    mags_fd = np.linalg.norm(Hfd, axis=-1)[valid]
    report["outer"] = dict(stats(np.linalg.norm(Ha, axis=-1), "sup_analytic"),
                           sup_fd=float(mags_fd.max()) if mags_fd.size else 0.0)
    return report


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

def _point_rows(patches, m: int, ambient: int):
    """Flatten all valid nodes to (patch_id, params..., coords...) rows."""
    rows = []
    for pid, patch in enumerate(patches):
        if patch.m != m or patch.ambient_dim != ambient:
            raise ValueError("patches disagree on parameter or ambient dimension")
        grids = [np.arange(d) * h for d, h in zip(patch.param_dims, patch.spacings)]
        mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
        coords = patch.samples[patch.mask]
        ids = np.full((len(coords), 1), pid, dtype=float)
        rows.append(np.concatenate([ids, mesh[patch.mask], coords], axis=1))
    return np.concatenate(rows, axis=0) if rows else np.empty((0, 1 + m + ambient))


_CHUNK_ROWS = 4096  # rows per block: fastest of 250-16,384 on the flagship, peak RSS within 0.5 MB


def _write_point_cloud(source, ply_path=None, csv_path=None) -> None:
    """Write the valid nodes as ASCII PLY and/or CSV in one chunked pass.  Per
    block of _CHUNK_ROWS rows, each column's distinct values (by 64-bit
    pattern, so -0.0 stays "-0") are rendered by one `%` ("%d" for the patch
    id, else "%.17g": lossless) and expanded through the inverse index; PLY
    lines are "coords id params", CSV lines "id,params,coords"."""
    patches = [source.outer, *source.necks] if isinstance(source, GluedSurface) else list(source)
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
    # (label, path, header, separator, leading columns moved to the line's end)
    sinks = [sink for sink in (("PLY", ply_path, ply_header, " ", 1 + m),
                               ("CSV", csv_path, csv_header, ",", 0)) if sink[1]]
    specs = ["%d"] + ["%.17g"] * (m + ambient)
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "w")) for _, path, *_ in sinks]
            for fh, (_, _, header, _, _) in zip(files, sinks):
                fh.write(header)
            for start in range(0, len(rows), _CHUNK_ROWS):
                texts = []
                for spec, column in zip(specs, rows[start:start + _CHUNK_ROWS].T):
                    bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
                    distinct = "\n".join([spec] * len(bits)) % tuple(bits.view(float).tolist())
                    texts.append(np.array(distinct.split("\n"), dtype=object)[inverse].tolist())
                for fh, (_, _, _, sep, shift) in zip(files, sinks):
                    lines = zip(*texts[shift:], *texts[:shift])
                    fh.write("\n".join(map(sep.join, lines)) + "\n")
    except OSError as exc:
        where = " and ".join(f"{label} export to {path!r}" for label, path, *_ in sinks)
        raise OSError(f"{where} failed: {exc}") from exc


def export_ply(surface_or_patches, path: str, csv_path: str = None) -> None:
    """ASCII PLY point cloud: x y z from the first three ambient coordinates
    (a projection for viewers), then the remaining coordinates, patch id and
    parameter coordinates as extra properties.  With csv_path, the CSV file
    of export_csv is written in the same pass."""
    _write_point_cloud(surface_or_patches, ply_path=path, csv_path=csv_path)


def export_csv(surface_or_patches, path: str) -> None:
    """CSV point cloud, one header row, 17-significant-digit (lossless) values."""
    _write_point_cloud(surface_or_patches, csv_path=path)
