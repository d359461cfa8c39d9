"""Command-line interface.

Commands
--------
validate <cfg>           hypothesis verdicts H1/H2/H3 and the neck scales
interaction <cfg>        Gamma/Lambda closed forms cross-checked by quadrature
neck --n N --eps E [--grid H] [--export P]
                         model-neck identities (beta = 1), FD minimality floor,
                         the lower end's approach to its plane graph; refuses a
                         sweep above PATCH_MAX_BYTES of samples, below 3 coarse
                         t nodes or whose FD metric overflows a float
spectrum --n N --k K     indicial roots, frozen-coefficient check (root errors
                         over (n/2 + k)^2), explicit solutions (n=3, k=1)
glue <cfg> [--export P]  assemble the surface, boundary gaps, curvature,
                         one matching step

Exit codes: 0 all checks pass, 1 a hypothesis/check failed, 2 input error.
The config file is JSON: n, points (k n-vectors), rotations (k row-major
n x n matrices, nested or flat), A0 (row-major), epsilon, rho_star, and an
optional "options" object (quadrature_nodes, sh_degree, outer_spacing,
neck_s_nodes, neck_angle_nodes).  The sphere rule has quadrature_nodes^(n-1)
nodes, at most quadrature.MAX_RULE_NODES.  glue samples each rho_* sphere
once on it and expands the gaps there up to sh_degree; the gaps and the
matching solve read that expansion, whose degree-2 sh_degree products need
quadrature_nodes >= 2 sh_degree + 1 (the azimuth's exactness) at every n.
NECKGLUE_THREADS caps the BLAS/OpenMP thread pools.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .assembler import GridSpec, assemble, boundary_gap, config_digest, curvature_report, \
    export_csv, export_ply, matching_step
from .config import H1_RESIDUAL_CUT, H2_RCOND_CUT, Configuration, build_interaction_system, \
    gamma_entry_quadrature, lambda_entry_quadrature
from .geometry import mean_curvature_field
from .green import balance_residual, default_outer_box
from .neck import NeckParams, asymptote_residual, default_angle_grids, neck_patch, \
    s_of_radius, s_to_t, t_to_s, waist_radius
from .quadrature import MAX_RULE_NODES, product_gauss_rule
from .report import RunReport
from .spectrum import ModeSolution, decay_rate, explicit_n3_residual, explicit_n3_solution, \
    frozen_characteristic_roots, indicial_roots, verify_f0

__all__ = ["main", "parse_config"]

# Every options key with its default (None: set by the configuration, in
# parse_config).  Keys with an int default must be integers.
OPTION_DEFAULTS = {"quadrature_nodes": 32, "sh_degree": 8, "neck_s_nodes": 48,
                   "neck_angle_nodes": None, "outer_spacing": None}
# Bytes of samples a run may hold: glue's outer box, each of its neck patches
# and all of them together (refused in parse_config), and neck's finer FD
# level.  2 cores, 5 GB ulimit -v: neck at n = 5 on the default grid (1.17 GB)
# passes in 34 s at 3.7 GB peak, n = 7 at --grid 0.8 (0.74 GB) in 39 s at
# 4.1 GB; n = 6 (default) needs 29 GB, n = 8 (--grid 0.8) 7.6 GB.  glue at
# n = 4 on the default grids (a 0.77 GB box) passes in 38.6 s at 3.5 GB peak;
# the flagship at neck_s_nodes 10000 (1.12 GB of necks) peaks at 2.47 GB.
PATCH_MAX_BYTES = 1.25e9
# Smallest accepted counts: the neck's nested second differences in s need 5
# nodes, a central difference along each neck angle 3.
OPTION_MINIMA = {"quadrature_nodes": 1, "sh_degree": 1, "neck_s_nodes": 5,
                 "neck_angle_nodes": 3}


def _patch_bytes(counts, n) -> float:
    """Bytes of samples, 2n floats a node, of a patch, counted, not built, as a
    float product: a count at the cap, which alone exceeds it, counts as inf."""
    return math.prod(float(c) if c < PATCH_MAX_BYTES else math.inf for c in counts) * 2 * n * 8


def _integer(path, key, value):
    """value as an int if it is a JSON integer (or an integral float)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{path}: {key} must be an integer, got {value!r}")
    return int(value)


def parse_config(path: str):
    """Parse and validate a configuration file.

    Returns (Configuration, options dict).  The options dict holds every key
    of OPTION_DEFAULTS, validated, with defaults filled in: neck_angle_nodes
    [24] * (n - 2) + [48] and outer_spacing rho_* / 4.  Malformed JSON
    is reported with line/column anchors; semantic violations name the
    offending key.
    """
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read config: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")

    def need(key):
        if key not in doc:
            raise ValueError(f"{path}: missing required key {key!r}")
        return doc[key]

    n = _integer(path, "n", need("n"))

    def numeric(key, value):
        entries = [value]
        for entry in entries:   # numpy would read "1e-4" and true as numbers
            if isinstance(entry, (str, bool)):
                raise ValueError(f"{path}: {key} must be numeric: got {entry!r}")
            entries += entry if isinstance(entry, list) else []
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {key} must be numeric: {exc}") from exc

    def square(key, value):
        arr = numeric(key, value)
        if arr.ndim == 1 and arr.size == n * n:
            arr = arr.reshape(n, n)  # flat lists are row-major
        if arr.shape != (n, n):
            raise ValueError(f"{path}: {key} must be a matrix of shape ({n}, {n}), nested "
                             f"or flat, got shape {arr.shape}")
        return arr

    def scalar(key):
        value = need(key)
        arr = numeric(key, value)
        if arr.ndim:
            raise ValueError(f"{path}: {key} must be a number, got {value!r}")
        return float(arr)

    rotations = need("rotations")
    if not isinstance(rotations, list) or not rotations:
        raise ValueError(f"{path}: rotations must be a non-empty list of {n} x {n} "
                         f"matrices, got {rotations!r}")
    points = numeric("points", need("points"))
    rotations = np.stack([square(f"rotations[{j}]", rot) for j, rot in enumerate(rotations)])
    A0 = square("A0", need("A0"))
    epsilon, rho_star = scalar("epsilon"), scalar("rho_star")

    try:
        config = Configuration(
            n=n, points=points, rotations=rotations, A0=A0,
            epsilon=epsilon, rho_star=rho_star,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    # balls that meet leave no outer piece between two necks to glue them to
    if rho_star >= config.min_separation / 2:
        raise ValueError(f"{path}: rho_star {rho_star!r} must be below half the smallest end "
                         f"separation {config.min_separation:.6g}, so that the rho_* balls "
                         f"are disjoint")

    # a null object, like a null entry, means it was omitted
    options = {} if doc.get("options") is None else doc["options"]
    if not isinstance(options, dict):
        raise ValueError(f"{path}: 'options' must be an object")
    unknown = sorted(set(options) - set(OPTION_DEFAULTS))
    if unknown:
        raise ValueError(f"{path}: unknown options key {unknown[0]!r}; "
                         f"known keys: {', '.join(OPTION_DEFAULTS)}")
    # a null entry means the key was omitted
    options = {key: _integer(path, key, value) if isinstance(OPTION_DEFAULTS[key], int)
               else value for key, value in options.items() if value is not None}
    if "neck_angle_nodes" in options:
        counts = options["neck_angle_nodes"]
        if not isinstance(counts, list) or len(counts) != n - 1:
            raise ValueError(f"{path}: neck_angle_nodes must be a list of n - 1 = {n - 1} "
                             f"integers, got {counts!r}")
        options["neck_angle_nodes"] = [_integer(path, "neck_angle_nodes", c) for c in counts]
    options = {**OPTION_DEFAULTS, "neck_angle_nodes": [24] * (n - 2) + [48],
               "outer_spacing": config.rho_star / 4.0, **options}
    for key, low in OPTION_MINIMA.items():
        value = options[key]
        if min(value if isinstance(value, list) else [value]) < low:
            raise ValueError(f"{path}: {key} must be >= {low}, got {value!r}")
    degree, nodes = options["sh_degree"], options["quadrature_nodes"]
    if nodes ** (n - 1) > MAX_RULE_NODES:
        raise ValueError(f"{path}: quadrature_nodes^(n - 1) = {nodes}^{n - 1} exceeds the "
                         f"sphere rule budget of {MAX_RULE_NODES} nodes")
    if 2 * degree + 1 > nodes:
        raise ValueError(f"{path}: sh_degree {degree} needs quadrature_nodes >= "
                         f"2 sh_degree + 1 = {2 * degree + 1}, got {nodes}")
    spacing = options["outer_spacing"]
    if isinstance(spacing, bool) or not isinstance(spacing, (int, float)) \
            or not 0 < spacing < float("inf"):
        raise ValueError(f"{path}: outer_spacing must be a positive finite number, "
                         f"got {spacing!r}")
    # a step as wide as the box leaves no outer patch to measure: at 100 the
    # flagship grid is one node and its FD sup reads 0
    half_width = default_outer_box(config)
    if spacing >= half_width:
        raise ValueError(f"{path}: outer_spacing must be below the outer box half-width "
                         f"{half_width:.6g}, got {spacing!r}")
    options["outer_spacing"] = float(spacing)
    # glue's outer box, whose axis is np.arange(-half_width, half_width +
    # spacing / 2, spacing) (clipped to the cap, so its ceiling is an int)
    axis = math.ceil(min((half_width + spacing / 2 + half_width) / spacing, PATCH_MAX_BYTES))
    neck = [options["neck_s_nodes"], *options["neck_angle_nodes"]]
    box, each_neck = _patch_bytes([axis] * n, n), _patch_bytes(neck, n)
    # glue keeps the box and every neck patch at once
    for size, grid in ((box, f"outer_spacing {spacing!r} grids the outer box with {axis}^{n}"),
                       (each_neck, "neck_s_nodes x neck_angle_nodes grid each neck with "
                                   + " x ".join(map(str, neck))),
                       (box + config.k * each_neck,
                        f"outer_spacing, neck_s_nodes and neck_angle_nodes grid the outer box "
                        f"and the {config.k} necks together with {axis}^{n} + {config.k} x "
                        + " x ".join(map(str, neck)))):
        if size > PATCH_MAX_BYTES:
            raise ValueError(f"{path}: {grid} nodes, {size / 1e9:.3g} GB of samples, above "
                             f"the {PATCH_MAX_BYTES / 1e9:g} GB cap")
    return config, options


# ----------------------------------------------------------------------
# Commands: each fills the report that main makes, times and writes
# ----------------------------------------------------------------------

def _interaction_sections(report, system):
    report.section("interaction", {
        "gamma": system.gamma,
        "lambda": system.lam,
        "alpha": system.alpha,
        "rcond": system.rcond,
        "h1": [
            {"pair": [r.j, r.jp], "residual": r.residual, "holds": r.holds}
            for r in system.h1
        ],
    })
    for r in system.h1:
        report.check(f"h1[{r.j},{r.jp}] residual", r.residual, H1_RESIDUAL_CUT, op=">")
    report.check("h2 rcond", system.rcond, H2_RCOND_CUT, op=">")
    if system.alpha is not None:
        resid = float(np.linalg.norm(system.gamma @ system.alpha - system.lam))
        scale = max(1.0, float(np.linalg.norm(system.lam)))
        report.check("alpha solve residual", resid / scale, 1e-10)
        report.flag("h3 positivity", bool(np.min(system.alpha) > 0),
                    f"alpha = {system.alpha.tolist()}")
    else:
        report.flag("h3 positivity", False, "Gamma numerically singular")


def _refuse_report_over(args, *exports) -> None:
    """Refuse a --report path that names one of the files the command exports."""
    for path in exports:
        if args.report and path and os.path.realpath(args.report) == os.path.realpath(path):
            raise ValueError(f"--report {args.report!r}: the JSON report would overwrite the "
                             f"export file {path!r}")


def cmd_validate(args, report, config, options) -> None:
    _interaction_sections(report, build_interaction_system(config))


def cmd_interaction(args, report, config, options) -> None:
    system = build_interaction_system(config)
    _interaction_sections(report, system)

    rule = product_gauss_rule(config.n, options["quadrature_nodes"])
    cross = {"entries": []}
    for j in range(config.k):
        for jp in range(j + 1, config.k):
            est = gamma_entry_quadrature(config, j, jp, rule)
            cross["entries"].append(
                {"pair": [j, jp], "quadrature": est, "closed_form": system.gamma[j, jp]}
            )
            report.check(f"gamma[{j},{jp}] quadrature |diff|", abs(est - system.gamma[j, jp]),
                         1e-6)
        est = lambda_entry_quadrature(config, j, rule)
        report.check(f"lambda[{j}] quadrature |diff|", abs(est - system.lam[j]), 1e-6)
    report.section("quadrature_cross_check", cross)


def cmd_neck(args, report) -> None:
    if not 0 < args.grid < np.inf:
        raise ValueError(f"--grid must be positive and finite, got {args.grid}")
    _refuse_report_over(args, args.export)
    params = NeckParams(n=args.n, beta=1.0, epsilon=args.eps)

    s = np.linspace(1e-3, np.pi / args.n - 1e-3, 20001)
    t = s_to_t(s, args.n)
    report.check("s<->t round trip", float(np.max(np.abs(t_to_s(t, args.n) - s))), 1e-12)
    report.check("sin(ns) cosh(nt) - 1", float(np.max(np.abs(np.sin(args.n * s) * np.cosh(args.n * t) - 1.0))), 1e-12)
    report.check("cos(ns) + tanh(nt)", float(np.max(np.abs(np.cos(args.n * s) + np.tanh(args.n * t)))), 1e-12)

    def level(h):
        # t nodes and angle counts of the FD level at spacing h (raised to
        # 1/PATCH_MAX_BYTES, below which the t count alone exceeds the cap)
        h = max(h, 1 / PATCH_MAX_BYTES)
        polar = max(9, int(round((np.pi - 1.0) / h)) | 1)
        azim = max(16, int(round(2 * np.pi / h)))
        return int(round(2.4 / h)) + 1, (polar,) * (args.n - 2) + (azim,)

    def build(h):
        t_nodes, counts = level(h)
        return neck_patch(params, angle_grids=default_angle_grids(args.n, counts, margin=0.5),
                          t_grid=np.linspace(-1.2, 1.2, t_nodes))

    t_nodes, counts = level(args.grid)
    if t_nodes < 3:   # no interior t node to measure
        raise ValueError(f"--grid {args.grid:g} gives the FD sweep's coarser level {t_nodes} "
                         f"t nodes, below the 3 its central differences need; lower --grid")
    t_nodes, counts = level(args.grid / 2)
    size = _patch_bytes([t_nodes, *counts], args.n)
    if size > PATCH_MAX_BYTES:
        raise ValueError(f"the FD sweep's finer level (--grid / 2 = {args.grid / 2:g}) holds "
                         f"{size / 1e9:.3g} GB of samples at --n {args.n}, above the "
                         f"{PATCH_MAX_BYTES / 1e9:g} GB cap; raise --grid or lower --n")
    coarse = build(args.grid)
    sups = []
    try:   # the FD metric is of order scale^2: at n = 2 it is 2 eps
        with np.errstate(over="raise", invalid="raise"):
            for patch in (coarse, build(args.grid / 2)):
                H, valid = mean_curvature_field(patch)
                sups.append(float(np.max(np.linalg.norm(H, axis=-1)[valid])))
    except FloatingPointError as exc:
        raise ValueError(f"epsilon {args.eps!r}: the FD metric, of order scale^2 = "
                         f"{params.scale ** 2:.3g}, overflows a float ({exc}); lower --eps") from exc
    order = float(np.log2(sups[0] / sups[1]))
    report.section("minimality", {"waist_radius": waist_radius(params),
                                  "fd_sup_by_level": sups, "observed_order": order})
    report.check("minimality FD order - 2", abs(order - 2.0), 0.4)

    # the lower end leaves its graph rho Theta + i eps beta rho^(1-n) R Theta
    # at the rate rho^(1-3n) (n >= 3; at n = 2 it is the graph)
    n = args.n
    rho = params.scale * np.array([2.0, 4.0, 8.0])
    gaps = asymptote_residual(params, rho)
    asymptote = {"rho": rho.tolist(), "sup_by_rho": gaps.tolist()}
    if n == 2:
        # the closed form is exactly 0 here: read the gap at Theta = e_1 (R = I)
        height = params.epsilon * params.beta * rho ** (1 - n)
        point = params.evaluate([s_of_radius(params, r) for r in rho], np.eye(n)[0])
        graph = np.stack([rho, 0 * rho, height, 0 * rho], axis=-1)
        asymptote["relative_gap"] = float(np.max(np.linalg.norm(point - graph, axis=-1) / height))
        report.check("asymptote gap / (eps beta rho^(1-n))", asymptote["relative_gap"], 1e-12)
    else:
        asymptote["slope"] = float(np.polyfit(np.log(rho), np.log(gaps), 1)[0])
        report.check("asymptote slope - (1-3n)", abs(asymptote["slope"] - (1 - 3 * n)), 0.05)
    report.section("asymptote", asymptote)
    if args.export:
        (export_csv if args.export.endswith(".csv") else export_ply)([coarse], args.export)
        report.section("export", {"path": args.export})


def cmd_spectrum(args, report) -> None:
    table = indicial_roots(args.n, args.k)
    sec = {
        "exact_mu": [str(v) for v in table.exact_mu],
        "exact_nu": None if table.exact_nu is None else [str(v) for v in table.exact_nu],
        "coexact": None if table.coexact is None else [str(v) for v in table.coexact],
    }
    if args.k >= 1:
        roots = frozen_characteristic_roots(args.n, args.k)
        expect = np.sort([float(table.exact_mu[0]), float(table.exact_mu[1]),
                          float(table.exact_nu[0]), float(table.exact_nu[1])])
        err = float(np.max(np.abs(np.sort(roots) - expect)))
        sec["frozen_roots"] = list(np.sort(roots))
        # divided by (n/2 + k)^2, M's scale: exact roots read 1.1e-12 at n = 3, k = 95
        scale = (args.n / 2 + args.k) ** 2
        report.check("frozen roots vs closed form", err / scale, 1e-12)
        rootsc = frozen_characteristic_roots(args.n, args.k, family="coexact")
        g = float(table.coexact[0])
        report.check("frozen coexact roots vs closed form",
                     float(np.max(np.abs(np.sort(rootsc) - np.array([-g, g])))) / scale, 1e-12)
    # divided by n^2/4, the scale of the equation's terms: one ulp of 3n^2/4
    # exceeds an absolute 1e-12 from n = 105 on
    report.check("f0 residual", verify_f0(args.n, np.linspace(-5.0, 5.0, 2001))
                 / (args.n * args.n / 4.0), 1e-12)
    if args.n == 3 and args.k == 1:
        report.check("explicit (a1,b1) residual", explicit_n3_residual(np.linspace(-3, 3, 241)), 1e-8)
        for end, lo, want, key, name in (
                (-1, -12.0, 2.5, "rate_minus_inf", "decay rate at -inf vs 5/2"),
                (+1, 2.0, 0.5, "rate_plus_inf", "growth rate at +inf vs 1/2")):
            t = np.linspace(lo, lo + 10.0, 400)
            sol = ModeSolution(3, 1, t, *explicit_n3_solution(t))
            sec[key] = decay_rate(sol, end=end)[0]
            report.check(name, abs(sec[key] - want), 1e-2)
    report.section("spectrum", sec)


def cmd_glue(args, report, config, options) -> None:
    csv_path = os.path.splitext(args.export)[0] + ".csv" if args.export else None
    if args.export and csv_path == args.export:
        raise ValueError(f"--export {args.export!r}: the CSV file would overwrite the PLY file")
    _refuse_report_over(args, args.export, csv_path)
    degree, nodes = options["sh_degree"], options["quadrature_nodes"]
    system = build_interaction_system(config)
    _interaction_sections(report, system)
    if not (system.h1_holds and system.h2 and system.h3):
        return

    grid = GridSpec(options["neck_s_nodes"], options["neck_angle_nodes"], options["outer_spacing"])
    surface = assemble(config, system.alpha, grid)
    balance = balance_residual(surface.green)
    report.section("balance", {"residual_per_end": balance})
    report.check("balance residual at Gamma^-1 Lambda", float(np.max(balance)), 1e-8)

    rule = product_gauss_rule(config.n, nodes)
    gaps, discrepancies = boundary_gap(surface, rule, degree)
    curv = curvature_report(surface)
    report.section("boundary_gap", gaps)
    report.section("curvature", curv)
    report.section("scales", surface.scales)
    # the neck is exactly minimal, so its FD sup|H| is the grid floor; in
    # the neck's own units it reads 0.005-0.009 at the default grids and
    # 0.06-0.08 at 17 x [9, 16], while 5 x [3, 3] reads ~4 (no resolution)
    for j, (neck, params) in enumerate(zip(curv["necks"], surface.neck_params)):
        report.check(f"neck[{j}] FD sup|H|*scale", neck["sup"] * params.scale, 0.1)

    if config.n == 2:
        report.skip("matching step", "the DtN difference -(2k+n-2) vanishes on constants at "
                                     "n = 2, so the matching operator is singular")
    else:
        step = matching_step(surface, system.gamma, discrepancies, rule, degree)
        report.section("matching_step", step)
        report.check("matching residual", step["residual_norm"], 1e-10)
        # the correction falls like eps^2 in the asymptotic range (0.046 on
        # the flagship at eps = 1e-4); at 0.1 of the solved scales it no
        # longer is a correction (4.7 at eps = 1e-3, rho_* = 0.45)
        report.check("matching max |delta|/alpha", step["max_relative_delta"], 0.1)

    if args.export:
        export_ply(surface, args.export, csv_path=csv_path)
        report.section("export", {"ply": args.export, "csv": csv_path})


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neckglue",
        description="numerical desingularization of plane configurations by minimal necks",
    )
    # accepted both before and after the subcommand (SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level)
    parser.add_argument("--report", default=None, help="write the JSON report to this path")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--report", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, config=False):
        # a command with a config positional gets (config, options) from main
        p = sub.add_parser(name, parents=[shared], help=help)
        if config:
            p.add_argument("config")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "check H1-H3 for a configuration", config=True)
    command("interaction", cmd_interaction, "Gamma/Lambda with quadrature cross-check",
            config=True)

    p = command("neck", cmd_neck, "model neck identities and minimality")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--grid", type=float, default=0.2,
                   help="FD grid spacing in the cylindrical chart (default 0.2)")
    p.add_argument("--export", default=None)

    p = command("spectrum", cmd_spectrum, "indicial roots and explicit solutions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = command("glue", cmd_glue, "assemble and verify the glued surface", config=True)
    p.add_argument("--export", default=None)
    return parser


def main(argv=None) -> int:
    """Run one command: make its report, let the command fill it, then time,
    print and (with --report) write it."""
    args = build_parser().parse_args(argv)
    try:
        if "config" in args:
            config, options = parse_config(args.config)
            report = RunReport(args.command, config_digest(config, options))
            args.func(args, report, config, options)
        else:
            report = RunReport(args.command)
            args.func(args, report)
        report.time_mark("total")
        report.print_summary()
        if args.report:
            report.write(args.report)
        return 0 if report.all_passed else 1
    except (ValueError, OSError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {args.command}: out of memory ({exc}); raise outer_spacing or lower "
              "neck_angle_nodes and neck_s_nodes (neck: raise --grid)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
