"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured values and runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from neckglue.assembler import GridSpec, assemble, boundary_gap, export_csv, export_ply
from neckglue.config import (
    Configuration,
    build_interaction_system,
    gamma_entry_quadrature,
    gamma_matrix,
    neck_scales,
)
from neckglue.geometry import mean_curvature_field
from neckglue.green import GreenData, balance_residual, graph_mean_curvature
from neckglue.matching import SphereGrid, match_boundaries, split_theta
from neckglue.neck import NeckParams, default_angle_grids, jacobi_field, \
    linearized_apply, neck_patch
from neckglue.quadrature import omega_n, product_gauss_rule
from neckglue.spectrum import ModeSolution, decay_rate, explicit_n3_residual, \
    explicit_n3_solution, exterior_mode_solve, frozen_characteristic_roots, \
    indicial_roots, integrate_mode_system, verify_f0

from conftest import flagship_at, rot_e1
from oracles import point_rows, symmetric_pair_gamma


class _Criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.start = time.perf_counter()

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {self.number} ({self.label}): {detail} "
              f"[{elapsed:.1f} s]")
        assert ok, f"criterion {self.number}: {detail}"


def test_criterion_1_gamma12_closed_form(flagship):
    crit = _Criterion(1, "gamma_12 closed form")
    g = gamma_matrix(flagship)[0, 1]
    err_value = abs(g + math.pi / 3)
    oracle = symmetric_pair_gamma(np.eye(3), rot_e1(math.pi / 2), 3)
    err_oracle = abs(g - oracle)
    err_quad = abs(gamma_entry_quadrature(flagship, 0, 1, product_gauss_rule(3, 32)) - g)
    ok = err_value < 1e-12 and err_oracle < 1e-12 and err_quad < 1e-12
    crit.finish(ok, f"-pi/3 err {err_value:.2e}, oracle err {err_oracle:.2e}, "
                    f"product rule err {err_quad:.2e}")


def test_criterion_2_degenerate_gamma():
    crit = _Criterion(2, "equal rotations give Gamma = 0")
    # exact-arithmetic case (signed permutation rotations, axis-aligned
    # separations so every xi is an exact basis vector): literal zero
    P = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    cfg_exact = Configuration(3, [[1, 0, 0], [-1, 0, 0], [3, 0, 0]], [P, P, P],
                              np.eye(3), 1e-4, 0.1)
    closed_exact = float(np.max(np.abs(gamma_matrix(cfg_exact))))
    # generic equal rotations: zero to machine rounding of the trace identity
    R = rot_e1(0.8)
    cfg = Configuration(3, [[1, 0, 0], [-1, 0, 0], [0, 2, 0]], [R, R, R],
                        np.eye(3), 1e-4, 0.1)
    closed = float(np.max(np.abs(gamma_matrix(cfg))))
    rule = product_gauss_rule(3, 32)
    quad = 0.0
    for j in range(3):
        for jp in range(j + 1, 3):
            est = gamma_entry_quadrature(cfg, j, jp, rule)
            quad = max(quad, abs(est))
    ok = closed_exact == 0.0 and closed < 1e-14 and quad < 1e-6
    crit.finish(ok, f"closed form: exact case {closed_exact:.1e}, generic case "
                    f"{closed:.1e}; quadrature max {quad:.2e}")


def test_criterion_3_flagship_h3(flagship):
    crit = _Criterion(3, "flagship neck scales")
    system = build_interaction_system(flagship)
    resid = float(np.linalg.norm(system.gamma @ system.alpha - system.lam))
    ok = (
        np.max(np.abs(system.alpha - [4.0, 12.0])) < 1e-12
        and resid < 1e-12
        and system.h3
    )
    alpha_neg, h2_neg, h3_neg, _ = neck_scales(system.gamma, -system.lam)
    ok = ok and h2_neg and not h3_neg and np.max(np.abs(alpha_neg + [4.0, 12.0])) < 1e-12
    crit.finish(ok, f"alpha = {system.alpha.tolist()}, solve residual {resid:.2e}, "
                    f"A0 = -I flips to {alpha_neg.tolist()} (h3 fails)")


def test_criterion_4_model_minimality():
    crit = _Criterion(4, "model neck minimality, order 2 in h")
    orders = {}
    for n in (2, 3, 4):
        params = NeckParams(n=n, beta=1.0, epsilon=1.0 / n)
        sups = []
        hs = []
        for level in range(3):
            f = 2**level
            counts = (8 * f + 1,) * (n - 2) + (16 * f,)
            grids = default_angle_grids(n, counts, margin=0.5)
            patch = neck_patch(params, angle_grids=grids,
                               t_grid=np.linspace(-1.0, 1.0, 16 * f + 1))
            H, valid = mean_curvature_field(patch)
            sups.append(float(np.linalg.norm(H, axis=-1)[valid].max()))
            hs.append(1.0 / f)
        orders[n] = float(np.polyfit(np.log(hs), np.log(sups), 1)[0])
    ok = all(abs(o - 2.0) <= 0.2 for o in orders.values())
    crit.finish(ok, f"observed orders {orders}")


def _kernel_residual(kind, level, **kw):
    f = 2**level
    hs = 4e-3 / f
    grids = default_angle_grids(3, (100 * f + 1, 200 * f), margin=0.6)
    keep = (grids[0] >= 0.8) & (grids[0] <= math.pi - 0.8)
    sup = 0.0
    for sc in np.array([0.42, 0.5, 0.58]) * math.pi / 3:
        s = sc + hs * np.arange(-2, 3)
        out = linearized_apply(jacobi_field(kind, 3, s, grids, **kw))
        resid = np.abs(out.f) + np.linalg.norm(out.T, axis=-1)
        sup = max(sup, float(resid[out.valid & keep[None, :, None]].max()))
    return sup


def test_criterion_5_jacobi_kernel():
    crit = _Criterion(5, "Jacobi fields annihilated at order 2")
    cases = {
        "dilation": dict(delta=1.0),
        "translation": dict(a=np.array([1.0, 0.0, 0.0]), alpha=0.0),
    }
    orders = {}
    finest = {}
    for kind, kw in cases.items():
        sups = [_kernel_residual(kind, level, **kw) for level in range(3)]
        hs = [1.0 / 2**level for level in range(3)]
        orders[kind] = float(np.polyfit(np.log(hs), np.log(sups), 1)[0])
        finest[kind] = sups[-1]
    ok = all(abs(o - 2.0) <= 0.2 for o in orders.values()) and \
        all(v < 1e-4 for v in finest.values())
    crit.finish(ok, f"orders {orders}, finest sups {finest}")


def test_criterion_6_indicial_roots():
    crit = _Criterion(6, "frozen-coefficient indicial roots")
    worst = 0.0
    for n in (3, 4, 5):
        for k in (1, 2, 3):
            table = indicial_roots(n, k)
            expect = np.sort([float(v) for v in table.exact_mu + table.exact_nu])
            for side in (-1, 1):
                roots = np.sort(frozen_characteristic_roots(n, k, side))
                worst = max(worst, float(np.max(np.abs(roots - expect))))
            g = float(table.coexact[0])
            rc = np.sort(frozen_characteristic_roots(n, k, family="coexact"))
            worst = max(worst, float(np.max(np.abs(rc - [-g, g]))))
    t31 = indicial_roots(3, 1)
    quoted = (
        float(t31.exact_mu[0]) == 2.5 and float(t31.exact_nu[0]) == 0.5
    )
    ok = worst < 1e-12 and quoted
    crit.finish(ok, f"max root error {worst:.2e}; n=3,k=1 gives +-5/2, +-1/2")


def test_criterion_7_explicit_solutions():
    crit = _Criterion(7, "explicit solutions and decay rates")
    f0_res = max(verify_f0(n, np.linspace(-5, 5, 2001)) for n in (2, 3, 4))
    sys_res = explicit_n3_residual(np.linspace(-3, 3, 241), h=1e-3)
    tneg = np.linspace(-12.0, -2.0, 400)
    a, b = explicit_n3_solution(tneg)
    rate_neg, _ = decay_rate(ModeSolution(3, 1, tneg, a, b), end=-1)
    tpos = np.linspace(2.0, 12.0, 400)
    a, b = explicit_n3_solution(tpos)
    rate_pos, _ = decay_rate(ModeSolution(3, 1, tpos, a, b), end=+1)
    ok = (
        f0_res < 1e-12 and sys_res < 1e-8
        and abs(rate_neg - 2.5) < 1e-2 and abs(rate_pos - 0.5) < 1e-2
    )
    crit.finish(ok, f"f0 {f0_res:.1e}, (a1,b1) {sys_res:.1e}, "
                    f"rates {rate_neg:.4f} / {rate_pos:.4f}")


def test_criterion_8_exterior_mode_oracle():
    crit = _Criterion(8, "exterior constant-coefficient oracle")
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        a0, b0 = rng.uniform(-2, 2, 2)
        A, B, rates, _, ev = exterior_mode_solve(3, a0, b0)
        da0 = rates[0] * 2 * A + rates[1] * B
        db0 = -rates[0] * A + rates[1] * B
        sol = integrate_mode_system(3, 1, "asymptotic", [a0, b0, da0, db0], (0.0, 5.0))
        aa, bb = ev(sol.t)
        worst = max(worst, float(np.max(np.abs(sol.a - aa))),
                    float(np.max(np.abs(sol.b - bb))))
    ok = worst < 1e-10
    crit.finish(ok, f"worst deviation of the exact frozen flow from the closed form {worst:.2e}")


def test_criterion_9_dtn_witness(flagship):
    crit = _Criterion(9, "DtN eigenvalues, round trip, plant-and-recover")
    grid = SphereGrid(3, 8)
    deg = grid.degrees
    # the sphere DtN maps on each slot: P_int = k, P_ext = -(k+n-2)
    interior, exterior = deg.astype(float), -(deg + 1.0)
    system = build_interaction_system(flagship)

    def solve(disc):
        return match_boundaries(flagship, system.alpha, grid, disc, gamma=system.gamma)

    worst_eig = 0.0
    for slot in range(deg.size):
        e = np.zeros((3, deg.size))
        e[0, slot] = 1.0
        diff = e * exterior - e * interior
        worst_eig = max(worst_eig, float(np.max(np.abs(diff + (2 * deg[slot] + 1) * e))))
    # a Theta-orthogonal conormal gap alone: Phi = tilde Phi solves
    # (P_ext - P_int) Phi = rhs
    zero = np.zeros((3, deg.size))
    rhs = split_theta(np.random.default_rng(5).standard_normal((3, deg.size)), grid)[1]
    phi = solve([(zero, rhs), (zero, zero)]).phi[0]
    rt = float(np.max(np.abs(phi * exterior - phi * interior - rhs)))

    scale = flagship.epsilon * flagship.rho_star**2
    worst_rec = 0.0
    for trial in range(100):
        rng = np.random.default_rng(900 + trial)
        dalpha = rng.standard_normal(2)
        dbeta = rng.standard_normal(2)
        phis, phts, disc = [], [], []
        w = (flagship.epsilon / omega_n(3)) * (system.gamma @ dalpha) * flagship.rho_star
        u = flagship.epsilon * (dalpha - dbeta) * flagship.rho_star ** (-2)
        for j in range(2):
            pj = split_theta(scale * rng.standard_normal((3, deg.size)), grid)[1]
            pt = split_theta(scale * rng.standard_normal((3, deg.size)), grid)[1]
            phis.append(pj)
            phts.append(pt)
            g1 = (pj - pt) + (u[j] + w[j]) * grid.theta
            g2 = (pj * exterior - pt * interior) + (-2 * u[j] + w[j]) * grid.theta
            disc.append((g1, g2))
        corr = solve(disc)
        worst_rec = max(
            worst_rec,
            float(np.max(np.abs(corr.delta_alpha - dalpha))),
            float(np.max(np.abs(corr.delta_beta - dbeta))),
            max(float(np.sqrt(np.sum((corr.phi[j] - phis[j]) ** 2))) for j in range(2)),
            max(float(np.sqrt(np.sum((corr.phi_tilde[j] - phts[j]) ** 2))) for j in range(2)),
        )
    ok = worst_eig == 0.0 and rt < 1e-12 and worst_rec < 1e-9
    crit.finish(ok, f"eig err {worst_eig:.1e}, round trip {rt:.2e}, "
                    f"recover {worst_rec:.2e}")


def test_criterion_10_balancing(flagship):
    crit = _Criterion(10, "balancing at the solved neck scales")
    system = build_interaction_system(flagship)
    res_balanced = balance_residual(GreenData(flagship, system.alpha))
    delta = 0.1 * system.alpha
    res_off = balance_residual(GreenData(flagship, system.alpha + delta))
    predicted = np.abs(system.gamma @ delta) / omega_n(3)
    rel = np.max(np.abs(res_off - predicted) / predicted)
    ok = float(np.max(res_balanced)) < 1e-8 and np.all(res_off > 1e-4) and rel < 1e-12
    crit.finish(ok, f"balanced {np.max(res_balanced):.2e}, off-balance rel err {rel:.2e}")


def test_criterion_11_glue_end_to_end(tmp_path):
    crit = _Criterion(11, "glued surface across the epsilon sweep")
    eps_values = [1e-3, 3e-4, 1e-4]
    grid = GridSpec(neck_s_nodes=32, neck_angle_nodes=(17, 32), outer_spacing=0.3)
    gap_sups = []
    curv_sups = []
    surfaces = []
    for eps in eps_values:
        cfg = flagship_at(eps)
        system = build_interaction_system(cfg)
        surf = assemble(cfg, system.alpha, grid)
        surfaces.append(surf)
        gaps, _ = boundary_gap(surf, product_gauss_rule(3, 32), 1)
        gap_sups.append(max(g["position_gap_sup"] for g in gaps))
        data = GreenData(cfg, system.alpha)
        base = surf.outer.samples[..., :3][surf.outer.mask]
        H = graph_mean_curvature(data, base)
        curv_sups.append(float(np.linalg.norm(H, axis=-1).max()))
    monotone = all(a > b for a, b in zip(gap_sups, gap_sups[1:]))
    slope = float(np.polyfit(np.log(eps_values), np.log(curv_sups), 1)[0])

    ply = tmp_path / "glued.ply"
    csv = tmp_path / "glued.csv"
    export_ply(surfaces[-1], str(ply))
    export_csv(surfaces[-1], str(csv))
    rows = point_rows([surfaces[-1].outer, *surfaces[-1].necks])
    csv_back = np.loadtxt(csv, delimiter=",", skiprows=1)
    with open(ply) as fh:
        lines = fh.read().splitlines()
    body = np.loadtxt(ply, skiprows=lines.index("end_header") + 1)
    lossless = np.array_equal(csv_back, rows) and np.array_equal(body[:, :6], rows[:, 4:])

    ok = monotone and abs(slope - 3.0) <= 0.3 and lossless
    crit.finish(ok, f"gaps {['%.2e' % g for g in gap_sups]} monotone={monotone}, "
                    f"curvature slope {slope:.3f}, export lossless={lossless}")
