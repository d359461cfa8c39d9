"""Hypothesis properties of the interaction system Gamma alpha = Lambda over
random configurations: n = 2 ... 5, k = 2 ... 4 ends at points more than
1e-3 apart, each end twisted by a random element of O(n); and of the
balance and the matching step built on it."""

import dataclasses
import pathlib

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from neckglue.assembler import GridSpec, assemble, boundary_gap, matching_step
from neckglue.cli import parse_config
from neckglue.config import Configuration, build_interaction_system, check_h1, gamma_matrix, \
    lambda_vector
from neckglue.green import GreenData, balance_residual
from neckglue.quadrature import omega_n, product_gauss_rule

from conftest import random_orthogonal

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def configurations(draw, normal_points=False):
    n, k = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(SEEDS))
    points = rng.normal(0.0, 1.5, (k, n)) if normal_points else rng.uniform(-2.0, 2.0, (k, n))
    rotations = [random_orthogonal(n, rng) for _ in range(k)]
    config = Configuration(n, points, rotations, rng.standard_normal((n, n)), 1e-4, 1e-4)
    assume(config.min_separation > 1e-3)
    return config


@settings(max_examples=40, deadline=None)
@given(config=configurations())
def test_gamma_is_exactly_symmetric_with_zero_diagonal(config):
    G = gamma_matrix(config)
    assert np.array_equal(G, G.T)
    assert np.array_equal(np.diag(G), np.zeros(config.k))


@settings(max_examples=40, deadline=None)
@given(config=configurations(), seed=SEEDS)
def test_common_rotation_leaves_the_system_unchanged(config, seed):
    # x -> Qx, R -> Q R Q^T, A0 -> Q A0 Q^T: every entry is a trace or a dot
    # product of rotated vectors, and H1's image turns with xi.  Gamma may
    # vanish (two reflections at n = 2), so the floor of the scale is 1
    Q = random_orthogonal(config.n, np.random.default_rng(seed))
    turned = dataclasses.replace(config, points=config.points @ Q.T,
                                 rotations=Q @ config.rotations @ Q.T, A0=Q @ config.A0 @ Q.T)
    for quantity in (gamma_matrix, lambda_vector):
        before = quantity(config)
        scale = max(1.0, np.max(np.abs(before)))
        assert_allclose(quantity(turned), before, rtol=0, atol=1e-12 * scale)
    assert_allclose([r.residual for r in check_h1(turned)],
                    [r.residual for r in check_h1(config)], rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(config=configurations(), seed=SEEDS, a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_alpha_is_linear_in_A0(config, seed, a, b):
    # Lambda is linear in A0 and alpha = Gamma^-1 Lambda wherever H2 holds
    B = np.random.default_rng(seed).standard_normal((config.n, config.n))
    systems = [build_interaction_system(dataclasses.replace(config, A0=A0))
               for A0 in (config.A0, B, a * config.A0 + b * B)]
    assume(systems[0].h2)
    alpha_a, alpha_b, alpha = (s.alpha for s in systems)
    scale = np.linalg.norm(a * alpha_a) + np.linalg.norm(b * alpha_b)
    assert np.linalg.norm(alpha - (a * alpha_a + b * alpha_b)) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(config=configurations(normal_points=True))
def test_balance_vanishes_at_the_solved_scales(config):
    # balance_residual is |Gamma alpha - Lambda| / omega_n per end, read
    # from DG at the ends; about one draw in five satisfies H1 and H2
    system = build_interaction_system(config)
    assume(system.h1_holds and system.h2)
    scale = (np.linalg.norm(system.gamma) * np.linalg.norm(system.alpha)
             + np.linalg.norm(system.lam)) / omega_n(config.n)
    assert np.all(balance_residual(GreenData(config, system.alpha)) <= 1e-12 * scale)


THREE_ENDS, _ = parse_config(str(pathlib.Path(__file__).parent / "golden" / "three_ends_n3.json"))


def _matching_deltas(config, nodes=32, degree=8):
    """(delta alpha, delta beta) of one matching step on the nodes^2 rule."""
    system = build_interaction_system(config)
    surface = assemble(config, system.alpha, GridSpec(48, [24, 48], 0.1))
    rule = product_gauss_rule(config.n, nodes)
    _, discrepancies = boundary_gap(surface, rule, degree)
    step = matching_step(surface, system.gamma, discrepancies, rule, degree)
    return step["delta_alpha"], step["delta_beta"]


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_matching_step_is_equivariant(seed):
    # the rule's nodes do not turn with the ends, so the deltas move with the
    # rule: over 200 rotations by at most 7.6e-8 of max |delta alpha| on 32^2
    # nodes, 9.8e-7 on 24^2 and 6.2e-3 (aliasing) on the file's own 17^2
    Q = random_orthogonal(3, np.random.default_rng(seed))
    Q[:, 0] *= np.linalg.det(Q)
    config = THREE_ENDS
    turned = dataclasses.replace(config, points=config.points @ Q.T,
                                 rotations=Q @ config.rotations @ Q.T, A0=Q @ config.A0 @ Q.T)
    before, after = _matching_deltas(config), _matching_deltas(turned)
    scale = np.max(np.abs(before[0]))
    for old, new in zip(before, after):
        assert np.max(np.abs(new - old)) <= 1e-6 * scale
