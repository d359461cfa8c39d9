"""Hypothesis properties of the interaction system Gamma alpha = Lambda over
random configurations: n = 2 ... 5, k = 2 ... 4 ends at points more than
1e-3 apart, each end twisted by a random element of O(n)."""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from neckglue.config import Configuration, build_interaction_system, check_h1, gamma_matrix, \
    lambda_vector

from conftest import random_orthogonal

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def configurations(draw):
    n, k = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(SEEDS))
    points = rng.uniform(-2.0, 2.0, (k, n))
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
