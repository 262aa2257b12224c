"""Quadrature oracle: exactness, refinement behavior, closed forms."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmean import (
    box_quantiles,
    cylinder_function,
    normal_quantiles,
    product_regularized_policy,
    quadratic_action,
)
from diracmean.errors import DegenerateOracle, NoConvergence, ValidationError
from diracmean.oracle import gaussian_expectation, normalized_expectation, tensor_quadrature
from diracmean.registry import build_function

UNIT_1D = ((0.0, 1.0),)
UNIT_2D = ((0.0, 1.0), (0.0, 1.0))


def test_linear_exactness():
    assert abs(tensor_quadrature(lambda x: x[:, 0], UNIT_1D)[0] - 0.5) <= 1e-12


# The line cut at +-8: the unit Gaussian's mass outside is below 1e-14.
BOX_8 = ((-8.0, 8.0),)


def test_gaussian_mass():
    value = tensor_quadrature(lambda x: np.exp(-x[:, 0] ** 2 / 2.0), BOX_8)[0]
    assert abs(value - math.sqrt(2.0 * math.pi)) <= 1e-9


def test_product_exactness_rank2():
    assert abs(tensor_quadrature(lambda x: x[:, 0] * x[:, 1], UNIT_2D)[0] - 0.25) <= 1e-12


def test_rank3_product():
    got = tensor_quadrature(lambda x: x[:, 0] * x[:, 1] * x[:, 2], ((0.0, 1.0),) * 3)[0]
    assert abs(got - 0.125) <= 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_integrand_receives_column_major_grids(rank):
    seen = []

    def probe(x):
        seen.append((x.shape, x.flags.f_contiguous, x.copy()))
        return np.prod(x, axis=1)

    assert abs(tensor_quadrature(probe, ((0.0, 1.0),) * rank)[0] - 0.5**rank) <= 1e-12
    assert seen and all(shape[1] == rank and f_contig for shape, f_contig, _ in seen)
    # The first grid of a doubling pass is the x-major tensor product of the
    # axis nodes.
    grid = seen[0][2]
    axes = [np.unique(grid[:, k]) for k in range(rank)]
    mesh = np.meshgrid(*axes, indexing="ij")
    assert np.array_equal(grid, np.column_stack([m.ravel() for m in mesh]))


def test_discontinuous_integrand_hits_the_cap():
    jump = 1.0 / math.pi
    with pytest.raises(NoConvergence):
        tensor_quadrature(lambda x: np.sign(x[:, 0] - jump), UNIT_1D)


def test_cell_doubling_reported():
    _, cells = tensor_quadrature(
        lambda x: np.exp(-x[:, 0] ** 2 / 2.0), BOX_8
    )
    assert cells >= 8


def test_refinement_gains_are_steep_for_smooth_integrands():
    # composite 7-node rule: each doubling should shrink the error by a
    # factor far beyond 50 while above the rounding floor
    from diracmean.oracle import _integrate_once

    exact = math.sqrt(2.0 * math.pi)
    domain = ((-8.0, 8.0),)
    e4 = abs(_integrate_once(lambda x: np.exp(-x[:, 0] ** 2 / 2.0), domain, 4) - exact)
    e8 = abs(_integrate_once(lambda x: np.exp(-x[:, 0] ** 2 / 2.0), domain, 8) - exact)
    assert e4 / max(e8, 1e-300) >= 50.0


def test_vector_integrand_converges_only_when_every_component_agrees():
    def smooth(x):
        return x[:, 0]

    def peak(x):
        return np.exp(-(((x[:, 0] - 0.3) / 0.01) ** 2))

    both = tensor_quadrature(lambda x: np.stack([smooth(x), peak(x)]), UNIT_1D)
    (v_smooth, v_peak), cells = both
    s_value, s_cells = tensor_quadrature(smooth, UNIT_1D)
    p_value, p_cells = tensor_quadrature(peak, UNIT_1D)
    assert s_cells < p_cells == cells
    assert type(v_smooth) is complex and abs(v_smooth - s_value) <= 1e-14
    assert abs(v_peak - p_value) <= 1e-10 * abs(p_value)
    jump = 1.0 / math.pi
    with pytest.raises(NoConvergence):
        tensor_quadrature(lambda x: np.stack([smooth(x), np.sign(x[:, 0] - jump)]), UNIT_1D)


# A non-diagonal rank-2 Fresnel density: a Gaussian regularizer of widths
# [1, 1] times exp(-i S) for S(x) = x.A.x / 2, A = [[1, .5], [.5, 2]], on the box +-8.
RANK2_BOX = ((-8.0, 8.0),) * 2


def _rank2_density(x):
    s = 0.5 * (x[:, 0] ** 2 + x[:, 0] * x[:, 1] + 2.0 * x[:, 1] ** 2)
    return np.exp(-0.5 * (x[:, 0] ** 2 + x[:, 1] ** 2)) * np.exp(-1j * s)


def _x1_squared(x):
    return x[:, 0] ** 2


def test_normalized_expectation_evaluates_the_density_once_per_grid():
    density_grids, f_grids = [], []

    def density(x):
        density_grids.append(x.copy())
        return _rank2_density(x)

    def f(x):
        f_grids.append(x.copy())
        return _x1_squared(x)

    _, cells = normalized_expectation(f, density, RANK2_BOX)
    assert len(density_grids) == len(f_grids)
    assert all(np.array_equal(a, b) for a, b in zip(density_grids, f_grids))
    points = sum(len(g) for g in density_grids)
    assert points == sum((7 * c) ** 2 for c in (4, 8, 16, 32, 64) if c <= cells)


def test_normalized_expectation_matches_three_separate_quadratures():
    value, cells = normalized_expectation(_x1_squared, _rank2_density, RANK2_BOX)
    z, z_cells = tensor_quadrature(_rank2_density, RANK2_BOX)
    a, a_cells = tensor_quadrature(lambda x: np.abs(_rank2_density(x)), RANK2_BOX)
    num, num_cells = tensor_quadrature(lambda x: _x1_squared(x) * _rank2_density(x), RANK2_BOX)
    assert type(value) is complex
    assert cells == max(z_cells, a_cells, num_cells)
    assert abs(value - num / z) <= 1e-14 * abs(num / z)


def test_normalized_expectation_closed_form_ratio():
    got = normalized_expectation(lambda x: x[:, 0], lambda x: 1.0 + x[:, 0], UNIT_1D)[0]
    assert abs(got - 5.0 / 9.0) <= 1e-10


def test_odd_moments_of_even_densities_vanish():
    got = normalized_expectation(
        lambda x: x[:, 0] ** 3, lambda x: np.exp(-x[:, 0] ** 2 / 2.0), BOX_8
    )[0]
    assert abs(got) <= 1e-10


def test_complex_gaussian_second_moment_vs_quadrature():
    got = normalized_expectation(
        lambda x: x[:, 0] ** 2,
        lambda x: np.exp(-x[:, 0] ** 2 * (1.0 + 1.0j) / 2.0),
        BOX_8,
    )[0]
    assert abs(got - (0.5 - 0.5j)) <= 1e-8


def test_degenerate_oracle_detected():
    with pytest.raises(DegenerateOracle):
        normalized_expectation(lambda x: x[:, 0] ** 2, lambda x: x[:, 0], ((-1.0, 1.0),))


X1_SQUARED = build_function({"name": "polynomial", "coeffs": [0.0, 0.0, 1.0]})


def _gaussian_moment(curvature, width, func=X1_SQUARED):
    return gaussian_expectation(func, quadratic_action([[curvature]]), normal_quantiles([width]))


def test_closed_form_moments():
    # <x^2> = width^2 / (1 + i curvature width^2) on the line.
    assert _gaussian_moment(0.0, 1.0) == 1.0 + 0.0j
    assert _gaussian_moment(1.0, 1.0) == pytest.approx(0.5 - 0.5j, abs=1e-15)
    one = build_function({"name": "polynomial", "coeffs": [1.0]})
    for a in (0.0, 0.7, 2.0):
        assert _gaussian_moment(a, 1.3, one) == 1.0 + 0.0j
    act, reg = quadratic_action([[1.0]]), normal_quantiles([1.0])
    for func, action, regularizer, field in [
        (cylinder_function(1, lambda x: x[:, 0] ** 2), act, reg, "function"),
        (build_function({"name": "gaussian"}), act, reg, "function"),
        (X1_SQUARED, act, box_quantiles(1.0), "regularizer"),
        (X1_SQUARED, quadratic_action(np.eye(2)), reg, "regularizer"),
        (build_function({"name": "coordinate", "index": 2}), act, reg, "regularizer"),
        (X1_SQUARED, object(), reg, "action"),
    ]:
        with pytest.raises(ValidationError, match=f"^{field}: "):
            gaussian_expectation(func, action, regularizer)


@pytest.mark.parametrize("curvature", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
def test_oracle_self_consistency(curvature, width):
    half = 8.0 * max(width, 1.0)
    got = normalized_expectation(
        lambda x: x[:, 0] ** 2,
        lambda x: np.exp(-x[:, 0] ** 2 / (2.0 * width**2) - 1j * curvature * x[:, 0] ** 2 / 2.0),
        ((-half, half),),
    )[0]
    assert abs(got - _gaussian_moment(curvature, width)) <= 1e-8


# ---------------------------------------------------------------------------
# the closed form of the complex Gaussian against the tensor quadrature


def _quadrature(func, action, reg, truncation=8.0):
    """The tensor oracle of the measure the closed form integrates."""
    pol = product_regularized_policy(reg, action)
    return normalized_expectation(func.eval_block, pol.weights,
                                  reg.domain(len(reg.widths), truncation))[0]


@st.composite
def _gaussian_case(draw):
    rank = draw(st.integers(1, 2))
    unit = st.floats(-1.0, 1.0)

    def symmetric(scale):
        a = np.array([[draw(unit) * scale for _ in range(rank)] for _ in range(rank)])
        return ((a + a.T) / 2.0).tolist()

    def vector():
        return [draw(unit) for _ in range(rank)]

    widths = [draw(st.floats(0.3, 1.5)) for _ in range(rank)]
    index = draw(st.integers(1, rank))
    spec = draw(st.sampled_from([
        {"name": "coordinate", "index": index},
        {"name": "coordinate-product", "rank": rank},
        {"name": "polynomial", "index": index,
         "coeffs": [draw(unit) for _ in range(draw(st.integers(1, 5)))]},
        {"name": "cosine", "index": index, "frequency": draw(unit) * 3.0},
        {"name": "quadratic-form", "matrix": symmetric(1.0), "linear": vector(),
         "constant": draw(unit)},
    ]))
    action = quadratic_action(symmetric(2.0), vector(), draw(unit))
    return action, normal_quantiles(widths), spec


@given(_gaussian_case())
@settings(max_examples=30, deadline=None)
def test_closed_form_matches_the_quadrature_at_ranks_1_and_2(case):
    action, reg, spec = case
    func = build_function(spec)
    assert abs(gaussian_expectation(func, action, reg) - _quadrature(func, action, reg)) <= 1e-8


def test_closed_form_matches_the_quadrature_at_rank_3_non_diagonal():
    action = quadratic_action([[1.0, 0.4, -0.3], [0.4, 0.5, 0.2], [-0.3, 0.2, 2.0]],
                              [0.2, -0.4, 0.1], 7.0)
    reg = normal_quantiles([0.5, 0.6, 0.4])
    funcs = [build_function(spec) for spec in [
        {"name": "coordinate-product", "rank": 3},
        {"name": "polynomial", "coeffs": [0.5, -1.0, 0.0, 2.0], "index": 2},
        {"name": "cosine", "index": 3, "frequency": 2.0},
        {"name": "quadratic-form", "matrix": [[1.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]],
         "linear": [0.0, 0.3, -0.2]},
    ]]
    rho = product_regularized_policy(reg, action).weights
    # One quadrature of (rho, f rho for each f), the grid shared.
    (z, *nums), _ = tensor_quadrature(
        lambda x: np.stack([rho(x)] + [f.eval_block(x) * rho(x) for f in funcs]),
        reg.domain(3, 8.0))
    for func, num in zip(funcs, nums):
        assert abs(gaussian_expectation(func, action, reg) - num / z) <= 1e-8, func.label


def test_closed_form_sits_within_the_truncated_tail_of_the_rank3_quadrature():
    # The benchmark's rank-3 oracle: a diagonal action, widths 0.5, <x3^2>
    # and each axis cut at T = 6 widths.  The box is a product and the
    # density factorizes, so only the x3 axis moves the ratio: with g the
    # x3 factor, the cut drops N_tail = int_{|x|>T sigma} x^2 g and
    # Z_tail = int_{|x|>T sigma} g, and moves N/Z by (v Z_tail - N_tail) / Z_T,
    # |Z| = sigma sqrt(2 pi) / |1 + i a sigma^2|^(1/2).
    a, sigma, t = 2.0, 0.5, 6.0
    action = quadratic_action(np.diag([1.0, 0.5, a]).tolist())
    reg = normal_quantiles([sigma] * 3)
    func = build_function({"name": "polynomial", "coeffs": [0.0, 0.0, 1.0], "index": 3})
    exact = gaussian_expectation(func, action, reg)
    assert exact == pytest.approx(sigma**2 / (1 + 1j * a * sigma**2), abs=1e-16)
    q = 0.5 * math.erfc(t / math.sqrt(2.0))
    t_phi = t * math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    # |N_tail| and |Z_tail| over |Z|, and |Z_T| >= |Z| (1 - that share).
    amp = abs(1 + 1j * a * sigma**2) ** 0.5
    n_share, z_share = sigma**2 * 2.0 * (t_phi + q) * amp, 2.0 * q * amp
    bound = (n_share + abs(exact) * z_share) / (1.0 - z_share)
    diff = abs(_quadrature(func, action, reg, t) - exact)
    assert 1e-9 < diff <= bound < 2.5e-8


def test_domain_validation():
    # The box is checked where every oracle path passes, in tensor_quadrature.
    for domain, message in [
        ((), "must have 1 to 3 axes, got 0"),
        (((0.0, 1.0),) * 4, "must have 1 to 3 axes, got 4"),
        (((1.0, 0.0),), "each axis needs a finite interval lo < hi"),
        (((0.0, math.inf),), "each axis needs a finite interval lo < hi"),
        (((0.0, 1.0, 2.0),), "must be (lo, hi) pairs"),
    ]:
        with pytest.raises(ValidationError, match=f"^domain: {re.escape(message)}"):
            tensor_quadrature(lambda x: x[:, 0], domain)
        with pytest.raises(ValidationError, match="^domain: "):
            normalized_expectation(lambda x: x[:, 0], lambda x: np.ones(len(x)), domain)
    # Doubling starts at 4 cells per axis, so a linear integrand agrees at 8;
    # a box may be any sequence of number pairs.
    assert tensor_quadrature(lambda x: x[:, 0], UNIT_1D) == (0.5, 8)
    assert tensor_quadrature(lambda x: x[:, 0], [[0, 1]]) == (0.5, 8)
