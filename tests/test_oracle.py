"""Quadrature oracle: exactness, refinement behavior, closed forms."""

import math
import re

import numpy as np
import pytest

from diracmean.errors import DegenerateOracle, NoConvergence, ValidationError
from diracmean.oracle import complex_gaussian_moment, normalized_expectation, tensor_quadrature

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


def test_closed_form_moments():
    assert complex_gaussian_moment(0.0, 1.0, 2) == 1.0 + 0.0j
    assert complex_gaussian_moment(1.0, 1.0, 2) == pytest.approx(0.5 - 0.5j, abs=1e-15)
    for a in (0.0, 0.7, 2.0):
        assert complex_gaussian_moment(a, 1.3, 0) == 1.0 + 0.0j
    with pytest.raises(ValidationError):
        complex_gaussian_moment(1.0, 1.0, 1)
    with pytest.raises(ValidationError):
        complex_gaussian_moment(1.0, 0.0, 2)


@pytest.mark.parametrize("curvature", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
def test_oracle_self_consistency(curvature, width):
    half = 8.0 * max(width, 1.0)
    got = normalized_expectation(
        lambda x: x[:, 0] ** 2,
        lambda x: np.exp(-x[:, 0] ** 2 / (2.0 * width**2) - 1j * curvature * x[:, 0] ** 2 / 2.0),
        ((-half, half),),
    )[0]
    assert abs(got - complex_gaussian_moment(curvature, width, 2)) <= 1e-8


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
