"""Quadrature oracle: exactness, refinement behavior, closed forms."""

import math

import numpy as np
import pytest

from diracmean.errors import (
    DegenerateOracle,
    NoConvergence,
    NonpositiveWidth,
    UnsupportedMoment,
)
from diracmean.oracle import (
    QuadratureSpec,
    complex_gaussian_moment,
    gaussian_domain,
    normalized_expectation,
    tensor_quadrature,
    tensor_quadrature_with_info,
)

UNIT_1D = QuadratureSpec(domain=((0.0, 1.0),))
UNIT_2D = QuadratureSpec(domain=((0.0, 1.0), (0.0, 1.0)))


def test_linear_exactness():
    assert abs(tensor_quadrature(lambda x: x[:, 0], UNIT_1D) - 0.5) <= 1e-12


def test_gaussian_mass():
    value = tensor_quadrature(lambda x: np.exp(-x[:, 0] ** 2 / 2.0), gaussian_domain())
    assert abs(value - math.sqrt(2.0 * math.pi)) <= 1e-9


def test_product_exactness_rank2():
    assert abs(tensor_quadrature(lambda x: x[:, 0] * x[:, 1], UNIT_2D) - 0.25) <= 1e-12


def test_rank3_product():
    spec = QuadratureSpec(domain=((0.0, 1.0),) * 3)
    got = tensor_quadrature(lambda x: x[:, 0] * x[:, 1] * x[:, 2], spec)
    assert abs(got - 0.125) <= 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_integrand_receives_column_major_grids(rank):
    seen = []

    def probe(x):
        seen.append((x.shape, x.flags.f_contiguous, x.copy()))
        return np.prod(x, axis=1)

    spec = QuadratureSpec(domain=((0.0, 1.0),) * rank)
    assert abs(tensor_quadrature(probe, spec) - 0.5**rank) <= 1e-12
    assert seen and all(shape[1] == rank and f_contig for shape, f_contig, _ in seen)
    # The first grid of a doubling pass is the x-major tensor product of the
    # axis nodes (at rank 3, for the first x node).
    grid = seen[0][2]
    axes = [np.unique(grid[:, k]) for k in range(rank)]
    if rank == 3:
        axes[0] = grid[:1, 0]
    mesh = np.meshgrid(*axes, indexing="ij")
    assert np.array_equal(grid, np.column_stack([m.ravel() for m in mesh]))


def test_discontinuous_integrand_hits_the_cap():
    jump = 1.0 / math.pi
    with pytest.raises(NoConvergence):
        tensor_quadrature(lambda x: np.sign(x[:, 0] - jump), UNIT_1D)


def test_cell_doubling_reported():
    _, cells = tensor_quadrature_with_info(
        lambda x: np.exp(-x[:, 0] ** 2 / 2.0), gaussian_domain()
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


def test_normalized_expectation_closed_form_ratio():
    got = normalized_expectation(lambda x: x[:, 0], lambda x: 1.0 + x[:, 0], UNIT_1D)
    assert abs(got - 5.0 / 9.0) <= 1e-10


def test_odd_moments_of_even_densities_vanish():
    spec = QuadratureSpec(domain=((-8.0, 8.0),))
    got = normalized_expectation(
        lambda x: x[:, 0] ** 3, lambda x: np.exp(-x[:, 0] ** 2 / 2.0), spec
    )
    assert abs(got) <= 1e-10


def test_complex_gaussian_second_moment_vs_quadrature():
    got = normalized_expectation(
        lambda x: x[:, 0] ** 2,
        lambda x: np.exp(-x[:, 0] ** 2 * (1.0 + 1.0j) / 2.0),
        gaussian_domain(),
    )
    assert abs(got - (0.5 - 0.5j)) <= 1e-8


def test_degenerate_oracle_detected():
    spec = QuadratureSpec(domain=((-1.0, 1.0),))
    with pytest.raises(DegenerateOracle):
        normalized_expectation(lambda x: x[:, 0] ** 2, lambda x: x[:, 0], spec)


def test_closed_form_moments():
    assert complex_gaussian_moment(0.0, 1.0, 2) == 1.0 + 0.0j
    assert complex_gaussian_moment(1.0, 1.0, 2) == pytest.approx(0.5 - 0.5j, abs=1e-15)
    for a in (0.0, 0.7, 2.0):
        assert complex_gaussian_moment(a, 1.3, 0) == 1.0 + 0.0j
    with pytest.raises(UnsupportedMoment):
        complex_gaussian_moment(1.0, 1.0, 1)
    with pytest.raises(NonpositiveWidth):
        complex_gaussian_moment(1.0, 0.0, 2)


@pytest.mark.parametrize("curvature", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
def test_oracle_self_consistency(curvature, width):
    spec = gaussian_domain(width)
    got = normalized_expectation(
        lambda x: x[:, 0] ** 2,
        lambda x: np.exp(-x[:, 0] ** 2 / (2.0 * width**2) - 1j * curvature * x[:, 0] ** 2 / 2.0),
        spec,
    )
    assert abs(got - complex_gaussian_moment(curvature, width, 2)) <= 1e-8


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(domain=())
    with pytest.raises(ValueError):
        QuadratureSpec(domain=((0.0, 1.0),) * 4)
    with pytest.raises(ValueError):
        QuadratureSpec(domain=((0.0, 1.0),), cells_per_axis=2)
    with pytest.raises(ValueError):
        QuadratureSpec(domain=((1.0, 0.0),))
