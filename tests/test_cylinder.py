"""Cylinder functions, rank probing, and hierarchy certification."""

import numpy as np
import pytest

from diracmean import (
    StoppingRule,
    constant_policy,
    convergent_source,
    cylinder_function,
    halton_source,
    hierarchy_certify,
    pseudorandom_source,
    run,
    verify_cylinder,
    weyl_source,
)
from diracmean.errors import CylinderViolation, InsufficientSample, ValidationError
from diracmean.oracle import tensor_quadrature


def test_rank_zero_constant():
    f = cylinder_function(0, 3.0, "three")
    assert f.eval_block(np.array([[0.1, 0.9, 0.4]]))[0] == 3.0
    assert np.array_equal(f.eval_block(np.zeros((4, 2))), np.full(4, 3.0))


def test_rank_two_product_evaluation():
    f = cylinder_function(2, lambda x: x[:, 0] * x[:, 1], "uv")
    values = f.eval_block(np.array([[0.5, 0.25, 0.77], [0.5, 0.25, 0.11]]))
    assert values.tolist() == [0.125, 0.125]  # trailing coordinates never matter


def test_perturbation_beyond_rank_is_exactly_invisible():
    f = cylinder_function(2, lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2, "g")
    pts = np.random.default_rng(0).random((16, 5))
    other = pts.copy()
    other[:, 2:] = np.random.default_rng(1).random((16, 3))
    assert np.array_equal(f.eval_block(pts), f.eval_block(other))


def test_rank_exceeded():
    f = cylinder_function(3, lambda x: x[:, 2], "x3")
    with pytest.raises(ValidationError):
        f.eval_block(np.zeros((2, 2)))


def test_verify_cylinder_accepts_honest_declarations():
    verify_cylinder(cylinder_function(2, lambda x: x[:, 0] * x[:, 1], "uv"))
    verify_cylinder(cylinder_function(0, 7.0, "const"))
    # a base that cannot evaluate wider points cannot read beyond its rank
    def strict(x):
        assert x.shape[1] == 1
        return x[:, 0]
    verify_cylinder(cylinder_function(1, strict, "strict"))


def test_verify_cylinder_catches_underdeclared_rank():
    cheat = cylinder_function(2, lambda x: x[:, -1], "reads last column")
    with pytest.raises(CylinderViolation):
        verify_cylinder(cheat)
    cheat2 = cylinder_function(1, lambda x: np.sum(x, axis=1), "reads everything")
    with pytest.raises(CylinderViolation):
        verify_cylinder(cheat2)


def test_integrate_cylinder_product_of_coordinates():
    f = cylinder_function(2, lambda x: x[:, 0] * x[:, 1], "x1 x2")
    report = run(halton_source(0), constant_policy(), f, 10**5,
                 StoppingRule(min_samples=10**5))
    assert abs(report.final_estimate - 0.25) <= 5e-4


def test_integrate_cylinder_constant_is_exact():
    f = cylinder_function(0, 1.0, "one")
    report = run(halton_source(0), constant_policy(), f, 2000)
    assert report.final_estimate == 1 + 0j


def test_integrate_cylinder_third_coordinate():
    f = cylinder_function(3, lambda x: x[:, 2], "x3")
    report = run(halton_source(0), constant_policy(), f, 10**5,
                 StoppingRule(min_samples=10**5))
    assert abs(report.final_estimate - 0.5) <= 1e-3


# ---------------------------------------------------------------------------
# hierarchy certification


def test_hierarchy_validation():
    for ranks in ((2, 2), (0, 1), ()):
        with pytest.raises(ValidationError, match="^ranks: "):
            hierarchy_certify(halton_source(0), ranks, 10**4)
    assert len(hierarchy_certify(halton_source(0), [1, 2, 3], 10**4)) == 3


def test_halton_hierarchy_passes_explicit_bins():
    reports = hierarchy_certify(halton_source(0), (1, 2, 3), 10**4,
                                bins_per_axis=(16, 8, 2))
    assert [r.rank for r in reports] == [1, 2, 3]
    assert all(r.passed for r in reports)


def test_halton_hierarchy_passes_default_bins():
    reports = hierarchy_certify(halton_source(0), (1, 2, 3), 10**4)
    assert all(r.passed for r in reports)


def test_constant_source_fails_every_rank():
    src = convergent_source(0.3, 0.5, 0.0)
    reports = hierarchy_certify(src, (1, 2, 3), 10**4)
    assert not any(r.passed for r in reports)


def test_weyl_hierarchy_passes_ranks_1_and_2():
    reports = hierarchy_certify(weyl_source(), (1, 2), 10**4)
    assert all(r.passed for r in reports)


def test_insufficient_sample_propagates_per_level():
    with pytest.raises(InsufficientSample):
        hierarchy_certify(halton_source(0), (1, 2, 3), 30, bins_per_axis=(2, 2, 2))


def test_monotone_certification_for_halton():
    # same N and bins: passing at a higher rank comes with passing at the
    # marginal ranks too (marginal of uniform is uniform)
    n, bins = 10**4, 4
    top = hierarchy_certify(halton_source(0), (3,), n, bins_per_axis=(bins,))[0]
    assert top.passed
    for rank in (1, 2):
        low = hierarchy_certify(halton_source(0), (rank,), n, bins_per_axis=(bins,))[0]
        assert low.passed


class Recording:
    """Point source that records the arguments of every ``block`` call."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []
        self.codomain = inner.codomain

    def block(self, start, stop, rank, out=None):
        self.calls.append((start, stop, rank))
        return self.inner.block(start, stop, rank, out)


def test_certificate_reads_each_point_once_at_the_top_rank():
    src = Recording(halton_source(0))
    hierarchy_certify(src, (1, 2, 3), 2 * 65536 + 100)
    assert src.calls == [(0, 65536, 3), (65536, 131072, 3), (131072, 131172, 3)]


@pytest.mark.parametrize("source", [
    halton_source(0), weyl_source(), pseudorandom_source(11),
    convergent_source(0.3, 0.9995, 0.5),
], ids=["halton", "weyl", "pseudorandom", "convergent"])
def test_each_level_is_its_single_rank_certificate(source):
    n = 65536 + 4000  # a full chunk and a short one
    for level in hierarchy_certify(source, (1, 2, 3), n):
        alone = hierarchy_certify(source, (level.rank,), n,
                                  bins_per_axis=[level.bins_per_axis])[0]
        assert (level.statistic, level.threshold) == (alone.statistic, alone.threshold)
        assert level == alone


def star_discrepancy(points):
    """Exact star discrepancy of a rank-1 or rank-2 point set, over the
    anchored boxes whose corners lie on point coordinates or on 1: closed
    boxes give the excess of points over the volume, open ones the shortfall."""
    n, rank = points.shape
    x = points[:, 0]
    y = points[:, 1] if rank == 2 else np.zeros(n)
    vs = np.append(np.sort(y), 1.0) if rank == 2 else np.ones(1)
    best = 0.0
    for u in np.append(np.unique(x), 1.0):
        closed = np.searchsorted(np.sort(y[x <= u]), vs, side="right")
        opened = np.searchsorted(np.sort(y[x < u]), vs, side="left")
        best = max(best, np.max(closed / n - u * vs), np.max(u * vs - opened / n))
    return float(best)


def test_variation_envelope_for_smooth_cylinder_functions():
    # sanity envelope: |estimate - quadrature| <= 10 D*(N) V for measured
    # star discrepancy and a configured variation bound
    cases = [
        (cylinder_function(1, lambda x: np.cos(x[:, 0]), "cos"), 1,
         ((0.0, 1.0),), np.sin(1.0)),
        (cylinder_function(2, lambda x: x[:, 0] * x[:, 1], "xy"), 2,
         ((0.0, 1.0), (0.0, 1.0)), 3.0),
    ]
    for func, rank, domain, variation in cases:
        exact = tensor_quadrature(func.eval_block, domain)[0]
        for n in (256, 1024):
            d_star = star_discrepancy(halton_source(0).block(0, n, rank))
            report = run(halton_source(0), constant_policy(), func, n,
                         StoppingRule(min_samples=n, window=2))
            assert abs(report.final_estimate - exact) <= 10.0 * d_star * variation
